"""The chaos harness run as a test: faults on, invariants must hold.

Each scenario boots a real server with an armed fault injector and
drives it with concurrent retrying clients; see
:mod:`repro.testing.chaos` for the invariant definitions.  Every
scenario of the standing matrix runs here: no lost, duplicated or
unanswered commit, a breaker that recovers, and every acked commit
attributable by request id (no orphan event, no unattributed commit).
"""

import functools

import pytest

from repro.testing.chaos import default_scenarios, run_scenario

SCENARIOS = {
    scenario.name: scenario for scenario in default_scenarios(seed=11)
}
#: Scenarios whose faults fail operations; latency alone fires none.
FAILING = {"storage-eio", "response-kill", "job-eio"}


@functools.lru_cache(maxsize=None)
def _report(name):
    return run_scenario(SCENARIOS[name])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_invariants_hold_under_sustained_faults(name):
    report = _report(name)
    if name in FAILING:
        assert report.faults_fired > 0, "the scenario never actually failed"
    assert report.requests == report.acked + report.clean_failures
    assert report.invariants_hold, report.to_dict()


def test_response_kill_exercises_idempotent_replay():
    """The lost-acknowledgement scenario must actually produce replays —
    otherwise it is not testing what it claims to test."""
    report = _report("response-kill")
    assert report.replays > 0
    assert report.invariants_hold, report.to_dict()

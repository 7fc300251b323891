"""Self-test of the end-to-end benchmark at about 1/50 of its size.

    python -m pytest benchmarks/e2e -q

It runs every workload, both passes, through the command itself, so it
stays outside the tier-1 ``testpaths``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    # Three seconds give serve-mixed 240 requests, so its p99 lag is not
    # just the slowest one.
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.02",
         "--seconds", "3", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert child.returncode == 0
    return out, json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_errors(results, workload):
    _, by_workload = results
    for section in ("end_to_end", "per_layer"):
        result = by_workload[workload][section]
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_benchmark_json(results, workload):
    _, by_workload = results
    for section in ("end_to_end", "per_layer"):
        printed = by_workload[workload][section]["metrics"]
        declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
        assert set(printed) == set(declared)
        for name, metric in printed.items():
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_span_parent_exists(results, workload):
    out, _ = results
    with open(out / workload / "spans.jsonl", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans
    ids = {span["id"] for span in spans}
    assert all(span["parent"] is None or span["parent"] in ids for span in spans)
    assert all(span["end"] >= span["start"] for span in spans)

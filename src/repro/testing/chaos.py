"""Chaos harness: a real server, injected faults, asserted invariants.

The unit suites prove each resilience mechanism in isolation; this
module proves they *compose*.  A scenario boots an actual
:class:`~repro.server.app.DiffServer` (ephemeral port, temp store)
with a :class:`~repro.testing.faults.FaultInjector` threaded through
its storage writes, worker-pool jobs and response writes, then drives
it with concurrent :class:`~repro.client.DiffClient` workers committing
distinct document versions.  Afterwards the faults are disarmed and the
surviving store is audited against what the clients believe happened.

The invariants — all of which must hold under every fault shape:

- **no lost commits** — every commit a client got an acknowledgement
  for is present in the store, at the acknowledged version, with the
  acknowledged content;
- **no duplicated commits** — no commit was applied twice (every
  logical commit in the workload has distinct content, so a duplicate
  would show up as two adjacent versions with identical content);
- **every request answered or cleanly failed** — nothing but typed
  :class:`~repro.client.ClientError` failures escape the client;
- **the breaker recovers** — once faults stop, every client's circuit
  breaker closes again and requests succeed;
- **every request attributable** — each acked commit's
  ``X-Repro-Request-Id`` appears in the client event log, the server
  event log, and the store's per-version attribution metadata, and no
  server-side completion names a request id the clients never issued
  (telemetry survives the same faults the data does).

Scenarios are seeded end to end (fault jitter, client backoff jitter),
so a failure reproduces.  :func:`run_scenario` returns a
:class:`ChaosReport`; ``tests/integration/test_chaos.py`` runs every
scenario of :func:`default_scenarios` and requires
:attr:`ChaosReport.invariants_hold`.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Optional

from repro.client import ClientError, DiffClient
from repro.testing.faults import FaultInjector

__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "default_scenarios",
    "run_scenario",
]


@dataclass
class ChaosScenario:
    """One fault shape plus the client workload driven against it.

    ``faults`` is a factory (not an instance) so a scenario list can be
    run repeatedly, each run with a freshly armed injector.
    """

    name: str
    description: str
    faults: Callable[[], FaultInjector]
    clients: int = 3
    commits_per_client: int = 6
    client_timeout: float = 10.0
    retries: int = 5
    breaker_threshold: int = 3
    breaker_reset: float = 0.2
    deadline_ms: Optional[int] = None


@dataclass
class ChaosReport:
    """What one scenario run observed; see the module invariants."""

    scenario: str
    requests: int
    acked: int
    replays: int
    clean_failures: int
    faults_fired: int
    lost_commits: int
    duplicate_commits: int
    unanswered: int
    breaker_recovered: bool
    orphan_events: int = 0
    unattributed_commits: int = 0

    @property
    def invariants_hold(self) -> bool:
        return (
            self.lost_commits == 0
            and self.duplicate_commits == 0
            and self.unanswered == 0
            and self.breaker_recovered
            and self.orphan_events == 0
            and self.unattributed_commits == 0
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "requests": self.requests,
            "acked": self.acked,
            "replays": self.replays,
            "clean_failures": self.clean_failures,
            "faults_fired": self.faults_fired,
            "lost_commits": self.lost_commits,
            "duplicate_commits": self.duplicate_commits,
            "unanswered": self.unanswered,
            "breaker_recovered": self.breaker_recovered,
            "orphan_events": self.orphan_events,
            "unattributed_commits": self.unattributed_commits,
        }


def default_scenarios(seed: int = 0) -> list[ChaosScenario]:
    """The standing fault matrix (the tier-1 suite runs all of it)."""
    return [
        ChaosScenario(
            "slow-everything",
            "jittered latency on every storage write, pool job and "
            "response",
            lambda: FaultInjector(delay_ms=2.0, jitter_ms=8.0, seed=seed),
        ),
        ChaosScenario(
            "storage-eio",
            "EIO on every third current.xml write (failing disk)",
            lambda: FaultInjector(
                crash_after=2, mode="eio", repeat=True, label="current"
            ),
        ),
        ChaosScenario(
            "response-kill",
            "connection killed mid-response every fourth reply "
            "(work done, acknowledgement lost)",
            lambda: FaultInjector(
                crash_after=3, repeat=True, label="response"
            ),
        ),
        ChaosScenario(
            "job-eio",
            "every fifth pooled commit job dies before running",
            lambda: FaultInjector(
                crash_after=4, mode="eio", repeat=True, label="commit"
            ),
        ),
    ]


def _content(client_index: int, step: int) -> str:
    """Commit body for one workload step — unique per logical commit,
    which is what makes duplicate detection possible."""
    return (
        f'<doc client="{client_index}">'
        f"<step>{step}</step><payload>value-{client_index}-{step}"
        f"</payload></doc>"
    )


def _documents_equal(stored_xml: str, submitted_xml: str) -> bool:
    """Tree-level equality (serialization may normalize the text)."""
    from repro.xmlkit.parser import parse

    return parse(stored_xml, strip_whitespace=True).deep_equal(
        parse(submitted_xml, strip_whitespace=True)
    )


def run_scenario(
    scenario: ChaosScenario, store_url: Optional[str] = None
) -> ChaosReport:
    """Run one scenario against a live server; returns the report.

    ``store_url`` overrides the default temp ``sqlite://`` store (CI
    passes one to pin the backend under test).
    """
    from repro.obs.log import EventLogger
    from repro.obs.metrics import MetricsRegistry
    from repro.server import ServerConfig, serve_in_thread

    faults = scenario.faults()
    state_lock = threading.Lock()
    counters = {
        "requests": 0,
        "acked": 0,
        "replays": 0,
        "clean_failures": 0,
        "unanswered": 0,
    }
    # (version, content, request_id) per acked commit — the rid is the
    # attribution invariant's handle into both event logs and the store.
    acked: dict[str, list[tuple[int, str, Optional[str]]]] = {}
    client_events = EventLogger(capacity=8192, level="debug")

    with tempfile.TemporaryDirectory() as tmp, ExitStack() as cleanup:
        url = store_url or f"sqlite://{tmp}/chaos.db"
        handle = serve_in_thread(
            ServerConfig(
                port=0,
                stores={"chaos": url},
                workers=2,
                queue_limit=64,
                retry_after=0.05,
                default_deadline=5.0,
                max_deadline=10.0,
            ),
            metrics=MetricsRegistry(),
            faults=faults,
        )
        clients = [
            DiffClient(
                handle.url().rstrip("/"),
                timeout=scenario.client_timeout,
                retries=scenario.retries,
                backoff_base=0.01,
                backoff_cap=0.1,
                breaker_threshold=scenario.breaker_threshold,
                breaker_reset=scenario.breaker_reset,
                deadline_ms=scenario.deadline_ms,
                events=client_events,
                rng=random.Random(1000 + index),
            )
            for index in range(scenario.clients)
        ]
        for client in clients:
            cleanup.callback(client.close)

        def worker(index: int) -> None:
            client = clients[index]
            doc_id = f"doc-{index}"
            for step in range(scenario.commits_per_client):
                content = _content(index, step)
                with state_lock:
                    counters["requests"] += 1
                try:
                    result = client.commit("chaos", doc_id, content)
                except ClientError:
                    # Typed failure — the commit may or may not have
                    # landed; the version audit below settles it
                    # either way.
                    with state_lock:
                        counters["clean_failures"] += 1
                    time.sleep(0.02)
                    continue
                except BaseException:  # noqa: BLE001 — the invariant
                    with state_lock:
                        counters["unanswered"] += 1
                    continue
                with state_lock:
                    counters["acked"] += 1
                    if result.get("replayed"):
                        counters["replays"] += 1
                    acked.setdefault(doc_id, []).append(
                        (
                            int(result["version"]),
                            content,
                            result.get("request_id"),
                        )
                    )

        threads = [
            threading.Thread(target=worker, args=(index,), daemon=True)
            for index in range(scenario.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Faults off: from here on the server must behave perfectly,
        # which is itself part of the test (nothing wedged, nothing
        # leaked, the breaker closes).
        faults.crash_after = None
        faults.delay_ms = 0.0
        faults.jitter_ms = 0.0

        breaker_recovered = all(
            _recovers(client) for client in clients
        )

        verifier = clients[0]
        lost = 0
        duplicates = 0
        for doc_id, acks in sorted(acked.items()):
            current = int(verifier.history("chaos", doc_id)["current"])
            stored = {
                version: verifier.get_version("chaos", doc_id, version)[
                    "xml"
                ]
                for version in range(1, current + 1)
            }
            for version, content, _request_id in acks:
                if version not in stored or not _documents_equal(
                    stored[version], content
                ):
                    lost += 1
            for version in range(2, current + 1):
                if stored[version] == stored[version - 1]:
                    duplicates += 1

        # Attribution audit: snapshot the server's event ring last, so
        # every id the verifier itself minted above is already in the
        # client log when the two sets are compared.
        server_records = verifier.request(
            "GET", "/logz?limit=8192"
        )[2]["events"]
        handle.close()

        client_rids = {
            record["request_id"]
            for record in client_events.tail()
            if record.get("request_id")
        }
        server_rids = {
            record["request_id"]
            for record in server_records
            if record.get("request_id")
        }
        # Orphans: a server-side completion whose id no client issued
        # would mean correlation broke somewhere between the wire and
        # the log.  (The /logz call's own completion is emitted after
        # its response, so it cannot be in its own snapshot.)
        orphans = sum(
            1
            for record in server_records
            if record["event"] == "server.complete"
            and record.get("request_id")
            and record["request_id"] not in client_rids
        )
        # The store survives the server: reopen it and check every
        # acked commit's id made it into the journaled per-version
        # attribution metadata as well as both logs.
        from repro.versioning.repository import open_repository

        repository = open_repository(url)
        cleanup.callback(repository.close)
        unattributed = 0
        for doc_id, acks in sorted(acked.items()):
            attribution = repository.attribution(doc_id)
            for version, _, request_id in acks:
                if (
                    request_id is None
                    or request_id not in client_rids
                    or request_id not in server_rids
                    or attribution.get(str(version)) != request_id
                ):
                    unattributed += 1

    return ChaosReport(
        scenario=scenario.name,
        requests=counters["requests"],
        acked=counters["acked"],
        replays=counters["replays"],
        clean_failures=counters["clean_failures"],
        faults_fired=faults.fire_count,
        lost_commits=lost,
        duplicate_commits=duplicates,
        unanswered=counters["unanswered"],
        breaker_recovered=breaker_recovered,
        orphan_events=orphans,
        unattributed_commits=unattributed,
    )


def _recovers(client: DiffClient, within: float = 5.0) -> bool:
    """Whether a client's breaker closes once the faults stop."""
    end = time.monotonic() + within
    while time.monotonic() < end:
        try:
            client.healthz()
        except ClientError:
            time.sleep(0.05)
            continue
        if client.breaker.state == "closed":
            return True
    return False

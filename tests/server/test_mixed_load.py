"""Diffs and commits under concurrent load, with the scrubber running.

Four keep-alive clients mix ``POST /diff`` with idempotent commits to a
``sqlite://`` store while the background scrubber re-verifies that
store every 0.2 s.  Every request must get a 2xx answer, and the
server's own SLO view must show no error-budget burn: background
verification never taxes the hot path.
"""

import random
import threading
import time

from repro.client import ClientError, DiffClient
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import compute_slo
from repro.server import ServerConfig, serve_in_thread
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.xmlkit import serialize

CLIENTS = 4
REQUESTS_PER_CLIENT = 10
COMMIT_EVERY = 4


def _bodies(pairs=8):
    bodies = []
    for index in range(pairs):
        base = generate_document(
            GeneratorConfig(target_nodes=120, seed=301 + index)
        )
        changed = simulate_changes(
            base, SimulatorConfig(0.08, 0.12, 0.08, 0.05, seed=401 + index)
        ).new_document
        bodies.append((serialize(base), serialize(changed)))
    return bodies


def test_mixed_diffs_and_commits_stay_error_free_while_scrubbing(tmp_path):
    bodies = _bodies()
    registry = MetricsRegistry()
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"load": f"sqlite://{tmp_path}/load.db"},
            workers=2,
            queue_limit=256,
            batch_max=8,
            scrub_interval=0.2,
            scrub_batch=8,
        ),
        metrics=registry,
    )
    errors = [0] * CLIENTS
    answered = [0] * CLIENTS

    def client(worker):
        api = DiffClient(
            handle.url(""),
            timeout=60,
            retries=2,
            backoff_base=0.01,
            backoff_cap=0.25,
            rng=random.Random(worker),
        )
        try:
            for step in range(REQUESTS_PER_CLIENT):
                old_xml, new_xml = bodies[(worker + step) % len(bodies)]
                try:
                    if step % COMMIT_EVERY == 0:
                        # Alternate the two versions, so commits after
                        # the first produce real deltas.
                        document = new_xml if step % (2 * COMMIT_EVERY) else old_xml
                        api.commit("load", f"doc-{worker}", document)
                    else:
                        api.diff(old_xml, new_xml)
                except ClientError:
                    errors[worker] += 1
                answered[worker] += 1
        finally:
            api.close()

    try:
        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
        deadline = time.monotonic() + 30
        while handle.server.scrubber.docs_scrubbed < 1:
            assert time.monotonic() < deadline, "the scrubber never ran"
            time.sleep(0.05)
    finally:
        handle.close()

    assert sum(errors) == 0  # http_errors
    assert CLIENTS * REQUESTS_PER_CLIENT - sum(answered) == 0  # lost
    assert compute_slo(registry).error_budget_burn == 0
    assert handle.server.scrubber.findings_total == 0

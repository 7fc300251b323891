"""Background scrubber + /statz tests: findings degrade health, faults
never crash the server, and the diff path is unaffected."""

import asyncio
import http.client
import json
import os
import threading
from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.server import DiffServer, ServerConfig, serve_in_thread
from repro.testing.faults import InjectedIOError

OLD = "<site><page id='a'>alpha</page><page id='b'>beta</page></site>"
NEW = "<site><page id='a'>alpha!</page><page id='c'>gamma</page></site>"


def call(server, method, path, payload=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        connection.request(method, path, body=body)
        response = connection.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return response, json.loads(raw)
        return response, raw
    finally:
        connection.close()


@pytest.fixture()
def server(tmp_path):
    # A huge interval parks the background loop: tests drive ticks
    # deterministically through run_coroutine instead of sleeping.
    metrics = MetricsRegistry()
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"file://{tmp_path}/store"},
            workers=2,
            scrub_interval=3600.0,
            scrub_batch=16,
        ),
        metrics=metrics,
    )
    handle.metrics = metrics
    yield handle
    handle.close()


def commit(server, doc_id, document):
    response, body = call(
        server,
        "POST",
        "/repos/main/commit",
        {"doc_id": doc_id, "document": document},
    )
    assert response.status in (200, 201)
    return body


def tick(server):
    return server.run_coroutine(server.server.scrubber.tick())


def test_clean_store_scrubs_without_findings(server):
    commit(server, "doc-1", "<d><p>v1</p></d>")
    commit(server, "doc-1", "<d><p>v2</p></d>")
    commit(server, "doc-2", "<d><p>other</p></d>")
    scrubbed = tick(server)
    assert scrubbed == 2
    response, health = call(server, "GET", "/healthz")
    assert health["status"] == "ok"
    assert health["scrub"]["docs_scrubbed"] == 2
    assert health["scrub"]["findings"] == 0
    assert server.metrics.counter("repro_scrub_docs_total").value(
        store="main"
    ) == 2
    done = server.server.events.tail(event="scrub.done")
    assert done and done[-1]["docs"] == 2


def test_corruption_degrades_healthz_and_emits_finding(server, tmp_path):
    commit(server, "doc-1", "<d><p>v1</p></d>")
    commit(server, "doc-1", "<d><p>v2</p></d>")
    # Corrupt the stored snapshot directly, manifest left intact — the
    # rot the scrubber exists to catch.
    current = tmp_path / "store" / "doc-1" / "current.xml"
    current.write_bytes(b"<corrupt/>")
    tick(server)
    response, health = call(server, "GET", "/healthz")
    assert health["status"] == "degraded"
    assert health["scrub"]["findings"] >= 1
    assert "checksum-mismatch" in health["scrub"]["findings_by_kind"]
    last = health["scrub"]["last_finding"]
    assert last["doc_id"] == "doc-1"
    findings = server.server.events.tail(event="scrub.finding")
    assert findings
    assert findings[-1]["kind"] == "checksum-mismatch"
    assert findings[-1]["level"] == "warning"
    assert server.metrics.counter("repro_scrub_errors_total").value(
        store="main", kind="checksum-mismatch"
    ) >= 1


def test_torn_read_is_reported_not_raised(server, tmp_path):
    commit(server, "doc-1", "<d><p>" + "x" * 200 + "</p></d>")
    current = tmp_path / "store" / "doc-1" / "current.xml"
    data = current.read_bytes()
    current.write_bytes(data[: len(data) // 2])  # torn file on disk
    tick(server)
    response, health = call(server, "GET", "/healthz")
    assert health["status"] == "degraded"
    assert "checksum-mismatch" in health["scrub"]["findings_by_kind"]


def test_eio_during_verify_becomes_finding_and_diff_is_unaffected(server):
    commit(server, "doc-1", "<d><p>v1</p></d>")
    response, clean = call(
        server, "POST", "/diff", {"old": OLD, "new": NEW}
    )
    assert response.status == 200

    store, _lock = server.server.store_entry("main")
    original = store.repository.verify

    def dying_verify(doc_id=None):
        raise InjectedIOError(
            "injected EIO", label="verify", path="current.xml"
        )

    store.repository.verify = dying_verify
    try:
        scrubbed = tick(server)  # must not raise
    finally:
        store.repository.verify = original
    assert scrubbed == 1
    response, health = call(server, "GET", "/healthz")
    assert health["status"] == "degraded"
    assert "scrub-error" in health["scrub"]["findings_by_kind"]
    # The hot path is untouched: same diff, identical delta.
    response, faulted = call(
        server, "POST", "/diff", {"old": OLD, "new": NEW}
    )
    assert response.status == 200
    assert faulted["delta"] == clean["delta"]
    assert faulted["stats"]["operations"] == clean["stats"]["operations"]


def test_shutdown_closes_a_store_only_after_its_running_verify(tmp_path):
    # Cancelling the scrub task leaves a verify already on an executor
    # thread running; closing the store under it crashed sqlite.
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"sqlite://{tmp_path}/store.db"},
            scrub_interval=0.05,
            scrub_batch=1,
        )
    )
    commit(handle, "doc-1", "<d><p>v1</p></d>")
    repository = handle.server.store_entry("main")[0].repository
    verify, close = repository.verify, repository.close
    entered, release = threading.Event(), threading.Event()
    order = []

    def blocking_verify(doc_id=None):
        entered.set()
        release.wait(10)
        try:
            return verify(doc_id)
        finally:
            order.append("verify")

    def recording_close():
        order.append("close")
        close()

    repository.verify = blocking_verify
    repository.close = recording_close
    assert entered.wait(10), "the scrubber never started a verify"
    closer = threading.Thread(target=handle.close)
    closer.start()
    closer.join(0.2)  # a shutdown that does not wait is done by now
    release.set()
    closer.join(30)
    assert not closer.is_alive()
    assert order == ["verify", "close"]


def test_tick_pauses_when_queue_is_deep():
    server = DiffServer(
        ServerConfig(stores={}, scrub_interval=1.0, scrub_batch=4)
    )
    server.pool = SimpleNamespace(queue_depth=32, queue_limit=64)
    scrubbed = asyncio.run(server.scrubber.tick())
    assert scrubbed == 0
    assert server.scrubber.paused_ticks == 1
    assert server.scrubber.ticks == 0
    server.events.close()


def test_scrubber_disabled_by_default(tmp_path):
    handle = serve_in_thread(
        ServerConfig(port=0, stores={"main": f"file://{tmp_path}/s"})
    )
    try:
        assert handle.server.scrubber is None
        response, health = call(handle, "GET", "/healthz")
        assert health["status"] == "ok"
        assert "scrub" not in health
    finally:
        handle.close()


def test_scrub_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(scrub_interval=-1.0)
    with pytest.raises(ValueError):
        ServerConfig(scrub_batch=0)


def test_statz_over_sqlite_store(tmp_path):
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"sqlite://{tmp_path}/store.db"},
            workers=2,
        )
    )
    try:
        for index in range(12):
            response, body = call(
                handle,
                "POST",
                "/repos/main/commit",
                {
                    "doc_id": f"doc-{index}",
                    "document": f"<d><p>{index}</p></d>",
                },
            )
            assert response.status == 201
        call(
            handle,
            "POST",
            "/repos/main/commit",
            {"doc_id": "doc-0", "document": "<d><p>updated</p></d>"},
        )
        response, body = call(handle, "GET", "/statz")
        assert response.status == 200
        assert body["schema"] == "repro.storewatch/3"
        report = body["stores"]["main"]
        assert report["backend"] == "sqlite"
        assert report["documents"] == 12
        assert report["chain"]["histogram"] == {"0": 11, "1": 1}

        response, single = call(handle, "GET", "/repos/main/statz")
        assert response.status == 200
        assert single["documents"] == 12

        response, _ = call(handle, "GET", "/repos/nope/statz")
        assert response.status == 404

        # The collection emitted store.stats and refreshed the gauges.
        events = handle.server.events.tail(event="store.stats")
        assert events and events[-1]["documents"] == 12
        assert handle.server.metrics.gauge(
            "repro_store_documents"
        ).value(store="main") == 12
    finally:
        handle.close()


def test_scrubber_walks_sqlite_store(tmp_path):
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"sqlite://{tmp_path}/store.db"},
            scrub_interval=3600.0,
            scrub_batch=64,
        )
    )
    try:
        for index in range(6):
            call(
                handle,
                "POST",
                "/repos/main/commit",
                {
                    "doc_id": f"doc-{index}",
                    "document": f"<d><p>{index}</p></d>",
                },
            )
        scrubbed = handle.run_coroutine(handle.server.scrubber.tick())
        assert scrubbed == 6
        response, health = call(handle, "GET", "/healthz")
        assert health["status"] == "ok"
        assert health["scrub"]["findings"] == 0
    finally:
        handle.close()


def _drop_kv(path):
    import sqlite3

    other = sqlite3.connect(path)
    other.execute("DROP TABLE kv")
    other.commit()
    other.close()


@pytest.mark.parametrize("listed_first", [True, False],
                         ids=["mid-lap", "at-listing"])
def test_failing_sqlite_store_is_a_finding(tmp_path, listed_first):
    # A store whose kv table is gone must not scrub clean: whether the
    # failure hits a document's verify or the listing of the store, it
    # is reported as a scrub-error finding.
    path = tmp_path / "store.db"
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"sqlite://{path}"},
            scrub_interval=3600.0,
            scrub_batch=1,
        )
    )
    try:
        commit(handle, "doc-1", "<d><p>1</p></d>")
        commit(handle, "doc-2", "<d><p>2</p></d>")
        if listed_first:
            assert tick(handle) == 1  # lists both, verifies doc-1
        _drop_kv(path)
        tick(handle)
        response, health = call(handle, "GET", "/healthz")
        assert health["status"] == "degraded"
        assert health["scrub"]["findings_by_kind"] == {"scrub-error": 1}
        last = health["scrub"]["last_finding"]
        assert last["doc_id"] == ("doc-2" if listed_first else "")
        assert "StorageError" in last["message"]
        assert "no such table: kv" in last["message"]
    finally:
        handle.close()


def test_statz_never_queued(tmp_path):
    # /statz must answer even when the pool queue is saturated — it is
    # an inline route like /metrics.
    from repro.server.routes import ROUTES

    by_name = {route.name: route for route in ROUTES}
    assert by_name["statz"].pooled is False
    assert by_name["repo-statz"].pooled is False
    assert os.path.basename(by_name["statz"].pattern) == "statz"

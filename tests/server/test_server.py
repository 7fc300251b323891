"""End-to-end API tests: a real server on a real socket per module."""

import http.client
import json
import os
import subprocess
import sys

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.server import ServerConfig, serve_in_thread
from repro.xmlkit.errors import RepositoryError

OLD = "<site><page id='a'>alpha</page><page id='b'>beta</page></site>"
NEW = "<site><page id='a'>alpha!</page><page id='c'>gamma</page></site>"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    metrics = MetricsRegistry()
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"sqlite://{tmp}/main.db"},
            trace_sample=1,
            workers=2,
        ),
        metrics=metrics,
    )
    yield handle
    handle.close()


def call(server, method, path, payload=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        parsed = None
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            parsed = json.loads(raw)
        return response, parsed if parsed is not None else raw
    finally:
        connection.close()


def test_healthz_reports_ok_and_stores(server):
    response, body = call(server, "GET", "/healthz")
    assert response.status == 200
    assert body["status"] == "ok"
    assert body["stores"] == ["main"]
    assert body["queue_limit"] == 64


def test_diff_returns_delta_and_stats(server):
    response, body = call(server, "POST", "/diff", {"old": OLD, "new": NEW})
    assert response.status == 200
    assert body["delta"].startswith("<")
    assert body["stats"]["engine"] == "buld"
    assert body["stats"]["old_nodes"] > 0
    assert set(body["stats"]["operations"])


def test_diff_serializes_the_delta_once(server, monkeypatch):
    import repro.core.deltaxml as deltaxml

    calls = []
    serialize = deltaxml.serialize_delta

    def counting(*args, **kwargs):
        calls.append(1)
        return serialize(*args, **kwargs)

    monkeypatch.setattr(deltaxml, "serialize_delta", counting)
    response, body = call(server, "POST", "/diff", {"old": OLD, "new": NEW})
    assert response.status == 200
    assert len(calls) == 1
    assert body["stats"]["delta_bytes"] == len(body["delta"].encode())


def test_sampled_request_echoes_span_id(server):
    response, _ = call(server, "POST", "/diff", {"old": OLD, "new": NEW})
    assert response.getheader("X-Repro-Span-Id")  # trace_sample=1


def test_diff_rejects_unknown_engine(server):
    response, body = call(
        server, "POST", "/diff",
        {"old": OLD, "new": NEW, "engine": "nope"},
    )
    assert response.status == 400
    assert "nope" in body["error"]["message"]


def test_malformed_xml_is_422(server):
    response, body = call(server, "POST", "/diff",
                          {"old": "<broken", "new": NEW})
    assert response.status == 422
    assert body["error"]["code"] == "malformed-xml"


def test_commit_then_read_versions_history_changes(server):
    response, body = call(server, "POST", "/repos/main/commit",
                          {"doc_id": "doc-1", "document": OLD})
    assert response.status == 201
    assert body == {"created": True, "doc_id": "doc-1",
                    "summary": {}, "version": 1}

    response, body = call(server, "POST", "/repos/main/commit",
                          {"doc_id": "doc-1", "document": NEW})
    assert response.status == 200
    assert body["version"] == 2 and not body["created"]
    assert body["summary"]  # a non-empty operation summary

    response, body = call(server, "GET", "/repos/main/docs")
    assert response.status == 200
    assert {"doc_id": "doc-1", "version": 2} in body["documents"]

    response, body = call(server, "GET", "/repos/main/docs/doc-1")
    assert response.status == 200 and body["version"] == 2
    response, body = call(server, "GET",
                          "/repos/main/docs/doc-1/versions/1")
    assert response.status == 200
    assert "alpha" in body["xml"] and "beta" in body["xml"]

    response, body = call(server, "GET", "/repos/main/docs/doc-1/history")
    assert response.status == 200
    assert body["current"] == 2
    assert [entry["version"] for entry in body["versions"]] == [1, 2]

    response, body = call(server, "GET",
                          "/repos/main/docs/doc-1/changes?from=1&to=2")
    assert response.status == 200
    assert body["summary"] and body["delta"].startswith("<")


def test_changes_requires_from_and_to(server):
    response, body = call(server, "GET",
                          "/repos/main/docs/doc-1/changes?from=1")
    assert response.status == 400


def test_unknown_store_and_document_are_404(server):
    response, body = call(server, "GET", "/repos/ghost/docs")
    assert response.status == 404
    response, body = call(server, "GET", "/repos/main/docs/ghost")
    assert response.status == 404
    response, body = call(server, "GET",
                          "/repos/main/docs/doc-1/versions/99")
    assert response.status == 404


def test_unknown_path_404_wrong_method_405(server):
    response, _ = call(server, "GET", "/no/such/route")
    assert response.status == 404
    response, _ = call(server, "DELETE", "/diff")
    assert response.status == 405


def test_explain_why_carries_provenance(server):
    response, body = call(server, "POST", "/explain",
                          {"old": OLD, "new": NEW, "why": True})
    assert response.status == 200
    assert body["operations"]
    assert all("because" in op for op in body["operations"])


def test_audit_reports_unmatched_gate(server):
    response, body = call(server, "POST", "/audit",
                          {"old": OLD, "new": OLD, "max_unmatched": 0.1})
    assert response.status == 200
    assert body["ok"] is True
    assert body["unmatched_weight_ratio"] == 0.0


def test_metrics_exposes_server_series(server):
    response, raw = call(server, "GET", "/metrics")
    assert response.status == 200
    text = raw.decode("utf-8")
    assert "repro_server_queue_depth" in text
    assert "repro_server_requests_total" in text
    assert "repro_server_request_seconds_bucket" in text


def test_a_store_that_cannot_open_stops_the_boot(tmp_path):
    stores = {
        "good": f"sqlite://{tmp_path}/good.db",
        "x": f"blob://{tmp_path}/blobs",
    }
    with pytest.raises(RepositoryError, match="^store 'x': .*blob"):
        serve_in_thread(ServerConfig(port=0, stores=stores))
    assert not (tmp_path / "blobs").exists()


def test_recovery_runs_at_boot(tmp_path):
    from repro.testing.faults import FaultInjector, InjectedFault
    from repro.versioning import DirectoryRepository, VersionStore
    from repro.xmlkit import parse

    path = tmp_path / "store"
    repository = DirectoryRepository(path)
    store = VersionStore(repository)
    store.create("doc", parse(OLD))
    repository.faults = FaultInjector(crash_after=3)
    with pytest.raises(InjectedFault):
        store.commit("doc", parse(NEW))
    handle = serve_in_thread(
        ServerConfig(port=0, stores={"main": f"file://{path}"})
    )
    try:
        # No request has touched the store yet.
        events = handle.server.events.tail(event="repo.recover")
        assert [(e["store"], e["action"]) for e in events] == [
            ("main", "rolled-forward")
        ]
    finally:
        handle.close()


def test_serve_exits_with_one_error_line_for_a_bad_store(tmp_path):
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--repo", f"x=blob://{tmp_path}/blobs"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    assert completed.returncode == 1
    (line,) = completed.stderr.splitlines()
    assert line.startswith("error: store 'x': ")


def test_a_failing_store_answers_5xx_not_404(tmp_path):
    import sqlite3

    path = tmp_path / "main.db"
    handle = serve_in_thread(
        ServerConfig(port=0, stores={"main": f"sqlite://{path}"})
    )
    try:
        response, _ = call(handle, "POST", "/repos/main/commit",
                           {"doc_id": "doc-1", "document": OLD})
        assert response.status == 201
        other = sqlite3.connect(path)
        other.execute("DROP TABLE kv")
        other.commit()
        other.close()
        # The document exists; the store under it is what failed.
        response, body = call(handle, "POST", "/repos/main/commit",
                              {"doc_id": "doc-1", "document": NEW})
        assert response.status == 500
        assert body["error"]["code"] == "storage-error"
        assert "no such table: kv" in body["error"]["message"]
        response, body = call(handle, "GET", "/repos/main/docs/doc-1")
        assert response.status == 500
        assert body["error"]["code"] == "storage-error"
    finally:
        handle.close()


def test_an_unreadable_file_store_value_answers_storage_error(tmp_path):
    store = tmp_path / "store"
    handle = serve_in_thread(
        ServerConfig(port=0, stores={"main": f"file://{store}"})
    )
    try:
        for document in (OLD, NEW):
            response, _ = call(handle, "POST", "/repos/main/commit",
                               {"doc_id": "doc-1", "document": document})
            assert response.status in (200, 201)
        # A directory where the delta file belongs: the store is
        # damaged, the version is not unknown.
        delta = store / "doc-1" / "delta-0001-0002.xml"
        delta.unlink()
        delta.mkdir()
        response, body = call(handle, "GET",
                              "/repos/main/docs/doc-1/versions/1")
        assert response.status == 500
        assert body["error"]["code"] == "storage-error"
        assert "delta-0001-0002.xml" in body["error"]["message"]
    finally:
        handle.close()

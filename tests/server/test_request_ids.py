"""End-to-end correlation: one id across client, server, traces, store.

The tentpole invariant: the ``X-Repro-Request-Id`` a client mints for a
logical request — including one whose first response was torn and had to
be retried — shows up on the response, in the sampled span trees, in
the structured event log on *both* sides, and in the journal-durable
commit record / attribution map of the store.
"""

import http.client
import json

import pytest

from repro.obs.context import REQUEST_ID_HEADER, valid_request_id
from repro.obs.log import EventLogger
from repro.client import DiffClient
from repro.server import ServerConfig, serve_in_thread
from repro.testing.faults import FaultInjector
from repro.versioning.repository import open_repository
from tests.obs.histograms import samples

V1 = "<doc><a>one</a></doc>"
V2 = "<doc><a>one!</a><b>two</b></doc>"


def _get(handle, path):
    connection = http.client.HTTPConnection(
        handle.host, handle.port, timeout=30
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response, json.loads(response.read())
    finally:
        connection.close()


def test_request_id_survives_a_retry_end_to_end(tmp_path):
    """A torn first response must not fracture the correlation chain."""
    url = f"sqlite://{tmp_path}/main.db"
    faults = FaultInjector(crash_after=0, label="response")
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": url},
            workers=1,
            trace_sample=1,
            trace_dir=str(tmp_path),
            log_level="debug",
        ),
        faults=faults,
    )
    client_events = EventLogger(level="debug")
    try:
        with DiffClient(
            handle.url().rstrip("/"),
            retries=3,
            backoff_base=0.001,
            events=client_events,
        ) as client:
            result = client.commit("main", "doc-1", V1)
        assert faults.fire_count == 1  # the first response really died

        rid = result["request_id"]
        assert valid_request_id(rid)
        assert result["version"] == 1

        # Client side: the logical request and its retry carry the id.
        request_events = client_events.tail(request_id=rid)
        kinds = [record["event"] for record in request_events]
        assert "client.retry" in kinds
        assert "client.request" in kinds
        retry = next(r for r in request_events if r["event"] == "client.retry")
        assert retry["reason"] == "transport"

        # Server side: both attempts grouped under the one id, and the
        # store-level create is attributed to it.
        response, payload = _get(handle, f"/logz?request_id={rid}&limit=500")
        assert response.status == 200
        events = payload["events"]
        assert all(record["request_id"] == rid for record in events)
        server_kinds = [record["event"] for record in events]
        assert server_kinds.count("server.accept") == 2  # torn + retry
        assert "server.complete" in server_kinds
        assert "repo.create" in server_kinds

        # Traces: every sampled span line of this request is tagged.
        trace_lines = [
            json.loads(line)
            for line in (
                (tmp_path / "traces.jsonl").read_text().splitlines()
            )
        ]
        tagged = [line for line in trace_lines if line["request_id"] == rid]
        assert tagged
        assert {line["name"] for line in tagged} >= {
            "server.commit", "store.create",
        }
    finally:
        handle.close()

    # Store: the journal-durable commit record and the attribution map
    # both remember who wrote version 1 — after the server is gone.
    repository = open_repository(url)
    try:
        record = repository.last_commit("doc-1")
        assert record["version"] == 1
        assert record["request_id"] == rid
        assert repository.attribution("doc-1") == {"1": rid}
    finally:
        repository.close()


@pytest.fixture()
def plain_server(tmp_path):
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"sqlite://{tmp_path}/plain.db"},
            workers=1,
        )
    )
    yield handle
    handle.close()


def _post(handle, path, payload, headers=None):
    connection = http.client.HTTPConnection(
        handle.host, handle.port, timeout=30
    )
    try:
        send = {"Content-Type": "application/json"}
        send.update(headers or {})
        connection.request(
            "POST", path, body=json.dumps(payload).encode(), headers=send
        )
        response = connection.getresponse()
        return response, json.loads(response.read())
    finally:
        connection.close()


def test_every_response_echoes_a_request_id(plain_server):
    response, _ = _get(plain_server, "/healthz")
    assert valid_request_id(response.getheader(REQUEST_ID_HEADER))


def test_valid_supplied_id_is_adopted_and_echoed(plain_server):
    response, _ = _post(
        plain_server,
        "/diff",
        {"old": "<a>x</a>", "new": "<a>y</a>"},
        headers={REQUEST_ID_HEADER: "caller-chosen-id-1"},
    )
    assert response.getheader(REQUEST_ID_HEADER) == "caller-chosen-id-1"


def test_invalid_supplied_id_gets_a_minted_replacement(plain_server):
    connection = http.client.HTTPConnection(
        plain_server.host, plain_server.port, timeout=30
    )
    try:
        connection.request(
            "GET", "/healthz",
            headers={REQUEST_ID_HEADER: "bad id with spaces"},
        )
        response = connection.getresponse()
        response.read()
        echoed = response.getheader(REQUEST_ID_HEADER)
    finally:
        connection.close()
    assert echoed != "bad id with spaces"
    assert valid_request_id(echoed)


def test_error_responses_carry_the_id_into_the_exception(plain_server):
    from repro.client import ApiError

    with DiffClient(
        plain_server.url().rstrip("/"), retries=0
    ) as client:
        with pytest.raises(ApiError) as info:
            client.request(
                "POST",
                "/diff",
                {"old": "<not-closed>", "new": "<a/>"},
                headers={REQUEST_ID_HEADER: "err-correlation-1"},
            )
    assert info.value.request_id == "err-correlation-1"
    assert "err-correlation-1" in str(info.value)


def test_logz_endpoint_tails_and_filters(plain_server):
    with DiffClient(plain_server.url().rstrip("/")) as client:
        first = client.commit("main", "doc-a", V1)
        second = client.commit("main", "doc-a", V2)

    response, payload = _get(plain_server, "/logz")
    assert response.status == 200
    assert payload["schema"] == "repro.log/1"
    all_kinds = {record["event"] for record in payload["events"]}
    assert "repo.create" in all_kinds and "repo.commit" in all_kinds

    rid = second["request_id"]
    _, filtered = _get(plain_server, f"/logz?request_id={rid}")
    assert filtered["events"]
    assert all(r["request_id"] == rid for r in filtered["events"])
    assert {r["event"] for r in filtered["events"]} >= {"repo.commit"}
    assert first["request_id"] not in {
        r.get("request_id") for r in filtered["events"]
    }

    _, limited = _get(plain_server, "/logz?limit=1&event=repo.commit")
    assert len(limited["events"]) == 1
    assert limited["events"][0]["event"] == "repo.commit"

    response, _ = _get(plain_server, "/logz?limit=nope")
    assert response.status == 400


def test_slo_endpoint_reports_percentiles_and_budget(plain_server):
    with DiffClient(plain_server.url().rstrip("/")) as client:
        for _ in range(3):
            client.diff("<a>x</a>", "<a>y</a>")

    response, payload = _get(plain_server, "/slo")
    assert response.status == 200
    assert payload["schema"] == "repro.slo/1"
    assert payload["requests"] >= 3
    assert payload["errors"] == 0
    assert payload["error_budget_burn"] == 0.0
    assert payload["p99_ms"] >= payload["p95_ms"] >= payload["p50_ms"] >= 0
    routes = {route["route"] for route in payload["routes"]}
    assert "diff" in routes


def test_deltas_are_identical_with_telemetry_on_and_off(tmp_path):
    """Telemetry must observe the pipeline, never steer it."""
    quiet = serve_in_thread(
        ServerConfig(port=0, stores={}, workers=1)
    )
    noisy = serve_in_thread(
        ServerConfig(
            port=0,
            stores={},
            workers=1,
            trace_sample=1,
            trace_dir=str(tmp_path),
            log_level="debug",
            log_out=str(tmp_path / "events.jsonl"),
        )
    )
    try:
        old = "<doc><p>alpha</p><p>beta</p></doc>"
        new = "<doc><p>beta</p><p>gamma</p><q/></doc>"
        with DiffClient(quiet.url().rstrip("/")) as client:
            bare = client.diff(old, new)
        with DiffClient(noisy.url().rstrip("/")) as client:
            traced = client.diff(old, new)
        assert bare["delta"] == traced["delta"]
        bare_stats = dict(bare["stats"], total_seconds=None)
        traced_stats = dict(traced["stats"], total_seconds=None)
        assert bare_stats == traced_stats
        # And the noisy server really did record telemetry meanwhile.
        assert (tmp_path / "traces.jsonl").exists()
        assert (tmp_path / "events.jsonl").read_text().strip()
    finally:
        quiet.close()
        noisy.close()


def test_span_histogram_and_event_share_one_clock_reading(tmp_path):
    """A sampled request's root span, the request histogram and the
    ``server.complete`` event report one measurement, not three."""
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={},
            workers=1,
            trace_sample=1,
            trace_dir=str(tmp_path),
            log_level="debug",
        ),
        metrics=metrics,
    )
    try:
        with DiffClient(handle.url().rstrip("/")) as client:
            client.diff(V1, V2)
        _, payload = _get(handle, "/logz?event=server.complete")
    finally:
        handle.close()
    (complete,) = [
        record for record in payload["events"] if record["route"] == "diff"
    ]
    (root,) = [
        json.loads(line)
        for line in (tmp_path / "traces.jsonl").read_text().splitlines()
        if json.loads(line)["parent_id"] is None
    ]
    assert root["name"] == "server.diff"
    assert complete["duration_ms"] == round(root["duration"] * 1000.0, 3)
    observed = metrics.get("repro_server_request_seconds")
    assert samples(observed, route="diff")[1] == root["duration"]


def test_a_trace_that_cannot_be_written_does_not_fail_the_request(tmp_path):
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={},
            workers=1,
            trace_sample=1,
            trace_dir=str(blocked),
            log_level="debug",
        )
    )
    try:
        with DiffClient(handle.url().rstrip("/"), retries=0) as client:
            assert client.diff(V1, V2)["delta"]
        _, payload = _get(handle, "/logz?event=server.trace-dropped")
    finally:
        handle.close()
    assert len(payload["events"]) == 1
    assert payload["events"][0]["level"] == "warning"

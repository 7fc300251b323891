"""The structured event log: catalogue, ring, filtering, sinks."""

import io
import json

import pytest

from repro.obs.context import RequestContext, use_context
from repro.obs.log import EVENT_CATALOG, LEVELS, SCHEMA, EventLogger


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def test_unknown_event_name_raises():
    log = EventLogger()
    with pytest.raises(ValueError, match="unknown event"):
        log.emit("server.made-up")
    assert len(log) == 0


def test_every_catalogued_event_is_emittable():
    log = EventLogger(level="debug")
    for event in EVENT_CATALOG:
        assert log.emit(event, level="debug") is not None
    assert len(log) == len(EVENT_CATALOG)


def test_record_envelope_shape():
    clock = FakeClock()
    log = EventLogger(clock=clock)
    record = log.emit("server.complete", route="diff", status=200)
    assert record == {
        "schema": SCHEMA,
        "ts": 1000.0,
        "level": "info",
        "event": "server.complete",
        "route": "diff",
        "status": 200,
    }


def test_none_fields_are_dropped():
    log = EventLogger()
    record = log.emit("server.complete", route="diff", status=None)
    assert "status" not in record


def test_level_threshold_filters():
    log = EventLogger(level="warning")
    assert log.emit("server.accept", level="debug") is None
    assert log.emit("server.complete", level="info") is None
    assert log.emit("server.shed", level="warning") is not None
    assert len(log) == 1


def test_invalid_level_and_capacity_rejected():
    with pytest.raises(ValueError):
        EventLogger(level="verbose")
    with pytest.raises(ValueError):
        EventLogger(capacity=0)
    with pytest.raises(ValueError):
        EventLogger(stream=io.StringIO(), path="/tmp/x.jsonl")


def test_levels_are_ordered():
    assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]


def test_ring_keeps_only_newest_capacity_records():
    log = EventLogger(capacity=3)
    for index in range(5):
        log.emit("server.complete", status=index)
    records = log.tail()
    assert [record["status"] for record in records] == [2, 3, 4]
    assert len(log) == 3


def test_tail_filters_by_request_id_and_event():
    log = EventLogger()
    with use_context(RequestContext(request_id="rid-a")):
        log.emit("server.accept")
        log.emit("server.complete", status=200)
    with use_context(RequestContext(request_id="rid-b")):
        log.emit("server.complete", status=500)

    by_rid = log.tail(request_id="rid-a")
    assert [record["event"] for record in by_rid] == [
        "server.accept", "server.complete",
    ]
    by_event = log.tail(event="server.complete")
    assert [record["request_id"] for record in by_event] == ["rid-a", "rid-b"]
    both = log.tail(request_id="rid-b", event="server.complete")
    assert len(both) == 1 and both[0]["status"] == 500
    assert log.tail(request_id="rid-missing") == []


def test_tail_limit_takes_newest_oldest_first():
    log = EventLogger()
    for index in range(4):
        log.emit("server.complete", status=index)
    assert [r["status"] for r in log.tail(2)] == [2, 3]


def test_request_and_span_id_attach_from_active_context():
    log = EventLogger()
    outside = log.emit("server.complete")
    assert "request_id" not in outside and "span_id" not in outside

    with use_context(RequestContext(request_id="rid-1", span_id=42)):
        inside = log.emit("server.complete")
    assert inside["request_id"] == "rid-1"
    assert inside["span_id"] == 42

    # span_id is omitted (not null) when sampling did not assign one.
    with use_context(RequestContext(request_id="rid-2")):
        unsampled = log.emit("server.complete")
    assert unsampled["request_id"] == "rid-2"
    assert "span_id" not in unsampled


def test_stream_sink_mirrors_every_record_as_jsonl():
    sink = io.StringIO()
    log = EventLogger(stream=sink, clock=FakeClock())
    log.emit("server.accept", route="diff")
    log.emit("server.complete", route="diff", status=200)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert [record["event"] for record in parsed] == [
        "server.accept", "server.complete",
    ]
    assert all(record["schema"] == SCHEMA for record in parsed)


def test_path_sink_is_owned_and_appended(tmp_path):
    target = tmp_path / "events.jsonl"
    log = EventLogger(path=str(target))
    log.emit("server.complete", status=200)
    log.close()
    log2 = EventLogger(path=str(target))
    log2.emit("server.complete", status=201)
    log2.close()
    statuses = [
        json.loads(line)["status"]
        for line in target.read_text().splitlines()
    ]
    assert statuses == [200, 201]
    log2.close()  # idempotent


def test_filtered_record_never_reaches_the_sink():
    sink = io.StringIO()
    log = EventLogger(stream=sink, level="error")
    log.emit("server.complete", level="info")
    assert sink.getvalue() == ""

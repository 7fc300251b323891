"""Idempotent commits: the cache, the journal record, and the API.

Two protection layers are tested separately and then together:
the in-memory :class:`IdempotencyCache` (fast replay), and the
``last_commit`` record that rides the journaled repository metadata
(crash-durable replay — survives a server restart and a cache wipe).
"""

import http.client
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.server import ServerConfig, serve_in_thread
from repro.server.idempotency import (
    IDEMPOTENCY_HEADER,
    REPLAY_HEADER,
    IdempotencyCache,
    body_digest,
)
from repro.versioning import VersionStore
from repro.versioning.repository import open_repository
from repro.xmlkit import parse

V1 = "<doc><a>one</a></doc>"
V2 = "<doc><a>one!</a><b>two</b></doc>"
V3 = "<doc><b>two</b></doc>"


# -- body_digest --------------------------------------------------------------


def test_digest_is_length_prefixed_not_concatenated():
    assert body_digest(b"ab", b"c") != body_digest(b"a", b"bc")
    assert body_digest(b"x", b"y") != body_digest(b"y", b"x")
    assert body_digest(b"x", b"y") == body_digest(b"x", b"y")


# -- IdempotencyCache ---------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_cache_roundtrip_and_miss():
    cache = IdempotencyCache()
    assert cache.get("s", "d", "k") is None
    cache.put("s", "d", "k", "digest", 200, {"version": 2})
    entry = cache.get("s", "d", "k")
    assert entry.digest == "digest"
    assert entry.status == 200
    assert entry.payload == {"version": 2}
    assert cache.get("s", "other-doc", "k") is None


def test_cache_expires_entries_by_ttl():
    clock = FakeClock()
    cache = IdempotencyCache(ttl=10.0, clock=clock)
    cache.put("s", "d", "k", "digest", 200, {})
    clock.now = 9.0
    assert cache.get("s", "d", "k") is not None
    clock.now = 11.0
    assert cache.get("s", "d", "k") is None
    assert len(cache) == 0


def test_cache_evicts_oldest_beyond_max_entries():
    cache = IdempotencyCache(max_entries=2)
    for index in range(3):
        cache.put("s", "d", f"k{index}", "digest", 200, {})
    assert cache.get("s", "d", "k0") is None
    assert cache.get("s", "d", "k1") is not None
    assert cache.get("s", "d", "k2") is not None


def test_reput_refreshes_eviction_position():
    cache = IdempotencyCache(max_entries=2)
    cache.put("s", "d", "k0", "digest", 200, {})
    cache.put("s", "d", "k1", "digest", 200, {})
    cache.put("s", "d", "k0", "digest", 200, {})  # k0 now newest
    cache.put("s", "d", "k2", "digest", 200, {})
    assert cache.get("s", "d", "k1") is None
    assert cache.get("s", "d", "k0") is not None


def test_cache_constructor_validation():
    with pytest.raises(ValueError):
        IdempotencyCache(max_entries=0)
    with pytest.raises(ValueError):
        IdempotencyCache(ttl=0)


# -- the journal-durable commit record ---------------------------------------


def test_last_commit_record_survives_repository_reopen(tmp_path):
    url = f"sqlite://{tmp_path}/store.db"
    store = VersionStore(open_repository(url, must_exist=False))
    store.create("d", parse(V1), commit_record={"key": "k1", "digest": "d1"})
    store.commit("d", parse(V2), commit_record={"key": "k2", "digest": "d2"})
    store.repository.close()

    reopened = VersionStore(open_repository(url))
    record = reopened.repository.last_commit("d")
    assert record == {"key": "k2", "digest": "d2", "version": 2}
    # A commit without a record clears it: the previous key can no
    # longer claim the now-stale current version.
    reopened.commit("d", parse(V3))
    assert reopened.repository.last_commit("d") is None
    reopened.repository.close()


def test_last_commit_unknown_document_is_error(tmp_path):
    from repro.xmlkit import RepositoryError

    store = VersionStore(
        open_repository(f"sqlite://{tmp_path}/store.db", must_exist=False)
    )
    store.create("d", parse(V1))
    with pytest.raises(RepositoryError):
        store.repository.last_commit("missing")
    assert store.repository.last_commit("d") is None
    store.repository.close()


# -- end to end ---------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("idem")
    handle = serve_in_thread(
        ServerConfig(
            port=0,
            stores={"main": f"sqlite://{tmp}/main.db"},
            workers=2,
        ),
        metrics=MetricsRegistry(),
    )
    yield handle
    handle.close()


def commit(server, doc_id, document, key=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        headers = {"Content-Type": "application/json"}
        if key is not None:
            headers[IDEMPOTENCY_HEADER] = key
        connection.request(
            "POST", "/repos/main/commit",
            body=json.dumps(
                {"doc_id": doc_id, "document": document}
            ).encode("utf-8"),
            headers=headers,
        )
        response = connection.getresponse()
        return response, json.loads(response.read())
    finally:
        connection.close()


def test_same_key_same_body_replays_instead_of_reappending(server):
    first, body = commit(server, "doc-replay", V1, key="create-1")
    assert first.status == 201
    assert body["version"] == 1
    assert first.getheader(REPLAY_HEADER) is None

    again, body2 = commit(server, "doc-replay", V1, key="create-1")
    assert again.status == 201  # the recorded response, verbatim
    assert again.getheader(REPLAY_HEADER) == "true"
    assert body2["version"] == 1  # replayed, not appended

    response, history = _get(server, "/repos/main/docs/doc-replay/history")
    assert history["current"] == 1


def test_same_key_different_body_is_conflict(server):
    first, _ = commit(server, "doc-conflict", V1, key="shared-key")
    assert first.status == 201
    conflict, body = commit(server, "doc-conflict", V2, key="shared-key")
    assert conflict.status == 409
    assert body["error"]["code"] == "idempotency-conflict"


@pytest.mark.parametrize("bad", ["", "   ", "k" * 256])
def test_invalid_key_rejected_with_400(server, bad):
    response, body = commit(server, "doc-badkey", V1, key=bad)
    assert response.status == 400


def test_journal_layer_replays_after_cache_wipe(server):
    """Layer 2: the cache is gone (restart), the journal still knows."""
    first, body = commit(server, "doc-durable", V1, key="k-create")
    assert first.status == 201
    second, body = commit(server, "doc-durable", V2, key="k-append")
    assert second.status == 200
    assert body["version"] == 2
    expected_summary = body["summary"]

    server.server.idempotency._entries.clear()  # simulate a restart

    replay, body = commit(server, "doc-durable", V2, key="k-append")
    assert replay.status == 200
    assert replay.getheader(REPLAY_HEADER) == "true"
    assert body["version"] == 2
    assert body["summary"] == expected_summary

    # And a *conflicting* retry of that key is still caught.
    conflict, body = commit(server, "doc-durable", V3, key="k-append")
    assert conflict.status == 409

    response, history = _get(server, "/repos/main/docs/doc-durable/history")
    assert history["current"] == 2


def test_commits_without_key_are_unaffected(server):
    first, body = commit(server, "doc-plain", V1)
    assert first.status == 201
    assert body["version"] == 1
    second, body = commit(server, "doc-plain", V2)
    assert second.status == 200
    assert body["version"] == 2


def _get(server, path):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response, json.loads(response.read())
    finally:
        connection.close()

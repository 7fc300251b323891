"""The production behaviours: load shedding, drain, crash recovery.

These are the guarantees ``docs/server.md`` documents:

- a full queue sheds load with ``429`` + ``Retry-After``, while every
  request accepted *before* saturation still completes (no lost work);
- graceful shutdown drains the pool — in-flight commits finish and the
  store reopens clean;
- an *ungraceful* death mid-commit is the storage layer's problem, and
  its journal protocol recovers the store on reopen (the crash-matrix
  invariant, here driven through the HTTP stack).
"""

import concurrent.futures
import http.client
import json
import threading
import time

from repro.server import ServerConfig, serve_in_thread
from repro.testing import FaultInjector
from repro.versioning.repository import open_repository
from repro.versioning.version_control import VersionStore

V1 = "<doc><a>one one one</a><b>two two two</b></doc>"
V2 = "<doc><a>one (edited)</a><b>two two two</b><c>three</c></doc>"


def post(handle, path, payload):
    connection = http.client.HTTPConnection(
        handle.host, handle.port, timeout=30
    )
    try:
        connection.request(
            "POST", path, body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), \
            json.loads(response.read())
    finally:
        connection.close()


def submit_job(handle, fn, label):
    """Enqueue a raw pool job on the server's loop from this thread.

    Returns a :class:`concurrent.futures.Future` mirroring the
    pool-side result.
    """

    async def submit():
        return handle.server.pool.submit(fn, label=label)

    pool_future = handle.run_coroutine(submit())
    mirror = concurrent.futures.Future()

    def copy(done):
        if done.cancelled():
            mirror.cancel()
        elif done.exception() is not None:
            mirror.set_exception(done.exception())
        else:
            mirror.set_result(done.result())

    handle.loop.call_soon_threadsafe(pool_future.add_done_callback, copy)
    return mirror


def test_queue_overflow_sheds_with_429_and_loses_no_accepted_work():
    handle = serve_in_thread(
        ServerConfig(port=0, workers=1, queue_limit=2, retry_after=7)
    )
    gate = threading.Event()
    try:
        # Occupy the single worker, then fill the queue to its limit.
        blocker = submit_job(handle, gate.wait, label="blocker")
        accepted = [
            submit_job(handle, lambda i=i: i, label="fill") for i in range(2)
        ]
        status, headers, body = post(
            handle, "/diff", {"old": "<a/>", "new": "<b/>"}
        )
        assert status == 429
        assert headers["Retry-After"] == "7"
        assert body["error"]["code"] == "overloaded"

        # Liveness endpoints stay answerable while the pool is full.
        connection = http.client.HTTPConnection(
            handle.host, handle.port, timeout=30
        )
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        health = json.loads(response.read())
        connection.close()
        assert response.status == 200
        assert health["queue_depth"] == 2

        # Shedding dropped only the overflow request: every job accepted
        # before saturation completes once the worker unblocks.
        gate.set()
        assert blocker.result(timeout=30) is True
        assert sorted(f.result(timeout=30) for f in accepted) == [0, 1]

        status, _, _ = post(handle, "/diff",
                            {"old": "<a/>", "new": "<b/>"})
        assert status == 200
    finally:
        gate.set()
        handle.close()


def test_rejections_are_counted(tmp_path):
    handle = serve_in_thread(
        ServerConfig(port=0, workers=1, queue_limit=1)
    )
    gate = threading.Event()
    try:
        submit_job(handle, gate.wait, label="blocker")
        submit_job(handle, lambda: None, label="fill")
        status, _, _ = post(handle, "/diff",
                            {"old": "<a/>", "new": "<b/>"})
        assert status == 429
        gate.set()
        connection = http.client.HTTPConnection(
            handle.host, handle.port, timeout=30
        )
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        text = response.read().decode("utf-8")
        connection.close()
        assert 'repro_server_rejected_total{label="diff"} 1' in text
        assert 'repro_server_requests_total' in text
    finally:
        gate.set()
        handle.close()


def test_graceful_shutdown_drains_in_flight_commit(tmp_path):
    store_path = tmp_path / "store"
    handle = serve_in_thread(
        ServerConfig(
            port=0, workers=1, stores={"main": f"file://{store_path}"}
        )
    )
    status, _, _ = post(handle, "/repos/main/commit",
                        {"doc_id": "doc", "document": V1})
    assert status == 201

    gate = threading.Event()
    started = threading.Event()

    def slow_commit_shim():
        started.set()
        gate.wait()

    # Park a job in front of the commit so the commit is still queued
    # when shutdown begins — drain must run it, not drop it.
    submit_job(handle, slow_commit_shim, label="blocker")
    started.wait(timeout=30)

    results = {}

    def commit_during_drain():
        results["commit"] = post(
            handle, "/repos/main/commit", {"doc_id": "doc", "document": V2}
        )

    committer = threading.Thread(target=commit_during_drain)
    committer.start()

    # Shut down only once the commit is *accepted* (queued behind the
    # blocker) — drain's promise is about accepted work.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        connection = http.client.HTTPConnection(
            handle.host, handle.port, timeout=30
        )
        connection.request("GET", "/healthz")
        depth = json.loads(
            connection.getresponse().read()
        )["queue_depth"]
        connection.close()
        if depth >= 1:
            break
        time.sleep(0.02)
    else:
        raise AssertionError("commit was never queued")

    # Let shutdown() reach the drain phase first, then unblock.
    releaser = threading.Timer(0.3, gate.set)
    releaser.start()
    handle.close()  # graceful: drains the queue, closes stores
    committer.join(timeout=30)
    releaser.cancel()

    status, _, body = results["commit"]
    assert status == 200 and body["version"] == 2

    # The drained commit is durable: a fresh open sees version 2.
    repository = open_repository(f"file://{store_path}", must_exist=True)
    store = VersionStore(repository)
    assert store.current_version("doc") == 2
    assert repository.verify() == []
    repository.close()


def test_crashed_commit_recovers_via_journal_on_reopen(tmp_path):
    store_path = tmp_path / "store"
    # Crash the SECOND commit's delta write (the first commit is the
    # create, which performs no delta write).
    faults = FaultInjector(crash_after=0, label="delta")
    handle = serve_in_thread(
        ServerConfig(
            port=0, workers=1, stores={"main": f"file://{store_path}"}
        ),
        faults=faults,
    )
    try:
        status, _, _ = post(handle, "/repos/main/commit",
                            {"doc_id": "doc", "document": V1})
        assert status == 201
        status, _, body = post(handle, "/repos/main/commit",
                               {"doc_id": "doc", "document": V2})
        assert status == 500  # the injected crash surfaces as a 500
        assert faults.fired
    finally:
        handle.close()

    # The half-finished commit left a journal; reopening rolls the
    # store to a consistent state (the crash-matrix invariant).
    repository = open_repository(f"file://{store_path}", must_exist=True)
    store = VersionStore(repository)
    assert store.current_version("doc") == 1
    assert repository.verify() == []
    repository.close()

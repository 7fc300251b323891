"""One commit's and one version read's storage I/O, and the
range-notation XID labels.

A commit reads the document's head once: ``meta.json`` and then
``current.xml``, so two gets.  A version read does too: ``meta.json``
once, the stored state it starts from, and the deltas it replays.
It writes the journal, the delta, ``current.xml`` and the head, so four
puts; a checkpoint commit adds its snapshot to the same write, so five.
Only that write hashes: one SHA-256 per XML value the head records.
A create writes the journal, ``current.xml`` and the head.  XID labels
(the current version's and every checkpoint's) are kept in the XID-map
range notation deltas use, not as a JSON list of every node's XID.
Stores written before that, with list-form labels, still open, commit,
materialize and pass fsck.
Runs against every storage backend; ``XYDIFF_BACKENDS`` narrows the
sweep.
"""

import hashlib
import http.client
import json
import os
import time
from collections import Counter

import pytest

from repro.cli import main
from repro.core.xid import parse_xid_map
from repro.obs.log import EventLogger
from repro.obs.trace import Tracer
from repro.server import ServerConfig, serve_in_thread
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.storage import open_backend
from repro.storage.filesystem import FilesystemBackend
from repro.storage.sqlite_store import SQLiteBackend
from repro.versioning import BackendRepository, VersionStore, layout
from repro.versioning import repository as repository_module
from repro.xmlkit import parse, postorder, serialize, serialize_bytes

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]

COMMITS = 6


def _chain(seed: int = 5, commits: int = COMMITS) -> list[str]:
    """Serialized versions of a simulator chain, oldest first."""
    document = generate_document(GeneratorConfig(target_nodes=120, seed=seed))
    texts = [serialize(document.clone(keep_xids=False))]
    for step in range(commits):
        document = simulate_changes(
            document, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=seed + step)
        ).new_document
        texts.append(serialize(document.clone(keep_xids=False)))
    return texts


def _open(tmp_path, scheme):
    url = f"{scheme}://{tmp_path / 'store'}"
    return url, BackendRepository(open_backend(url))


class _Recorder:
    """Counts a backend's gets and existence probes and keeps the bytes
    of every put.

    ``target`` is one backend, or a backend class when the backend is
    opened out of reach (by the CLI or the server); a class is patched
    through ``monkeypatch`` so the patch ends with the test.
    """

    def __init__(self, target, monkeypatch=None):
        self.counts = Counter()
        self.puts: list[tuple[str, bytes]] = []
        get, put, exists = target.get, target.put, target.exists

        # A class's methods take the backend first: pass it through.
        def counting_get(*args):
            self.counts["gets"] += 1
            return get(*args)

        def recording_put(*args, label=None):
            self.counts["puts"] += 1
            self.puts.append((args[-2].rsplit("/", 1)[-1], args[-1]))
            return put(*args, label=label)

        def counting_exists(*args):
            self.counts["probes"] += 1
            return exists(*args)

        patch = monkeypatch.setattr if monkeypatch is not None else setattr
        patch(target, "get", counting_get)
        patch(target, "put", recording_put)
        patch(target, "exists", counting_exists)


def _library_commit(url, tmp_path, doc_id, text):
    store = VersionStore(BackendRepository(open_backend(url)))
    store.commit(doc_id, parse(text))
    store.repository.close()


def _cli_commit(url, tmp_path, doc_id, text):
    path = tmp_path / "incoming.xml"
    path.write_text(text)
    assert main(["store", "commit", doc_id, str(path), "--store", url]) == 0


def _sitediff_commit(url, tmp_path, doc_id, text):
    # A one-page site whose old side lacks the page: it is added, and
    # then committed.
    old, new = tmp_path / f"{doc_id}-old", tmp_path / f"{doc_id}-new"
    old.mkdir()
    new.mkdir()
    (new / doc_id).write_text(text)
    assert main(["sitediff", str(old), str(new), "--store", url]) == 0


def _http_commit(url, tmp_path, doc_id, text, *, handle):
    connection = http.client.HTTPConnection(
        handle.host, handle.port, timeout=30
    )
    try:
        connection.request(
            "POST", "/repos/main/commit",
            body=json.dumps({"doc_id": doc_id, "document": text}).encode(),
            headers={
                "Content-Type": "application/json",
                "Idempotency-Key": f"key-{len(text)}",
            },
        )
        response = connection.getresponse()
        assert response.status in (200, 201), response.read()
        response.read()
    finally:
        connection.close()


FRONT_ENDS = ["library", "cli", "sitediff", "http"]
BACKEND_CLASSES = {"file": FilesystemBackend, "sqlite": SQLiteBackend}


@pytest.fixture
def front_end(request, tmp_path, scheme):
    """``(url, commit)``: a store and one front end that commits to it."""
    url = f"{scheme}://{tmp_path / 'store'}"
    if request.param != "http":
        commit = {
            "library": _library_commit,
            "cli": _cli_commit,
            "sitediff": _sitediff_commit,
        }[request.param]
        yield url, commit
        return
    handle = serve_in_thread(
        ServerConfig(port=0, stores={"main": url}, workers=1)
    )
    try:
        yield url, lambda *args: _http_commit(*args, handle=handle)
    finally:
        handle.close()


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("front_end", FRONT_ENDS, indirect=True)
def test_every_front_end_commits_without_a_probe(
    tmp_path, scheme, front_end, monkeypatch
):
    # Each front end hands the commit to VersionStore.commit, which
    # reads the head once, inside its own pinned scope: an existing
    # document costs 2 gets and 4 puts, a new one 1 get (its absent
    # head), 1 probe (create's strict check) and 3 puts.
    url, commit = front_end
    texts = _chain()
    seed = VersionStore(BackendRepository(open_backend(url)))
    seed.create("doc.xml", parse(texts[0]))
    seed.repository.close()
    recorder = _Recorder(BACKEND_CLASSES[scheme], monkeypatch)
    commit(url, tmp_path, "doc.xml", texts[1])
    assert recorder.counts == Counter(gets=2, puts=4)
    recorder.counts.clear()
    commit(url, tmp_path, "new.xml", texts[0])
    assert recorder.counts == Counter(gets=1, probes=1, puts=3)
    monkeypatch.undo()
    store = VersionStore(BackendRepository(open_backend(url)))
    assert store.current_version("doc.xml") == 2
    assert serialize(store.get_current("doc.xml")) == serialize(
        parse(texts[1])
    )
    assert store.current_version("new.xml") == 1
    store.repository.close()


def _assert_range_labels(record: dict) -> None:
    assert isinstance(record["xid_labels"], str)
    parse_xid_map(record["xid_labels"])
    for labels in record.get("snapshots", {}).values():
        assert isinstance(labels, str)
        parse_xid_map(labels)


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_commit_makes_two_gets_and_four_puts(tmp_path, scheme):
    _, repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    # Past version 8, the first a store keeps as a checkpoint.
    texts = _chain(commits=9)
    store.create("doc", parse(texts[0]))
    recorder = _Recorder(repo.backend)
    for version, text in enumerate(texts[1:], start=2):
        before = Counter(recorder.counts)
        recorder.puts.clear()
        store.commit("doc", parse(text))
        made = recorder.counts - before
        names = [name for name, _ in recorder.puts]
        if version % 8:
            assert made == Counter(gets=2, puts=4), version
            assert names == [
                "journal.json", f"delta-{version - 1:04d}-{version:04d}.xml",
                "current.xml", "meta.json",
            ]
        else:
            # A checkpoint adds its snapshot to the commit's one write.
            assert made == Counter(gets=2, puts=5), version
            assert names == [
                "journal.json", f"delta-{version - 1:04d}-{version:04d}.xml",
                f"snapshot-{version:04d}.xml", "current.xml", "meta.json",
            ]
        for name, data in recorder.puts:
            if name == "meta.json":
                _assert_range_labels(json.loads(data))
            elif name == "journal.json":
                _assert_range_labels(json.loads(data)["meta"])
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_only_the_head_write_hashes(tmp_path, scheme, monkeypatch):
    """One SHA-256 per XML value a head records, and no other: a put
    returns nothing, so neither backend hashes what it stores."""
    _, repo = _open(tmp_path, scheme)
    monkeypatch.setattr(repository_module, "CHECKPOINT_EVERY", 3)
    store = VersionStore(repo)
    texts = _chain()
    hashed = []
    real = hashlib.sha256

    def counting(*args, **kwargs):
        hashed.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    # A create, a plain commit and a checkpoint commit.
    for version, expected in ((1, 1), (2, 2), (3, 3)):
        hashed.clear()
        store.commit("doc", parse(texts[version - 1]))
        assert len(hashed) == expected, version
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_create_writes_the_journal_current_and_the_head(tmp_path, scheme):
    _, repo = _open(tmp_path, scheme)
    recorder = _Recorder(repo.backend)
    VersionStore(repo).create("doc", parse(_chain()[0]))
    assert recorder.counts == Counter(puts=3, probes=1)
    assert [name for name, _ in recorder.puts] == [
        "journal.json", "current.xml", "meta.json",
    ]
    journal = json.loads(recorder.puts[0][1])
    assert journal["pre"] == {} and list(journal["post"]) == ["current.xml"]
    assert not repo.backend.exists("doc/journal.json")
    repo.close()


def test_a_checkpoint_leaves_the_pinned_meta_unchanged(tmp_path, monkeypatch):
    # The pinned meta is shared with the meta it was copied from, so a
    # checkpoint commit writes a new record instead of editing it in
    # place.
    _, repo = _open(tmp_path, "file")
    monkeypatch.setattr(repository_module, "CHECKPOINT_EVERY", 2)
    store = VersionStore(repo)
    texts = _chain()
    store.create("doc", parse(texts[0]))
    with repo.pinned_head("doc"):
        pinned = repo._load_meta("doc")
        before = json.dumps(pinned, sort_keys=True)
        store.commit("doc", parse(texts[1]))
        assert json.dumps(pinned, sort_keys=True) == before
        assert "2" in repo._load_meta("doc")["snapshots"]
    assert repo._pinned.head is None
    assert repo.snapshot_versions("doc") == [2]
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_no_json_label_list_is_stored(tmp_path, scheme, monkeypatch):
    _, repo = _open(tmp_path, scheme)
    monkeypatch.setattr(repository_module, "CHECKPOINT_EVERY", 2)
    store = VersionStore(repo)
    texts = _chain()
    store.create("doc", parse(texts[0]))
    for text in texts[1:]:
        store.commit("doc", parse(text))
    meta = json.loads(repo.backend.get("doc/meta.json"))
    _assert_range_labels(meta)
    assert sorted(meta["snapshots"]) == ["2", "4", "6"]
    # The labels read back onto the trees they were taken from.
    for version, text in enumerate(texts, start=1):
        assert serialize(store.get_version("doc", version)) == serialize(
            parse(text)
        )
    repo.close()


def _bytes_and_xids(document) -> tuple[bytes, list]:
    return serialize_bytes(document), [n.xid for n in postorder(document)]


def _to_list_layout(repo: BackendRepository, doc_id: str) -> None:
    """Rewrite a document's meta the way stores before range labels
    held it: every label list as a JSON list of XIDs."""
    prefix = layout.doc_prefix(doc_id)
    meta = layout.get_record(repo.backend, prefix, "meta")
    meta["xid_labels"] = parse_xid_map(meta["xid_labels"])
    meta["snapshots"] = {
        version: parse_xid_map(labels)
        for version, labels in meta.get("snapshots", {}).items()
    }
    layout.put_record(repo.backend, prefix, "meta", meta)


@pytest.mark.parametrize("scheme", BACKENDS)
def test_an_old_layout_store_opens_commits_and_passes_fsck(
    tmp_path, scheme, monkeypatch
):
    url, repo = _open(tmp_path, scheme)
    monkeypatch.setattr(repository_module, "CHECKPOINT_EVERY", 2)
    store = VersionStore(repo)
    texts = _chain()
    store.create("doc", parse(texts[0]))
    for text in texts[1:-1]:
        store.commit("doc", parse(text))
    versions = len(texts) - 1
    materialized = [
        _bytes_and_xids(store.get_version("doc", version))
        for version in range(1, versions + 1)
    ]
    _to_list_layout(repo, "doc")
    repo.close()
    with open_backend(url) as backend:
        old_meta = json.loads(backend.get("doc/meta.json"))
    assert isinstance(old_meta["xid_labels"], list)
    assert all(isinstance(v, list) for v in old_meta["snapshots"].values())

    repo = BackendRepository(open_backend(url))
    store = VersionStore(repo)
    for version in range(1, versions + 1):
        assert _bytes_and_xids(
            store.get_version("doc", version)
        ) == materialized[version - 1], version
    store.commit("doc", parse(texts[-1]))
    assert store.verify_integrity("doc")
    assert serialize(store.get_version("doc", versions + 1)) == serialize(
        parse(texts[-1])
    )
    # The commit wrote the current labels in range notation; the older
    # checkpoints keep their list form and still read back.
    meta = json.loads(repo.backend.get("doc/meta.json"))
    assert isinstance(meta["xid_labels"], str)
    assert isinstance(meta["snapshots"]["2"], list)
    assert repo.verify() == []
    repo.close()
    assert main(["fsck", url]) == 0


class _KeyCounter:
    """Counts one backend's gets by file name (deltas as ``delta``)."""

    def __init__(self, backend):
        self.counts = Counter()
        get = backend.get

        def counting_get(key):
            name = key.rsplit("/", 1)[-1]
            self.counts["delta" if name.startswith("delta-") else name] += 1
            return get(key)

        backend.get = counting_get


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_version_read_reads_the_head_once(tmp_path, scheme):
    _, repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    texts = _chain()[:6]
    store.create("doc", parse(texts[0]))
    for text in texts[1:]:
        store.commit("doc", parse(text))
    counter = _KeyCounter(repo.backend)
    version = store.get_version("doc", 3)
    assert serialize(version) == serialize(parse(texts[2]))
    # current_version, snapshot_versions and load_current share one
    # meta read; three deltas walk back from version 6 to 3.
    assert counter.counts == Counter(
        {"meta.json": 1, "current.xml": 1, "delta": 3}
    )
    assert repo._pinned.head is None
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_range_reads_read_the_head_once(tmp_path, scheme):
    # Delta reads check the document's owner in its meta; a read of
    # many deltas pins the head, so the check adds no read.
    _, repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    texts = _chain()[:4]
    store.create("doc", parse(texts[0]))
    for text in texts[1:]:
        store.commit("doc", parse(text))
    counter = _KeyCounter(repo.backend)
    reads = {
        # Version 1 rebuilt back from version 4, then deltas 1 and 2.
        lambda: store.changes_between("doc", 1, 3): (1, 5),
        lambda: store.changes_between("doc", 3, 1): (1, 5),
        lambda: store.deltas("doc"): (0, 3),
        # Version 1 rebuilt, replayed forward, compared with current.
        lambda: store.verify_integrity("doc"): (2, 6),
    }
    for read, (currents, deltas) in reads.items():
        counter.counts.clear()
        read()
        expected = Counter({"meta.json": 1, "current.xml": currents})
        expected["delta"] = deltas
        assert +counter.counts == +expected
    assert repo._pinned.head is None
    repo.close()


def test_a_read_inside_an_open_scope_reuses_its_meta(tmp_path):
    _, repo = _open(tmp_path, "file")
    store = VersionStore(repo)
    texts = _chain()
    store.create("doc", parse(texts[0]))
    store.commit("doc", parse(texts[1]))
    store.create("other", parse(texts[0]))
    counter = _KeyCounter(repo.backend)
    with repo.pinned_head("doc"):
        repo.current_version("doc")
        store.get_version("doc", 1)
        outer = repo._pinned.head
        # A scope for another document pins its own meta, then the
        # outer scope is back.
        store.get_version("other", 1)
        assert repo._pinned.head is outer
        store.get_version("doc", 2)
    assert repo._pinned.head is None
    assert counter.counts["meta.json"] == 2
    repo.close()


def test_a_commit_span_and_event_report_one_duration(monkeypatch):
    # A clock that moves 1 ms per reading: two readings of the end of
    # one commit could not agree.
    ticks = iter(range(10**6))
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) / 1000.0)
    tracer = Tracer()
    events = EventLogger()
    store = VersionStore(tracer=tracer, events=events)
    texts = _chain()
    store.create("doc", parse(texts[0]))
    store.commit("doc", parse(texts[1]))
    (span,) = [s for s in tracer.iter_spans() if s.name == "store.commit"]
    (event,) = events.tail(event="repo.commit")
    assert span.duration > 0
    assert event["duration_ms"] == round(span.duration * 1000.0, 3)

"""One commit's and one version read's storage I/O, and the
range-notation XID labels.

A commit reads the document's head once: ``meta.json`` and then
``current.xml``, plus the manifest ``append`` extends, so three gets.
A version read does too: ``meta.json`` once, the stored state it starts
from, and the deltas it replays.
It writes the journal, the delta, ``current.xml``, the manifest and the
meta, so five puts.  XID labels (the current version's and every
checkpoint's) are kept in the XID-map range notation deltas use, not as
a JSON list of every node's XID.  Stores written before that, with
list-form labels, still open, commit, materialize and pass fsck.
Runs against every storage backend; ``XYDIFF_BACKENDS`` narrows the
sweep.
"""

import json
import os
import time
from collections import Counter

import pytest

from repro.cli import main
from repro.core.xid import parse_xid_map
from repro.obs.log import EventLogger
from repro.obs.trace import Tracer
from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.storage import open_backend
from repro.versioning import BackendRepository, VersionStore
from repro.xmlkit import parse, postorder, serialize, serialize_bytes

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]

COMMITS = 6


def _chain(seed: int = 5) -> list[str]:
    """Serialized versions of a simulator chain, oldest first."""
    document = generate_document(GeneratorConfig(target_nodes=120, seed=seed))
    texts = [serialize(document.clone(keep_xids=False))]
    for step in range(COMMITS):
        document = simulate_changes(
            document, SimulatorConfig(0.1, 0.1, 0.1, 0.1, seed=seed + step)
        ).new_document
        texts.append(serialize(document.clone(keep_xids=False)))
    return texts


def _open(tmp_path, scheme):
    url = f"{scheme}://{tmp_path / 'store'}"
    return url, BackendRepository(open_backend(url))


class _Recorder:
    """Counts one backend's gets and keeps the bytes of every put."""

    def __init__(self, backend):
        self.counts = Counter()
        self.puts: list[tuple[str, bytes]] = []
        get, put = backend.get, backend.put

        def counting_get(key):
            self.counts["gets"] += 1
            return get(key)

        def recording_put(key, data, *, label=None):
            self.counts["puts"] += 1
            self.puts.append((key.rsplit("/", 1)[-1], data))
            return put(key, data, label=label)

        backend.get, backend.put = counting_get, recording_put


def _assert_range_labels(record: dict) -> None:
    assert isinstance(record["xid_labels"], str)
    parse_xid_map(record["xid_labels"])
    for labels in record.get("snapshots", {}).values():
        assert isinstance(labels, str)
        parse_xid_map(labels)


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_commit_makes_three_gets_and_five_puts(tmp_path, scheme):
    _, repo = _open(tmp_path, scheme)
    store = VersionStore(repo, checkpoint_every=3)
    texts = _chain()
    store.create("doc", parse(texts[0]))
    recorder = _Recorder(repo.backend)
    for version, text in enumerate(texts[1:], start=2):
        before = Counter(recorder.counts)
        recorder.puts.clear()
        store.commit("doc", parse(text))
        made = recorder.counts - before
        names = [name for name, _ in recorder.puts]
        if version % 3:
            assert made == Counter(gets=3, puts=5), version
            assert names == [
                "journal.json", f"delta-{version - 1:04d}-{version:04d}.xml",
                "current.xml", "manifest.json", "meta.json",
            ]
        else:
            # A checkpoint adds the snapshot, the manifest (read and
            # written again) and the meta (rewritten, not read).
            assert made == Counter(gets=4, puts=8), version
        for name, data in recorder.puts:
            if name == "meta.json":
                _assert_range_labels(json.loads(data))
            elif name == "journal.json":
                _assert_range_labels(json.loads(data)["meta"])
    repo.close()


def test_a_checkpoint_leaves_the_pinned_meta_unchanged(tmp_path):
    # The pinned meta is shared with the meta it was copied from, so a
    # checkpoint writes a new record instead of editing it in place.
    _, repo = _open(tmp_path, "file")
    store = VersionStore(repo)
    texts = _chain()
    store.create("doc", parse(texts[0]))
    store.commit("doc", parse(texts[1]))
    with repo.pinned_head("doc"):
        pinned = repo._load_meta("doc")
        before = json.dumps(pinned, sort_keys=True)
        repo.store_snapshot("doc", 2, repo.load_current("doc"))
        assert json.dumps(pinned, sort_keys=True) == before
        assert "2" in repo._load_meta("doc")["snapshots"]
    assert repo._pinned.head is None
    assert repo.snapshot_versions("doc") == [2]
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_no_json_label_list_is_stored(tmp_path, scheme):
    _, repo = _open(tmp_path, scheme)
    store = VersionStore(repo, checkpoint_every=2)
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
    key = repo._meta_key(doc_id)
    meta = json.loads(repo.backend.get(key))
    meta["xid_labels"] = parse_xid_map(meta["xid_labels"])
    meta["snapshots"] = {
        version: parse_xid_map(labels)
        for version, labels in meta.get("snapshots", {}).items()
    }
    repo.backend.put_json(key, meta)


@pytest.mark.parametrize("scheme", BACKENDS)
def test_an_old_layout_store_opens_commits_and_passes_fsck(tmp_path, scheme):
    url, repo = _open(tmp_path, scheme)
    store = VersionStore(repo, checkpoint_every=2)
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
    store = VersionStore(repo, checkpoint_every=2)
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

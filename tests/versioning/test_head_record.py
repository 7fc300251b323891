"""One head record per document, written one way.

A document's head, ``meta.json``, holds its version, XID state and the
SHA-256 checksums of its XML values, so a commit reads and writes one
record, and every record is compact JSON.  Every change of a head — a
create, a commit, a checkpoint commit, fsck's checksum repairs — is one
journaled write.  These tests crash each of them at every write point,
both before the write and with half of it landed (torn), open stores in
the layout written before the head held the checksums (a
``manifest.json`` beside an indented head, and journals that embed
both), and count the garbage a commit leaves to the cycle collector.
Runs against every storage backend; ``XYDIFF_BACKENDS`` narrows the
sweep.
"""

import contextlib
import gc
import json
import os
from unittest import mock

import pytest

from repro.storage import open_backend
from repro.testing import FaultInjector, InjectedFault
from repro.versioning import (
    BackendRepository,
    VersionStore,
    fsck_store,
    layout,
)
from repro.versioning import repository as repository_module
from repro.xmlkit import parse, serialize_bytes

from tests.versioning.old_layout import old_journal, to_old_layout
from tests.versioning.test_store_bytes import (
    DOC_ID,
    OLD_STORE_SHA256,
    VERSIONS,
    _history,
    _store_digest,
)

BACKENDS = [
    name.strip()
    for name in os.environ.get("XYDIFF_BACKENDS", "file,sqlite").split(",")
    if name.strip()
]

PREFIX = layout.doc_prefix(DOC_ID)
META_KEY = layout.key(PREFIX, "meta")
MANIFEST_KEY = layout.key(PREFIX, "manifest")

#: The write points of each head change, in order: one journaled write.
WRITE_POINTS = {
    "create": [
        ("write", "journal"),
        ("write", "current"),
        ("write", "meta"),
        ("unlink", "journal-clear"),
    ],
    "commit": [
        ("write", "journal"),
        ("write", "delta"),
        ("write", "current"),
        ("write", "meta"),
        ("unlink", "journal-clear"),
    ],
    "checkpoint": [
        ("write", "journal"),
        ("write", "delta"),
        ("write", "snapshot"),
        ("write", "current"),
        ("write", "meta"),
        ("unlink", "journal-clear"),
    ],
    "missing-checksum": [
        ("write", "journal"),
        ("write", "meta"),
        ("unlink", "journal-clear"),
    ],
    # The damaged head has no checksums, so it is replaced the way an
    # older head is: any manifest.json goes with it.
    "missing-manifest": [
        ("write", "journal"),
        ("write", "meta"),
        ("unlink", "manifest-clear"),
        ("unlink", "journal-clear"),
    ],
}
REPAIRS = ["missing-checksum", "missing-manifest"]

#: The write points of the first commit of a document in the older
#: layout: its manifest goes after the head that supersedes it.
MIGRATION_OPS = [
    ("write", "journal"),
    ("write", "delta"),
    ("write", "current"),
    ("write", "meta"),
    ("unlink", "manifest-clear"),
    ("unlink", "journal-clear"),
]


def _url(tmp_path, scheme):
    return f"{scheme}://{tmp_path / 'store'}"


def _open(tmp_path, scheme, faults=None):
    return BackendRepository(
        open_backend(_url(tmp_path, scheme), faults=faults)
    )


def _versions(repo) -> list[bytes]:
    store = VersionStore(repo)
    return [
        serialize_bytes(store.get_version(DOC_ID, version))
        for version in range(1, store.current_version(DOC_ID) + 1)
    ]


def _assert_one_compact_head(repo) -> dict:
    names = [layout.split_key(key)[1] for key in layout.doc_keys(
        repo.backend, PREFIX
    )]
    assert layout.name("manifest") not in names
    assert layout.name("journal") not in names
    data = repo.backend.get(META_KEY)
    head = json.loads(data)
    assert data == layout.encode_record(head)
    assert layout.name("current") in head["checksums"]
    return head


# -- (a) every head change crashed at each write point ---------------------


def _prepare(repo, operation):
    """Bring ``repo`` to the state before ``operation``; returns a
    callable that runs it."""
    if operation == "create":
        return lambda: VersionStore(repo).create(DOC_ID, parse(VERSIONS[0]))
    _history(repo)
    if operation in ("commit", "checkpoint"):
        store = VersionStore(repo)
        # Version 7 is a checkpoint only when checkpoints come every 7.
        every = 7 if operation == "checkpoint" else 2

        def commit():
            with mock.patch.object(repository_module, "CHECKPOINT_EVERY", every):
                store.commit(DOC_ID, parse(VERSIONS[0]))

        return commit
    head = json.loads(repo.backend.get(META_KEY))
    if operation == "missing-checksum":
        del head["checksums"][layout.name("delta", 1)]
    else:
        del head["checksums"]
    repo.backend.put(META_KEY, layout.encode_record(head))
    return lambda: fsck_store(repo, repair=True)


def _state(repo):
    """What a reader sees: versions, checkpoints and finding kinds."""
    kinds = sorted(finding.kind for finding in repo.verify())
    if not repo.exists(DOC_ID):
        return [], [], kinds
    return _versions(repo), repo.snapshot_versions(DOC_ID), kinds


def _assert_recovers(tmp_path, scheme, operation, crash_after):
    """Crash ``operation`` before its write ``crash_after``, and tear
    that write: each time, the store reopens to the state before the
    operation or after it, and ``fsck --repair`` leaves it clean."""
    (tmp_path / "twin").mkdir()
    twin = _open(tmp_path / "twin", scheme)
    run = _prepare(twin, operation)
    before = _state(twin)
    twin.faults = probe = FaultInjector()
    run()
    assert probe.ops == WRITE_POINTS[operation]
    twin.faults = None
    after = _state(twin)
    twin.close()
    for mode in ("crash", "torn"):
        path = tmp_path / mode
        path.mkdir()
        repo = _open(path, scheme)
        run = _prepare(repo, operation)
        repo.faults = faults = FaultInjector(crash_after=crash_after, mode=mode)
        # fsck reports a repair that failed instead of raising.
        with contextlib.suppress(InjectedFault):
            run()
        assert faults.fired
        repo.close()

        reopened = _open(path, scheme)
        assert _state(reopened) in (before, after), mode
        reopened.close()
        assert fsck_store(_url(path, scheme), repair=True).exit_code() in (
            0, 1
        )
        reopened = _open(path, scheme)
        assert reopened.verify() == [], mode
        reopened.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_checkpoint_writes_the_snapshot_then_the_head(tmp_path, scheme):
    faults = FaultInjector()
    repo = _open(tmp_path, scheme, faults=faults)
    run = _prepare(repo, "checkpoint")
    faults.reset()
    run()
    assert faults.ops == WRITE_POINTS["checkpoint"]
    assert repo.snapshot_versions(DOC_ID) == [2, 4, 6, 7]
    assert repo.verify() == []
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("crash_after", range(len(WRITE_POINTS["create"])))
def test_every_create_crash_point_recovers(tmp_path, scheme, crash_after):
    _assert_recovers(tmp_path, scheme, "create", crash_after)


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("crash_after", range(len(WRITE_POINTS["commit"])))
def test_every_commit_crash_point_recovers(tmp_path, scheme, crash_after):
    _assert_recovers(tmp_path, scheme, "commit", crash_after)


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize(
    "crash_after", range(len(WRITE_POINTS["checkpoint"]))
)
def test_every_checkpoint_crash_point_recovers(tmp_path, scheme, crash_after):
    _assert_recovers(tmp_path, scheme, "checkpoint", crash_after)


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize(
    "repair, crash_after",
    [
        (repair, crash_after)
        for repair in REPAIRS
        for crash_after in range(len(WRITE_POINTS[repair]))
    ],
)
def test_every_repair_crash_point_recovers(
    tmp_path, scheme, repair, crash_after
):
    _assert_recovers(tmp_path, scheme, repair, crash_after)


# -- (b) a store in the older layout -----------------------------------------


def _old_layout_store(tmp_path, scheme) -> list[bytes]:
    """The pinned history in the older layout; returns its versions."""
    repo = _open(tmp_path, scheme)
    _history(repo)
    committed = _versions(repo)
    to_old_layout(repo.backend, PREFIX)
    # Byte for byte what the code before one head record stored.
    assert _store_digest(repo.backend) == OLD_STORE_SHA256
    repo.close()
    return committed


@pytest.mark.parametrize("scheme", BACKENDS)
def test_an_old_layout_store_reads_verifies_and_migrates(tmp_path, scheme):
    committed = _old_layout_store(tmp_path, scheme)
    repo = _open(tmp_path, scheme)
    assert _versions(repo) == committed
    assert repo.verify() == []
    repo.close()
    assert fsck_store(_url(tmp_path, scheme)).exit_code() == 0

    faults = FaultInjector()
    repo = _open(tmp_path, scheme, faults=faults)
    store = VersionStore(repo)
    store.commit(DOC_ID, parse(VERSIONS[0]))
    assert faults.ops == MIGRATION_OPS
    head = _assert_one_compact_head(repo)
    assert head["current_version"] == len(VERSIONS) + 1
    assert _versions(repo) == committed + [
        serialize_bytes(store.get_version(DOC_ID, len(VERSIONS) + 1))
    ]
    assert repo.verify() == []
    repo.close()


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("crash_after", range(len(MIGRATION_OPS)))
def test_every_migration_crash_point_recovers(tmp_path, scheme, crash_after):
    committed = _old_layout_store(tmp_path, scheme)
    repo = _open(tmp_path, scheme)
    repo.faults = FaultInjector(crash_after=crash_after)
    with pytest.raises(InjectedFault):
        VersionStore(repo).commit(DOC_ID, parse(VERSIONS[0]))
    repo.close()

    reopened = _open(tmp_path, scheme)
    assert reopened.verify() == []
    versions = _versions(reopened)
    assert versions[: len(committed)] == committed
    if len(versions) > len(committed):
        # Rolled forward: one head, and the manifest is gone.
        _assert_one_compact_head(reopened)
    reopened.close()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_checkpoint_migrates_an_old_head(tmp_path, scheme, monkeypatch):
    committed = _old_layout_store(tmp_path, scheme)
    faults = FaultInjector()
    repo = _open(tmp_path, scheme, faults=faults)
    monkeypatch.setattr(
        repository_module, "CHECKPOINT_EVERY", len(VERSIONS) + 1
    )
    store = VersionStore(repo)
    store.commit(DOC_ID, parse(VERSIONS[0]))
    ops = WRITE_POINTS["checkpoint"]
    assert faults.ops == ops[:-1] + [("unlink", "manifest-clear")] + ops[-1:]
    _assert_one_compact_head(repo)
    assert repo.verify() == []
    assert repo.snapshot_versions(DOC_ID) == [2, 4, 6, 7]
    assert _versions(repo) == committed + [
        serialize_bytes(store.get_version(DOC_ID, len(VERSIONS) + 1))
    ]
    repo.close()


# -- (c) an old journal ------------------------------------------------------


@pytest.mark.parametrize("scheme", BACKENDS)
def test_an_old_journal_rolls_forward_into_one_head(tmp_path, scheme):
    committed = _old_layout_store(tmp_path, scheme)
    repo = _open(tmp_path, scheme)
    old_head = repo.backend.get(META_KEY)
    old_manifest = repo.backend.get(MANIFEST_KEY)
    journals = []
    put = repo.backend.put

    def recording_put(key, data, *, label=None):
        if label == "journal":
            journals.append(data)
        return put(key, data, label=label)

    repo.backend.put = recording_put
    VersionStore(repo).commit(DOC_ID, parse(VERSIONS[0]))
    repo.backend.put = put
    new_head = repo.backend.get(META_KEY)
    target = _versions(repo)[-1]
    # Back to where the older code stopped when a crash hit it after
    # current.xml: content landed, its head and manifest not yet, and
    # its journal, which embeds both, in place.
    (journal,) = journals
    repo.backend.put(META_KEY, old_head)
    repo.backend.put(MANIFEST_KEY, old_manifest)
    repo.backend.put(
        layout.key(PREFIX, "journal"),
        layout.encode_record(old_journal(json.loads(journal))),
    )
    repo.close()

    reopened = _open(tmp_path, scheme)
    assert [e.action for e in reopened.recovery_events] == ["rolled-forward"]
    _assert_one_compact_head(reopened)
    assert reopened.backend.get(META_KEY) == new_head
    assert _versions(reopened) == committed + [target]
    assert reopened.verify() == []
    reopened.close()


# -- (d) no cyclic garbage ---------------------------------------------------


def _cycle_garbage(work) -> int:
    """Objects ``work()`` leaves that only the cycle collector frees."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("scheme", BACKENDS)
def test_a_commit_and_a_create_leave_no_cyclic_garbage(tmp_path, scheme):
    repo = _open(tmp_path, scheme)
    store = VersionStore(repo)
    # Warm up: first calls fill caches that outlive them.
    store.create("warm", parse(VERSIONS[0]))
    store.commit("warm", parse(VERSIONS[1]))
    trees = {text: parse(text) for text in VERSIONS[:3]}
    garbage = dict(
        create=_cycle_garbage(
            lambda: store.create(DOC_ID, trees[VERSIONS[0]])
        ),
        commit=_cycle_garbage(
            lambda: store.commit(DOC_ID, trees[VERSIONS[1]])
        ),
        first_commit=_cycle_garbage(
            lambda: store.commit("other", trees[VERSIONS[2]])
        ),
    )
    assert garbage == dict(create=0, commit=0, first_commit=0)
    repo.close()

"""Backend conformance: one contract, proven per backend.

Every test in this module runs against both storage backends
(``file``, ``sqlite``) — the key/value contract, the stable
JSON encoding, batch scopes, and, most importantly, the PR-3 crash
matrix: a commit crashed, torn or EIO'd at *every* I/O boundary must
leave a store that reopens into either the pre- or the post-state with
a clean ``verify()``.  The crash-safety guarantee is stated once,
against the :class:`~repro.storage.backend.StorageBackend` protocol,
and this suite is what makes the statement true per implementation.

CI runs the module twice (one backend per matrix job) by setting
``XYDIFF_BACKENDS``; locally, all backends run in one go.
"""

import contextlib
import json
import os
import sqlite3

import pytest

from repro.storage import (
    FilesystemBackend,
    SQLiteBackend,
    open_backend,
    sha256_bytes,
)
from repro.testing import FaultInjector, InjectedFault, InjectedIOError
from repro.versioning import BackendRepository, fsck_store, layout
from repro.versioning.version_control import VersionStore
from repro.xmlkit import StorageError, parse, serialize_bytes

from tests.versioning.old_layout import to_old_layout

_ALL_BACKENDS = {
    "file": FilesystemBackend,
    "sqlite": SQLiteBackend,
}

#: CI's backend matrix narrows the sweep (XYDIFF_BACKENDS=sqlite);
#: locally every backend runs.
BACKENDS = [
    name.strip()
    for name in os.environ.get(
        "XYDIFF_BACKENDS", "file,sqlite"
    ).split(",")
    if name.strip()
]

V1 = "<doc><a>one one one</a><b>two two two</b></doc>"
V2 = "<doc><a>one (edited)</a><b>two two two</b><c>three</c></doc>"
V3 = "<doc><a>one (edited)</a><c>three three three</c></doc>"

#: The write points of one append, in commit order — identical for
#: every backend (the protocol carries the labels, not the paths).
APPEND_OPS = [
    ("write", "journal"),
    ("write", "delta"),
    ("write", "current"),
    ("write", "meta"),
    ("unlink", "journal-clear"),
]


def _store_path(tmp_path, scheme):
    return str(
        tmp_path / ("store.sqlite" if scheme == "sqlite" else "store")
    )


def _make_backend(tmp_path, scheme, **kwargs):
    return _ALL_BACKENDS[scheme](_store_path(tmp_path, scheme), **kwargs)


@pytest.fixture(params=BACKENDS)
def scheme(request):
    return request.param


@pytest.fixture
def backend(tmp_path, scheme):
    instance = _make_backend(tmp_path, scheme)
    yield instance
    instance.close()


class TestKeyValueContract:
    def test_put_get_roundtrip(self, backend):
        assert backend.put("doc/current.xml", b"<doc/>") is None
        assert backend.get("doc/current.xml") == b"<doc/>"
        assert backend.digest("doc/current.xml") == sha256_bytes(b"<doc/>")

    def test_get_missing_raises_filenotfound(self, backend):
        with pytest.raises(FileNotFoundError):
            backend.get("doc/missing.xml")
        with pytest.raises(FileNotFoundError):
            backend.digest("doc/missing.xml")

    def test_put_overwrites(self, backend):
        backend.put("k", b"old")
        backend.put("k", b"new")
        assert backend.get("k") == b"new"

    def test_exists_and_delete(self, backend):
        assert not backend.exists("doc/meta.json")
        backend.put("doc/meta.json", b"{}")
        assert backend.exists("doc/meta.json")
        backend.delete("doc/meta.json")
        assert not backend.exists("doc/meta.json")
        with pytest.raises(FileNotFoundError):
            backend.get("doc/meta.json")

    def test_list_keys_sorted_with_prefix_scope(self, backend):
        backend.put("b/meta.json", b"1")
        backend.put("a/current.xml", b"2")
        backend.put("a/delta-0001-0002.xml", b"3")
        assert backend.list_keys() == [
            "a/current.xml",
            "a/delta-0001-0002.xml",
            "b/meta.json",
        ]
        assert backend.list_keys("a/") == [
            "a/current.xml",
            "a/delta-0001-0002.xml",
        ]
        assert backend.list_keys("nope/") == []

    def test_put_json_bytes_are_canonical(self, backend):
        # Every record is compact JSON with sorted keys and a trailing
        # newline — identical bytes on every backend, so the checksums
        # a head records are portable.
        for kind in ("meta", "journal"):
            layout.put_record(backend, "doc", kind, {"b": 1, "a": [2, 3]})
            assert backend.get(layout.key("doc", kind)) == (
                b'{"a":[2,3],"b":1}\n'
            )

    def test_batch_scope_makes_writes_visible(self, backend):
        with backend.batch():
            backend.put("doc/a", b"1")
            backend.put("doc/b", b"2")
        assert backend.get("doc/a") == b"1"
        assert backend.get("doc/b") == b"2"

    def test_url_and_location(self, backend, scheme):
        assert backend.url == f"{scheme}://{backend.root}"
        assert isinstance(backend.location("doc/current.xml"), str)
        assert backend.location("doc/current.xml")

    def test_unknown_durability_rejected(self, tmp_path, scheme):
        with pytest.raises(ValueError, match="unknown durability"):
            _make_backend(tmp_path, scheme, durability="paranoid")

    @pytest.mark.parametrize("durability", ["none", "fsync", "full"])
    def test_all_durability_levels_write(self, tmp_path, scheme, durability):
        with _make_backend(tmp_path, scheme, durability=durability) as b:
            b.put("doc/a", b"payload")
            assert b.get("doc/a") == b"payload"

    def test_open_backend_reopens_data(self, tmp_path, scheme, backend):
        backend.put("doc/current.xml", b"<doc/>")
        backend.close()
        with open_backend(f"{scheme}://{backend.root}") as reopened:
            assert reopened.get("doc/current.xml") == b"<doc/>"


class TestSQLiteBatchRollback:
    """Transactionality beyond the shared contract: SQLite only."""

    def test_exception_rolls_the_batch_back(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "s.sqlite"))
        backend.put("keep", b"1")
        with pytest.raises(RuntimeError):
            with backend.batch():
                backend.put("gone", b"2")
                raise RuntimeError("boom")
        assert backend.exists("keep")
        assert not backend.exists("gone")
        backend.close()


def _repo_at(tmp_path, scheme, faults=None):
    repo = BackendRepository(_make_backend(tmp_path, scheme, faults=faults))
    return repo, VersionStore(repo)


def _reopen(tmp_path, scheme):
    return BackendRepository(_make_backend(tmp_path, scheme))


class TestAppendProbe:
    def test_append_write_points_are_identical(self, tmp_path, scheme):
        """Every backend sees the same five operations in the same order
        — the crash matrix below covers each of them everywhere."""
        faults = FaultInjector()
        repo, store = _repo_at(tmp_path, scheme, faults=faults)
        store.create("doc", parse(V1))
        faults.reset()
        store.commit("doc", parse(V2))
        assert faults.ops == APPEND_OPS
        repo.close()


class TestCrashMatrix:
    @pytest.mark.parametrize("crash_after", range(len(APPEND_OPS)))
    def test_every_crash_point_recovers(self, tmp_path, scheme, crash_after):
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        pre_bytes = serialize_bytes(repo.load_current("doc", readonly=True))

        repo.faults = FaultInjector(crash_after=crash_after)
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        repo.close()

        # "reboot": a fresh process opens the same store and recovery
        # runs in the constructor.
        reopened = _reopen(tmp_path, scheme)
        assert reopened.verify() == []
        version = reopened.current_version("doc")
        assert version in (2, 3)
        if version == 2:
            current = serialize_bytes(
                reopened.load_current("doc", readonly=True)
            )
            assert current == pre_bytes
        else:
            assert VersionStore(reopened).verify_integrity("doc")
        # either way the store accepts new commits afterwards.
        VersionStore(reopened).commit("doc", parse(V3))
        assert reopened.verify() == []
        reopened.close()


class TestTornWrites:
    @pytest.mark.parametrize("label", ["journal", "delta"])
    def test_torn_before_current_rolls_back(self, tmp_path, scheme, label):
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        pre_bytes = serialize_bytes(repo.load_current("doc", readonly=True))
        repo.faults = FaultInjector(crash_after=0, label=label, mode="torn")
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        repo.close()
        reopened = _reopen(tmp_path, scheme)
        assert reopened.verify() == []
        assert reopened.current_version("doc") == 2
        assert (
            serialize_bytes(reopened.load_current("doc", readonly=True))
            == pre_bytes
        )
        reopened.close()

    @pytest.mark.parametrize("label", ["meta"])
    def test_torn_metadata_rolls_forward(self, tmp_path, scheme, label):
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        repo.faults = FaultInjector(crash_after=0, label=label, mode="torn")
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        repo.close()
        reopened = _reopen(tmp_path, scheme)
        assert [e.action for e in reopened.recovery_events] == [
            "rolled-forward"
        ]
        assert reopened.verify() == []
        assert reopened.current_version("doc") == 3
        reopened.close()

    def test_torn_current_replays_from_checkpoint(
        self, tmp_path, scheme, monkeypatch
    ):
        monkeypatch.setattr("repro.versioning.repository.CHECKPOINT_EVERY", 2)
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))  # checkpoint at version 2
        pre_bytes = serialize_bytes(repo.load_current("doc", readonly=True))
        repo.faults = FaultInjector(
            crash_after=0, label="current", mode="torn"
        )
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        repo.close()
        reopened = _reopen(tmp_path, scheme)
        assert [e.action for e in reopened.recovery_events] == [
            "rolled-back-replay"
        ]
        assert reopened.verify() == []
        assert reopened.current_version("doc") == 2
        assert (
            serialize_bytes(reopened.load_current("doc", readonly=True))
            == pre_bytes
        )
        reopened.close()

    def test_torn_current_without_checkpoint_is_reported(
        self, tmp_path, scheme
    ):
        repo, store = _repo_at(tmp_path, scheme)  # no checkpoints
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        repo.faults = FaultInjector(
            crash_after=0, label="current", mode="torn"
        )
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        repo.close()
        reopened = _reopen(tmp_path, scheme)
        assert [e.action for e in reopened.recovery_events] == [
            "unrecoverable"
        ]
        kinds = {finding.kind for finding in reopened.verify()}
        assert "torn-commit" in kinds
        reopened.close()
        # repair cannot conjure the lost bytes either: exit code 2,
        # routed through the store-URL front door.
        report = fsck_store(
            f"{scheme}://{_store_path(tmp_path, scheme)}", repair=True
        )
        assert report.exit_code() == 2
        assert all(f.scheme == scheme for f in report.findings)


class TestEio:
    def test_eio_surfaces_and_store_recovers(self, tmp_path, scheme):
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        repo.faults = FaultInjector(crash_after=0, label="meta", mode="eio")
        with pytest.raises(InjectedIOError):
            store.commit("doc", parse(V2))
        repo.close()
        reopened = _reopen(tmp_path, scheme)
        assert reopened.verify() == []
        version = reopened.current_version("doc")
        actions = [e.action for e in reopened.recovery_events]
        if version == 2:
            # journal survived the failed write: rolled forward.
            assert actions == ["rolled-forward"]
        else:
            # a transactional backend rolled the whole commit back
            # natively — nothing to recover.
            assert version == 1
            assert actions == []
        VersionStore(reopened).commit("doc", parse(V3))
        assert reopened.verify() == []
        reopened.close()


class TestCrashDuringCreate:
    def test_crash_mid_create_leaves_no_document(self, tmp_path, scheme):
        repo, store = _repo_at(
            tmp_path, scheme, faults=FaultInjector(crash_after=1)
        )
        with pytest.raises(InjectedFault):
            store.create("doc", parse(V1))
        repo.close()
        # meta.json never landed, so the document does not exist (a
        # transactional backend may have rolled the whole create back;
        # a file-based one leaves a repairable half-document).
        reopened = _reopen(tmp_path, scheme)
        assert not reopened.exists("doc")
        assert {f.kind for f in reopened.verify()} <= {
            "incomplete-document"
        }
        reopened.close()
        url = f"{scheme}://{_store_path(tmp_path, scheme)}"
        assert fsck_store(url, repair=True).exit_code() in (0, 1)
        assert fsck_store(url).exit_code() == 0
        # the slot is reusable afterwards.
        retry = _reopen(tmp_path, scheme)
        VersionStore(retry).create("doc", parse(V1))
        assert retry.current_version("doc") == 1
        retry.close()


class TestManifestFallback:
    """A head without checksums reads them from ``manifest.json``:
    missing is a store older than checksums, corrupt is damage."""

    def test_missing_manifest_regenerates_silently(self, tmp_path, scheme):
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        to_old_layout(repo.backend, "doc", manifest=False)
        # commits still work (pre-manifest stores stay writable)...
        store.commit("doc", parse(V2))
        assert repo.current_version("doc") == 2
        repo.close()

    def test_corrupt_manifest_raises_with_location(self, tmp_path, scheme):
        from repro.versioning import CorruptStoreError

        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        to_old_layout(repo.backend, "doc")
        repo.backend.put("doc/manifest.json", b"{not json")
        with pytest.raises(CorruptStoreError) as info:
            store.commit("doc", parse(V2))
        assert info.value.path == repo.backend.location(
            "doc/manifest.json"
        )
        repo.close()


class TestCrossBackendReplay:
    def test_delta_chains_are_byte_identical(self, tmp_path):
        """The same commit history produces the same bytes — current,
        every delta, every reconstructed version — on every backend."""
        if len(BACKENDS) < 2:
            pytest.skip("backend matrix narrowed to one backend")
        versions = [V1, V2, V3]
        stored: dict[str, dict] = {}
        for scheme in BACKENDS:
            repo, store = _repo_at(tmp_path / scheme, scheme)
            store.create("doc", parse(versions[0]))
            for text in versions[1:]:
                store.commit("doc", parse(text))
            stored[scheme] = {
                "values": {
                    key: repo.backend.get(key)
                    for key in repo.backend.list_keys("doc/")
                },
                "replayed": [
                    serialize_bytes(store.get_version("doc", i))
                    for i in range(1, len(versions) + 1)
                ],
            }
            repo.close()
        baseline = stored[BACKENDS[0]]
        for scheme in BACKENDS[1:]:
            assert stored[scheme]["values"] == baseline["values"]
            assert stored[scheme]["replayed"] == baseline["replayed"]


def _make_unreadable(tmp_path, scheme, key):
    """Leave ``key`` listed but unreadable.

    On ``file`` a directory takes the file's place.  On ``sqlite`` the
    ``kv`` table loses its ``data`` column, so keys still list but no
    value reads or writes.
    """
    path = _store_path(tmp_path, scheme)
    if scheme == "file":
        target = os.path.join(path, *key.split("/"))
        os.remove(target)
        os.mkdir(target)
        return
    with contextlib.closing(sqlite3.connect(path)) as db:
        db.execute("ALTER TABLE kv RENAME COLUMN data TO gone")
        db.commit()


class TestUnreadableValues:
    """A value that exists but cannot be read is a storage error, never
    a missing key."""

    def test_reads_and_writes_raise_storage_error(self, tmp_path, scheme):
        backend = _make_backend(tmp_path, scheme)
        backend.put("doc/delta-0001-0002.xml", b"<delta/>")
        _make_unreadable(tmp_path, scheme, "doc/delta-0001-0002.xml")
        calls = [
            lambda: backend.get("doc/delta-0001-0002.xml"),
            lambda: backend.digest("doc/delta-0001-0002.xml"),
            lambda: backend.size("doc/delta-0001-0002.xml"),
            lambda: backend.put("doc/delta-0001-0002.xml", b"<new/>"),
        ]
        if scheme == "file":
            calls.append(lambda: backend.delete("doc/delta-0001-0002.xml"))
        for call in calls:
            with pytest.raises(StorageError) as info:
                call()
            assert not isinstance(info.value, FileNotFoundError)
            assert backend.url in str(info.value)
        if scheme == "file":
            # Beside it, a key that is really absent still reads so.
            with pytest.raises(FileNotFoundError):
                backend.get("doc/missing.xml")
        backend.close()

    def test_verify_and_reads_do_not_take_it_for_missing(
        self, tmp_path, scheme
    ):
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        store.commit("doc", parse(V3))
        repo.close()
        _make_unreadable(tmp_path, scheme, "doc/delta-0001-0002.xml")
        reopened = _reopen(tmp_path, scheme)
        with pytest.raises(StorageError):
            VersionStore(reopened).get_version("doc", 1)
        if scheme == "file":
            kinds = {f.kind for f in reopened.verify()}
            assert kinds == {"unreadable-file"}
        else:
            # The whole store fails: its metadata cannot be read.
            with pytest.raises(StorageError):
                reopened.verify()
        reopened.close()
        url = f"{scheme}://{_store_path(tmp_path, scheme)}"
        if scheme == "file":
            report = fsck_store(url, repair=True)
            assert report.exit_code() == 2
            assert report.repaired == []
            assert os.path.isdir(
                os.path.join(_store_path(tmp_path, scheme), "doc",
                             "delta-0001-0002.xml")
            )

    def test_recovery_keeps_a_journal_it_cannot_decide(
        self, tmp_path, scheme
    ):
        repo, store = _repo_at(tmp_path, scheme)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        # Tear the delta after the journal landed (SQLite commits both):
        # recovery has to read current.xml to choose a direction.
        repo.faults = FaultInjector(crash_after=1, mode="torn")
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        repo.close()
        _make_unreadable(tmp_path, scheme, "doc/current.xml")
        reopened = _reopen(tmp_path, scheme)
        assert [e.action for e in reopened.recovery_events] == [
            "unrecoverable"
        ]
        assert "doc/journal.json" in reopened.backend.list_keys("doc/")
        reopened.close()

    def test_a_directory_in_place_of_the_meta_is_not_cleaned_up(
        self, tmp_path
    ):
        repo, store = _repo_at(tmp_path, "file")
        store.create("doc", parse(V1))
        repo.close()
        _make_unreadable(tmp_path, "file", "doc/meta.json")
        reopened = _reopen(tmp_path, "file")
        assert [f.kind for f in reopened.verify()] == ["unreadable-file"]
        reopened.close()
        report = fsck_store(f"file://{_store_path(tmp_path, 'file')}",
                            repair=True)
        assert report.exit_code() == 2 and report.repaired == []
        assert os.path.exists(
            os.path.join(_store_path(tmp_path, "file"), "doc", "current.xml")
        )

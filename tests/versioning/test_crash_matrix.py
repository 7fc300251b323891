"""Crash matrix: every I/O boundary of a commit leaves a usable store.

``DirectoryRepository.append`` is a compound operation — six storage
operations in a fixed order (journal, delta, current, manifest, meta,
journal removal).  These tests crash it at *every* boundary and prove
the invariant the journal protocol promises: after reopening the store,
either the commit never happened (pre-state, byte-identical) or it
fully happened (post-state, metadata consistent) — and ``verify()``
finds nothing to complain about.
"""

import pytest

from repro.testing import FaultInjector, InjectedFault, InjectedIOError
from repro.versioning import DirectoryRepository, fsck_store
from repro.versioning.version_control import VersionStore
from repro.xmlkit import parse

V1 = "<doc><a>one one one</a><b>two two two</b></doc>"
V2 = "<doc><a>one (edited)</a><b>two two two</b><c>three</c></doc>"
V3 = "<doc><a>one (edited)</a><c>three three three</c></doc>"

#: The write points of one append, in commit order.
APPEND_OPS = [
    ("write", "journal"),
    ("write", "delta"),
    ("write", "current"),
    ("write", "manifest"),
    ("write", "meta"),
    ("unlink", "journal-clear"),
]


def _store_at(path, faults=None, checkpoint_every=None):
    repo = DirectoryRepository(path, faults=faults)
    return repo, VersionStore(repo, checkpoint_every=checkpoint_every)


def _current_bytes(path):
    with open(path / "doc" / "current.xml", "rb") as handle:
        return handle.read()


class TestProbe:
    def test_append_write_points(self, tmp_path):
        """The matrix below walks exactly these operations."""
        faults = FaultInjector()
        repo, store = _store_at(tmp_path / "s", faults=faults)
        store.create("doc", parse(V1))
        faults.reset()
        store.commit("doc", parse(V2))
        assert faults.ops == APPEND_OPS


class TestCrashMatrix:
    @pytest.mark.parametrize("crash_after", range(len(APPEND_OPS)))
    def test_every_crash_point_recovers(self, tmp_path, crash_after):
        path = tmp_path / "store"
        repo, store = _store_at(path)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        pre_bytes = _current_bytes(path)

        repo.faults = FaultInjector(crash_after=crash_after)
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))

        # "reboot": a fresh process opens the same directory and the
        # constructor runs journal recovery.
        reopened = DirectoryRepository(path)
        assert reopened.verify() == []
        version = reopened.current_version("doc")
        if crash_after <= 2:
            # crash before current.xml was replaced: the commit must
            # have vanished without a trace.
            assert version == 2
            assert _current_bytes(path) == pre_bytes
        else:
            # all content landed: recovery completes the commit.
            assert version == 3
            # the pre-commit version is still reconstructible by
            # walking the delta chain backward.
            reopened_store = VersionStore(reopened)
            assert reopened_store.verify_integrity("doc")
        # either way the store accepts new commits afterwards.
        VersionStore(reopened).commit("doc", parse(V3))
        assert reopened.verify() == []

    @pytest.mark.parametrize("crash_after", range(len(APPEND_OPS)))
    def test_crash_point_recovery_actions(self, tmp_path, crash_after):
        """Recovery resolves each prefix with the expected action."""
        path = tmp_path / "store"
        repo, store = _store_at(path)
        store.create("doc", parse(V1))
        repo.faults = FaultInjector(crash_after=crash_after)
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V2))
        events = DirectoryRepository(path).recovery_events
        if crash_after == 0:
            # the journal itself never landed: nothing to recover.
            assert events == []
        elif crash_after <= 2:
            assert [event.action for event in events] == ["rolled-back"]
        else:
            assert [event.action for event in events] == ["rolled-forward"]


class TestTornWrites:
    @pytest.mark.parametrize("label", ["journal", "delta"])
    def test_torn_before_current_rolls_back(self, tmp_path, label):
        path = tmp_path / "store"
        repo, store = _store_at(path)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        pre_bytes = _current_bytes(path)
        repo.faults = FaultInjector(crash_after=0, label=label, mode="torn")
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        reopened = DirectoryRepository(path)
        assert reopened.verify() == []
        assert reopened.current_version("doc") == 2
        assert _current_bytes(path) == pre_bytes

    @pytest.mark.parametrize("label", ["manifest", "meta"])
    def test_torn_metadata_rolls_forward(self, tmp_path, label):
        path = tmp_path / "store"
        repo, store = _store_at(path)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        repo.faults = FaultInjector(crash_after=0, label=label, mode="torn")
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        reopened = DirectoryRepository(path)
        assert [e.action for e in reopened.recovery_events] == [
            "rolled-forward"
        ]
        assert reopened.verify() == []
        assert reopened.current_version("doc") == 3

    def test_torn_current_replays_from_checkpoint(self, tmp_path):
        """The worst tear hits current.xml itself; with a checkpoint the
        pre-commit content is re-derived by replaying the delta chain."""
        path = tmp_path / "store"
        repo, store = _store_at(path, checkpoint_every=2)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))  # checkpoint at version 2
        pre_bytes = _current_bytes(path)
        repo.faults = FaultInjector(crash_after=0, label="current", mode="torn")
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        assert _current_bytes(path) != pre_bytes  # really torn
        reopened = DirectoryRepository(path)
        assert [e.action for e in reopened.recovery_events] == [
            "rolled-back-replay"
        ]
        assert reopened.verify() == []
        assert reopened.current_version("doc") == 2
        assert _current_bytes(path) == pre_bytes

    def test_torn_current_without_checkpoint_is_reported(self, tmp_path):
        """No checkpoint to replay from: recovery is honest about it and
        verify/fsck keep flagging the document instead of guessing."""
        path = tmp_path / "store"
        repo, store = _store_at(path)  # no checkpoints
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        repo.faults = FaultInjector(crash_after=0, label="current", mode="torn")
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        reopened = DirectoryRepository(path)
        assert [e.action for e in reopened.recovery_events] == [
            "unrecoverable"
        ]
        kinds = {finding.kind for finding in reopened.verify()}
        assert "torn-commit" in kinds
        # repair cannot conjure the lost bytes either: exit code 2.
        assert fsck_store(path, repair=True).exit_code() == 2


class TestEio:
    def test_eio_surfaces_and_store_recovers(self, tmp_path):
        path = tmp_path / "store"
        repo, store = _store_at(path)
        store.create("doc", parse(V1))
        repo.faults = FaultInjector(crash_after=0, label="meta", mode="eio")
        with pytest.raises(InjectedIOError):
            store.commit("doc", parse(V2))
        # unlike a crash the process lives on; an explicit recover()
        # (or a reopen) completes the interrupted commit.
        reopened = DirectoryRepository(path)
        assert [e.action for e in reopened.recovery_events] == [
            "rolled-forward"
        ]
        assert reopened.verify() == []
        assert reopened.current_version("doc") == 2


class TestCrashDuringCreate:
    def test_crash_before_meta_leaves_removable_directory(self, tmp_path):
        path = tmp_path / "store"
        repo, store = _store_at(
            path, faults=FaultInjector(crash_after=1, label=None)
        )
        with pytest.raises(InjectedFault):
            store.create("doc", parse(V1))
        # meta.json never landed, so the document does not exist...
        reopened = DirectoryRepository(path)
        assert not reopened.exists("doc")
        # ...but the half-created directory is flagged and repairable.
        kinds = [finding.kind for finding in reopened.verify()]
        assert kinds == ["incomplete-document"]
        report = fsck_store(path, repair=True)
        assert report.exit_code() == 1
        assert fsck_store(path).exit_code() == 0


class TestJournalFormat:
    """The journal is written compact; an indented one still recovers."""

    def _torn_commit(self, path, crash_after):
        repo, store = _store_at(path)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        repo.faults = FaultInjector(crash_after=crash_after)
        with pytest.raises(InjectedFault):
            store.commit("doc", parse(V3))
        return path / "doc" / "journal.json"

    def test_journal_is_compact_json(self, tmp_path):
        journal = self._torn_commit(tmp_path / "store", 1)
        text = journal.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert ", " not in text and '": ' not in text

    @pytest.mark.parametrize(
        "crash_after, action, version",
        [(2, "rolled-back", 2), (4, "rolled-forward", 3)],
    )
    def test_an_indented_journal_recovers(
        self, tmp_path, crash_after, action, version
    ):
        import json

        path = tmp_path / "store"
        journal = self._torn_commit(path, crash_after)
        # The form stores wrote before the journal went compact.
        payload = json.loads(journal.read_text(encoding="utf-8"))
        journal.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        reopened = DirectoryRepository(path)
        assert [e.action for e in reopened.recovery_events] == [action]
        assert reopened.verify() == []
        assert reopened.current_version("doc") == version
        assert not journal.exists()
        assert VersionStore(reopened).get_version("doc", version).deep_equal(
            parse(V3 if version == 3 else V2)
        )

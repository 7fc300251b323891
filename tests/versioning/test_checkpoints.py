"""Tests for snapshot checkpointing in the version store."""

import pytest

from repro.versioning import DirectoryRepository, VersionStore
from repro.xmlkit import parse
from repro.xmlkit.errors import RepositoryError


def versions(count):
    return [f"<d><v>{i}</v><pad>some padding text</pad></d>" for i in range(count)]


@pytest.fixture(params=["memory", "directory"])
def repository(request, tmp_path):
    if request.param == "memory":
        return VersionStore().repository
    return DirectoryRepository(tmp_path / "repo")


class TestCheckpointing:
    def test_checkpoints_created_on_schedule(self, repository):
        store = VersionStore(repository, checkpoint_every=3)
        texts = versions(10)
        store.create("d", parse(texts[0]))
        for text in texts[1:]:
            store.commit("d", parse(text))
        assert repository.snapshot_versions("d") == [3, 6, 9]

    def test_every_version_still_reconstructs(self, repository):
        store = VersionStore(repository, checkpoint_every=3)
        texts = versions(10)
        store.create("d", parse(texts[0]))
        for text in texts[1:]:
            store.commit("d", parse(text))
        for number, text in enumerate(texts, start=1):
            assert store.get_version("d", number).deep_equal(parse(text)), (
                f"version {number}"
            )

    def test_checkpoint_xids_match_chain_reconstruction(self, repository):
        from repro.core import xid_index

        store = VersionStore(repository, checkpoint_every=2)
        texts = versions(6)
        store.create("d", parse(texts[0]))
        for text in texts[1:]:
            store.commit("d", parse(text))
        # reconstruct version 4 via the checkpoint and via the full chain
        via_checkpoint = store.get_version("d", 4)
        # force chain reconstruction by walking backward from current
        current = store.get_current("d")
        from repro.core import apply_backward

        document = current
        for base in range(store.current_version("d") - 1, 3, -1):
            document = apply_backward(
                store.delta("d", base), document, in_place=True
            )
        assert via_checkpoint.deep_equal(document)
        assert {
            xid for xid in xid_index(via_checkpoint)
        } == {xid for xid in xid_index(document)}

    def test_no_checkpoints_by_default(self, repository):
        store = VersionStore(repository)
        texts = versions(5)
        store.create("d", parse(texts[0]))
        for text in texts[1:]:
            store.commit("d", parse(text))
        assert repository.snapshot_versions("d") == []

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            VersionStore(checkpoint_every=0)

    def test_changes_between_still_exact(self, repository):
        from repro.core import apply_delta

        store = VersionStore(repository, checkpoint_every=2)
        texts = versions(7)
        store.create("d", parse(texts[0]))
        for text in texts[1:]:
            store.commit("d", parse(text))
        combined = store.changes_between("d", 2, 6)
        v2 = store.get_version("d", 2)
        v6 = store.get_version("d", 6)
        assert apply_delta(combined, v2, verify=True).deep_equal(v6)

    def test_directory_snapshot_files_exist(self, tmp_path):
        repository = DirectoryRepository(tmp_path / "repo")
        store = VersionStore(repository, checkpoint_every=2)
        texts = versions(4)
        store.create("d", parse(texts[0]))
        for text in texts[1:]:
            store.commit("d", parse(text))
        assert (tmp_path / "repo" / "d" / "snapshot-0002.xml").exists()
        assert (tmp_path / "repo" / "d" / "snapshot-0004.xml").exists()

    def test_reconstruction_walk_is_shorter_with_checkpoints(self, repository):
        """Behavioural check: asking for a version right below a
        checkpoint must not touch earlier deltas."""
        store = VersionStore(repository, checkpoint_every=5)
        texts = versions(12)
        store.create("d", parse(texts[0]))
        for text in texts[1:]:
            store.commit("d", parse(text))

        touched = []
        original = store.repository.load_delta

        def tracking_load(doc_id, base):
            touched.append(base)
            return original(doc_id, base)

        store.repository.load_delta = tracking_load
        store.get_version("d", 9)
        store.repository.load_delta = original
        # nearest checkpoint above 9 is 10: only delta 9 should be replayed
        assert touched == [9]


def committed_store(repository, count, checkpoint_every):
    store = VersionStore(repository, checkpoint_every=checkpoint_every)
    texts = versions(count)
    store.create("d", parse(texts[0]))
    for text in texts[1:]:
        store.commit("d", parse(text))
    return store, texts


def walk(store, version):
    """(document, delta bases loaded, stored states loaded) of one read."""
    repository = store.repository
    touched, starts = [], []
    original_delta = repository.load_delta
    original_current = repository.load_current
    original_snapshot = repository.load_snapshot

    def load_delta(doc_id, base):
        touched.append(base)
        return original_delta(doc_id, base)

    def load_current(doc_id, readonly=False):
        starts.append("current")
        return original_current(doc_id, readonly=readonly)

    def load_snapshot(doc_id, checkpoint):
        starts.append(checkpoint)
        return original_snapshot(doc_id, checkpoint)

    repository.load_delta = load_delta
    repository.load_current = load_current
    repository.load_snapshot = load_snapshot
    try:
        document = store.get_version("d", version)
    finally:
        del repository.load_delta
        del repository.load_current
        del repository.load_snapshot
    return document, touched, starts


class TestMaterializeWalk:
    """Which stored state a read starts from, and how far it walks."""

    def test_version_above_checkpoint_replays_forward(self, repository):
        store, texts = committed_store(repository, 12, checkpoint_every=5)
        document, touched, starts = walk(store, 6)
        # checkpoint 5 is one delta away: forward over delta 5->6 only
        assert starts == [5]
        assert touched == [5]
        assert document.deep_equal(parse(texts[5]))

    def test_tie_goes_to_the_higher_start(self, repository):
        store, texts = committed_store(repository, 12, checkpoint_every=4)
        # checkpoints 4 and 8 are both two deltas from version 6
        document, touched, starts = walk(store, 6)
        assert starts == [8]
        assert touched == [7, 6]
        assert document.deep_equal(parse(texts[5]))

    def test_current_wins_over_checkpoint_of_same_version(self, repository):
        store, texts = committed_store(repository, 10, checkpoint_every=5)
        document, touched, starts = walk(store, 10)
        assert starts == ["current"]
        assert touched == []
        assert document.deep_equal(parse(texts[9]))

    def test_stored_checkpoint_returned_without_replay(self, repository):
        store, texts = committed_store(repository, 12, checkpoint_every=5)
        document, touched, starts = walk(store, 5)
        assert starts == [5]
        assert touched == []
        assert document.deep_equal(parse(texts[4]))

    def test_unloadable_checkpoint_falls_back_to_next_nearest(self, tmp_path):
        store, texts = committed_store(
            DirectoryRepository(tmp_path / "repo"), 12, checkpoint_every=5
        )
        (tmp_path / "repo" / "d" / "snapshot-0005.xml").unlink()
        document, touched, starts = walk(store, 6)
        # checkpoint 5 is gone: checkpoint 10 is next, four deltas back
        assert starts == [5, 10]
        assert touched == [9, 8, 7, 6]
        assert document.deep_equal(parse(texts[5]))

    def test_out_of_range_version_rejected(self, repository):
        store, _ = committed_store(repository, 3, checkpoint_every=2)
        for version in (0, 4):
            with pytest.raises(RepositoryError, match="versions 1..3"):
                store.get_version("d", version)

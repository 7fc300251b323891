"""Tests for the VersionStore commit/reconstruct/aggregate pipeline."""

import pytest

from repro.versioning import VersionStore, open_repository
from repro.xmlkit import RepositoryError, parse


VERSIONS = [
    "<doc><a>one</a><b>two</b></doc>",
    "<doc><a>one!</a><b>two</b><c>three</c></doc>",
    "<doc><b>two</b><c>three</c></doc>",
    "<doc><c>three</c><b>two?</b></doc>",
]


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return VersionStore()
    return VersionStore(open_repository(tmp_path / "repo"))


def populate(store):
    store.create("d", parse(VERSIONS[0]))
    for text in VERSIONS[1:]:
        store.commit("d", parse(text))
    return store


class TestCommitAndReconstruct:
    def test_version_numbers_advance(self, store):
        populate(store)
        assert store.current_version("d") == len(VERSIONS)

    def test_every_version_reconstructs(self, store):
        populate(store)
        for number, text in enumerate(VERSIONS, start=1):
            reconstructed = store.get_version("d", number)
            assert reconstructed.deep_equal(parse(text)), f"version {number}"

    def test_current_equals_last(self, store):
        populate(store)
        assert store.get_current("d").deep_equal(parse(VERSIONS[-1]))

    def test_version_out_of_range(self, store):
        populate(store)
        with pytest.raises(RepositoryError):
            store.get_version("d", 0)
        with pytest.raises(RepositoryError):
            store.get_version("d", len(VERSIONS) + 1)

    def test_commit_returns_delta_with_versions(self, store):
        store.create("d", parse(VERSIONS[0]))
        delta = store.commit("d", parse(VERSIONS[1]))
        assert delta.base_version == 1
        assert delta.target_version == 2
        assert not delta.is_empty()

    def test_identical_commit_yields_empty_delta(self, store):
        store.create("d", parse(VERSIONS[0]))
        delta = store.commit("d", parse(VERSIONS[0]))
        assert delta.is_empty()
        assert store.current_version("d") == 2

    def test_integrity_check(self, store):
        populate(store)
        assert store.verify_integrity("d")


class TestChangesBetween:
    def test_aggregated_equals_replayed(self, store):
        populate(store)
        combined = store.changes_between("d", 1, 4)
        from repro.core import apply_delta

        v1 = store.get_version("d", 1)
        v4 = store.get_version("d", 4)
        assert apply_delta(combined, v1, verify=True).deep_equal(v4)

    def test_backward_direction_is_inverse(self, store):
        populate(store)
        forward = store.changes_between("d", 2, 4)
        backward = store.changes_between("d", 4, 2)
        assert backward == forward.inverted()

    def test_same_version_is_empty(self, store):
        populate(store)
        assert store.changes_between("d", 2, 2).is_empty()

    def test_version_metadata(self, store):
        populate(store)
        combined = store.changes_between("d", 1, 3)
        assert combined.base_version == 1
        assert combined.target_version == 3


class TestHooks:
    def test_on_commit_callback(self):
        seen = []
        store = VersionStore(
            on_commit=lambda doc_id, delta, new: seen.append(
                (doc_id, delta.summary())
            )
        )
        store.create("d", parse(VERSIONS[0]))
        store.commit("d", parse(VERSIONS[1]))
        assert len(seen) == 1
        assert seen[0][0] == "d"
        assert seen[0][1]  # something changed

    def test_multiple_documents_independent(self, store):
        store.create("x", parse("<x><v>1</v></x>"))
        store.create("y", parse("<y><v>9</v></y>"))
        store.commit("x", parse("<x><v>2</v></x>"))
        assert store.current_version("x") == 2
        assert store.current_version("y") == 1
        assert sorted(store.document_ids()) == ["x", "y"]


class TestDefaultStore:
    def test_default_and_file_stores_write_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        """The default store is the file store's code on another backend:
        every delta and every materialized version serializes to the
        same bytes."""
        from repro.core.deltaxml import serialize_delta
        from repro.simulator import (
            GeneratorConfig,
            SimulatorConfig,
            generate_document,
            simulate_changes,
        )
        from repro.xmlkit.serializer import serialize_bytes

        monkeypatch.setattr(
            "repro.versioning.repository.CHECKPOINT_EVERY", 2
        )
        default = VersionStore()
        on_disk = VersionStore(open_repository(tmp_path / "repo"))
        document = generate_document(GeneratorConfig(target_nodes=80, seed=7))
        for store in (default, on_disk):
            store.create("doc", document)
        for step in range(5):
            document = simulate_changes(
                document, SimulatorConfig(0.1, 0.15, 0.1, 0.05, seed=step)
            ).new_document
            for store in (default, on_disk):
                store.commit("doc", document)

        assert default.current_version("doc") == 6
        assert [serialize_delta(d) for d in default.deltas("doc")] == [
            serialize_delta(d) for d in on_disk.deltas("doc")
        ]
        for version in range(1, 7):
            assert serialize_bytes(default.get_version("doc", version)) == (
                serialize_bytes(on_disk.get_version("doc", version))
            ), f"version {version}"
        default.repository.close()
        on_disk.repository.close()

"""Tests for the default (in-memory SQLite) and directory repositories."""

import pytest

from repro.core import XidAllocator, assign_initial_xids, diff, max_xid
from repro.versioning import DirectoryRepository, VersionStore
from repro.xmlkit import RepositoryError, parse, postorder


def labelled(text):
    doc = parse(text)
    allocator = assign_initial_xids(doc)
    return doc, allocator


@pytest.fixture(params=["memory", "directory"])
def repository(request, tmp_path):
    if request.param == "memory":
        return VersionStore().repository
    return DirectoryRepository(tmp_path / "repo")


class TestRepositoryContract:
    def test_create_and_load(self, repository):
        doc, allocator = labelled("<a><b>x</b></a>")
        repository.create("d1", doc, allocator)
        assert repository.exists("d1")
        assert repository.current_version("d1") == 1
        loaded = repository.load_current("d1")
        assert loaded.deep_equal(doc)

    def test_xids_survive_storage(self, repository):
        doc, allocator = labelled("<a><b>x</b></a>")
        repository.create("d1", doc, allocator)
        loaded = repository.load_current("d1")
        original = [n.xid for n in postorder(doc) if n is not doc]
        restored = [n.xid for n in postorder(loaded) if n is not loaded]
        assert restored == original

    def test_allocator_persisted(self, repository):
        doc, allocator = labelled("<a><b>x</b></a>")
        allocator.reserve(99)
        repository.create("d1", doc, allocator)
        assert repository.load_allocator("d1").next_xid == 100

    def test_duplicate_create_rejected(self, repository):
        doc, allocator = labelled("<a/>")
        repository.create("d1", doc, allocator)
        with pytest.raises(RepositoryError):
            repository.create("d1", doc, allocator)

    def test_unknown_document(self, repository):
        with pytest.raises(RepositoryError):
            repository.load_current("ghost")
        with pytest.raises(RepositoryError):
            repository.current_version("ghost")

    def test_append_and_load_delta(self, repository):
        old, allocator = labelled("<a><b>x</b></a>")
        repository.create("d1", old, allocator)
        new = parse("<a><b>y</b></a>")
        delta = diff(old, new, allocator=allocator)
        repository.append("d1", delta, new, allocator)
        assert repository.current_version("d1") == 2
        assert repository.load_delta("d1", 1) == delta
        assert repository.load_current("d1").deep_equal(new)

    def test_missing_delta(self, repository):
        doc, allocator = labelled("<a/>")
        repository.create("d1", doc, allocator)
        with pytest.raises(RepositoryError):
            repository.load_delta("d1", 1)

    def test_document_ids_sorted(self, repository):
        for name in ("zeta", "alpha", "mid"):
            doc, allocator = labelled("<a/>")
            repository.create(name, doc, allocator)
        assert repository.document_ids() == ["alpha", "mid", "zeta"]

    def test_loaded_document_is_private_copy(self, repository):
        doc, allocator = labelled("<a><b>x</b></a>")
        repository.create("d1", doc, allocator)
        loaded = repository.load_current("d1")
        loaded.root.children[0].children[0].value = "mutated"
        again = repository.load_current("d1")
        assert again.root.children[0].children[0].value == "x"


class TestDirectorySpecifics:
    def test_files_on_disk(self, tmp_path):
        repo = DirectoryRepository(tmp_path / "store")
        doc, allocator = labelled("<a><b>x</b></a>")
        repo.create("doc-1", doc, allocator)
        new = parse("<a><b>y</b></a>")
        delta = diff(doc, new, allocator=allocator)
        repo.append("doc-1", delta, new, allocator)
        doc_dir = tmp_path / "store" / "doc-1"
        assert (doc_dir / "current.xml").exists()
        assert (doc_dir / "meta.json").exists()
        assert (doc_dir / "delta-0001-0002.xml").exists()

    def test_doc_id_sanitization(self, tmp_path):
        repo = DirectoryRepository(tmp_path / "store")
        doc, allocator = labelled("<a/>")
        repo.create("http://example.com/page?id=1", doc, allocator)
        assert repo.exists("http://example.com/page?id=1")
        assert repo.document_ids() == ["http://example.com/page?id=1"]

    def test_reopen_from_disk(self, tmp_path):
        path = tmp_path / "store"
        repo = DirectoryRepository(path)
        doc, allocator = labelled("<a><b>x</b></a>")
        repo.create("d1", doc, allocator)
        # a brand-new handle over the same directory sees everything
        reopened = DirectoryRepository(path)
        assert reopened.exists("d1")
        assert reopened.load_current("d1").deep_equal(doc)

    def test_id_attributes_roundtrip(self, tmp_path):
        repo = DirectoryRepository(tmp_path / "store")
        doc = parse("<a><b k='1'/></a>", id_attributes={("b", "k")})
        allocator = assign_initial_xids(doc)
        repo.create("d1", doc, allocator)
        assert repo.load_current("d1").id_attributes == {("b", "k")}

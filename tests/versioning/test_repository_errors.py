"""Corruption and misuse handling in the directory repository."""

import json

import pytest

from repro.versioning import VersionStore, open_repository
from repro.xmlkit import RepositoryError, StorageError, parse


def make_repo(tmp_path):
    repo = open_repository(tmp_path / "store")
    VersionStore(repo).create("d1", parse("<a><b>x</b></a>"))
    return repo


class TestCorruption:
    def test_corrupt_meta_json(self, tmp_path):
        from repro.versioning import CorruptStoreError

        repo = make_repo(tmp_path)
        meta_path = tmp_path / "store" / "d1" / "meta.json"
        meta_path.write_text("{not json")
        with pytest.raises(CorruptStoreError) as info:
            repo.load_current("d1")
        # the typed error names the offending file
        assert info.value.path == str(meta_path)
        # CorruptStoreError stays a RepositoryError: one catch suffices
        assert isinstance(info.value, RepositoryError)

    def test_corrupt_delta_file(self, tmp_path):
        from repro.core import DiffConfig, diff
        from repro.versioning import CorruptStoreError

        repo = make_repo(tmp_path)
        old = repo.load_current("d1")
        new = parse("<a><b>y</b></a>")
        delta = diff(old, new, DiffConfig())
        repo.append("d1", delta, new, repo.load_allocator("d1"))
        delta_path = tmp_path / "store" / "d1" / "delta-0001-0002.xml"
        delta_path.write_text("<delta truncated")
        with pytest.raises(CorruptStoreError) as info:
            repo.load_delta("d1", 1)
        assert info.value.path == str(delta_path)

    def test_unknown_document_stays_plain_repository_error(self, tmp_path):
        from repro.versioning import CorruptStoreError

        repo = make_repo(tmp_path)
        with pytest.raises(RepositoryError) as info:
            repo.load_current("missing")
        assert not isinstance(info.value, CorruptStoreError)

    def test_xid_labels_length_mismatch(self, tmp_path):
        repo = make_repo(tmp_path)
        meta_path = tmp_path / "store" / "d1" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["xid_labels"] = [1]  # wrong length
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RepositoryError):
            repo.load_current("d1")

    def test_missing_xid_labels_falls_back_to_postorder(self, tmp_path):
        repo = make_repo(tmp_path)
        meta_path = tmp_path / "store" / "d1" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["xid_labels"]
        meta_path.write_text(json.dumps(meta))
        loaded = repo.load_current("d1")
        assert loaded.root.xid is not None  # postorder fallback

    def test_unlabelled_snapshot_rejected_on_store(self, tmp_path, monkeypatch):
        from repro.core import Delta

        repo = make_repo(tmp_path)
        doc = parse("<a/>")  # no XIDs
        keys = repo.backend.list_keys()
        with pytest.raises(RepositoryError, match="lack XIDs"):
            repo.append("d1", Delta([]), doc, repo.load_allocator("d1"))
        # Every version a checkpoint: the snapshot's write is refused too.
        monkeypatch.setattr("repro.versioning.repository.CHECKPOINT_EVERY", 1)
        with pytest.raises(RepositoryError, match="lack XIDs"):
            repo.append("d1", Delta([]), doc, repo.load_allocator("d1"))
        assert repo.backend.list_keys() == keys
        assert repo.current_version("d1") == 1

    def test_load_missing_delta(self, tmp_path):
        repo = make_repo(tmp_path)
        with pytest.raises(RepositoryError):
            repo.load_delta("d1", 7)

    def test_reads_probe_for_existence_only_after_a_miss(self, tmp_path):
        from repro.core import diff

        repo = make_repo(tmp_path)
        old = repo.load_current("d1")
        new = parse("<a><b>y</b></a>")
        allocator = repo.load_allocator("d1")
        repo.append("d1", diff(old, new, allocator=allocator), new, allocator)
        probes = []
        exists = repo.backend.exists

        def counting_exists(key):
            probes.append(key)
            return exists(key)

        repo.backend.exists = counting_exists
        repo.load_current("d1")
        repo.load_delta("d1", 1)
        assert probes == []
        with pytest.raises(RepositoryError, match="unknown document 'nope'"):
            repo.load_current("nope")
        with pytest.raises(RepositoryError, match="no delta 7->8 for 'd1'"):
            repo.load_delta("d1", 7)
        with pytest.raises(RepositoryError, match="unknown document 'nope'"):
            repo.load_delta("nope", 1)
        # The metadata read tells the errors apart: reads never probe.
        assert probes == []


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro.xmlkit.errors import (
            ApplyError,
            DeltaError,
            DtdError,
            PathError,
            ReproError,
            RepositoryError,
            XmlParseError,
            XmlSerializeError,
        )

        for error_type in (
            ApplyError,
            DeltaError,
            DtdError,
            PathError,
            RepositoryError,
            XmlParseError,
            XmlSerializeError,
        ):
            assert issubclass(error_type, ReproError)
        # ApplyError is a DeltaError (a delta that does not fit)
        assert issubclass(ApplyError, DeltaError)

    def test_parse_error_location_formatting(self):
        from repro.xmlkit.errors import XmlParseError

        error = XmlParseError("boom", line=3, column=14)
        assert "line 3" in str(error)
        assert "column 14" in str(error)
        assert XmlParseError("x").line is None
        bare = XmlParseError("just line", line=9)
        assert "line 9" in str(bare)


class TestSQLiteErrorsOnAnOpenStore:
    """A ``sqlite3.Error`` after the store opened is one StorageError, a
    RepositoryError that callers can tell from an unknown document."""

    @staticmethod
    def _store_then_drop_kv(tmp_path):
        import sqlite3

        from repro.versioning import VersionStore, open_repository

        path = tmp_path / "store.db"
        store = VersionStore(open_repository(f"sqlite://{path}"))
        store.create("doc", parse("<a><b>x</b></a>"))
        other = sqlite3.connect(path)
        other.execute("DROP TABLE kv")
        other.commit()
        other.close()
        return store, f"sqlite://{path}"

    def test_commit_after_the_table_is_dropped(self, tmp_path):
        store, url = self._store_then_drop_kv(tmp_path)
        with pytest.raises(StorageError) as info:
            store.commit("doc", parse("<a><b>y</b></a>"))
        assert str(info.value) == f"store {url!r}: no such table: kv"
        assert isinstance(info.value, RepositoryError)
        store.repository.close()

    @pytest.mark.parametrize(
        "call",
        [
            lambda backend: backend.get("doc/meta.json"),
            lambda backend: backend.put("doc/x", b"x"),
            lambda backend: backend.delete("doc/x"),
            lambda backend: backend.exists("doc/x"),
            lambda backend: backend.size("doc/meta.json"),
            lambda backend: backend.list_keys(),
            lambda backend: backend.list_keys("doc/"),
        ],
        ids=["get", "put", "delete", "exists", "size", "list_keys",
             "list_keys-prefix"],
    )
    def test_every_primitive_names_the_store(self, tmp_path, call):
        store, url = self._store_then_drop_kv(tmp_path)
        with pytest.raises(StorageError) as info:
            call(store.repository.backend)
        assert str(info.value).startswith(f"store {url!r}: ")
        store.repository.close()

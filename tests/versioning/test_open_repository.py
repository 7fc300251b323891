"""``open_repository``, the one store-URL front door.

Every store-URL spelling must resolve to the layout that is actually on
disk, a store URL takes no query parameters, and a store written by the
removed shard router or the removed blob backend is refused before
anything is read or created.
"""

import os

import pytest

from repro.cli import main
from repro.storage import SQLiteBackend, open_backend
from repro.versioning import (
    BackendRepository,
    DirectoryRepository,
    VersionStore,
    open_repository,
)
from repro.xmlkit import parse
from repro.xmlkit.errors import RepositoryError

DOC = "<doc><a>one one one</a><b>two two two</b></doc>"


def _tree(root):
    """Every file under ``root`` with its bytes."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


class TestOpenRepository:
    def test_url_forms_resolve_to_matching_repositories(self, tmp_path):
        cases = [
            (f"file://{tmp_path / 'a'}", DirectoryRepository),
            (f"sqlite://{tmp_path / 'b.sqlite'}", BackendRepository),
        ]
        for url, expected_type in cases:
            repo = open_repository(url)
            assert isinstance(repo, expected_type)
            VersionStore(repo).create("doc", parse(DOC))
            repo.close()

    def test_bare_paths_are_sniffed(self, tmp_path):
        layouts = {
            "file": lambda p: DirectoryRepository(p),
            "sqlite": lambda p: BackendRepository(SQLiteBackend(str(p))),
        }
        for name, build in layouts.items():
            path = tmp_path / (
                f"{name}-store.sqlite" if name == "sqlite" else f"{name}-store"
            )
            seeded = build(path)
            VersionStore(seeded).create("doc", parse(DOC))
            seeded.close()
            repo = open_repository(str(path), must_exist=True)
            assert repo.exists("doc")
            assert repo.backend.scheme == name
            repo.close()

    def test_repository_instances_pass_through(self, tmp_path):
        repo = DirectoryRepository(tmp_path / "store")
        assert open_repository(repo) is repo
        repo.close()

    def test_must_exist_refuses_to_create(self, tmp_path):
        with pytest.raises(RepositoryError, match="does not exist"):
            open_repository(str(tmp_path / "nope"), must_exist=True)
        with pytest.raises(RepositoryError, match="does not exist"):
            open_repository(f"sqlite://{tmp_path / 'nope.sqlite'}",
                            must_exist=True)
        assert not os.path.exists(tmp_path / "nope.sqlite")

    def test_store_urls_take_no_query_parameters(self, tmp_path):
        url = f"sqlite://{tmp_path / 'x.sqlite'}?shards=2"
        with pytest.raises(RepositoryError, match="no query parameters"):
            open_repository(url)
        with pytest.raises(RepositoryError, match="no query parameters"):
            open_backend(url)
        assert os.listdir(tmp_path) == []

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(RepositoryError, match="unknown store scheme"):
            open_repository(f"tape://{tmp_path / 'x'}")


class TestShardedStoresAreRefused:
    @pytest.fixture()
    def sharded_root(self, tmp_path):
        """A store as the removed shard router laid it out: a marker
        file and one directory store per shard."""
        root = tmp_path / "warehouse"
        for index in range(2):
            repo = DirectoryRepository(root / f"shard-{index:03d}")
            VersionStore(repo).create(f"doc-{index}", parse(DOC))
            repo.close()
        (root / "shard.json").write_text(
            '{"backend": "file", "schema": "repro.shard/1", "shards": 2}\n'
        )
        return root

    @pytest.mark.parametrize("query", ["", "?shards=4&backend=sqlite"])
    def test_shard_url_is_refused_and_creates_nothing(self, tmp_path, query):
        target = tmp_path / "new-store"
        with pytest.raises(RepositoryError, match="shard router was removed"):
            open_repository(f"shard://{target}{query}")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("spelling", ["{root}", "file://{root}"])
    def test_sharded_directory_is_refused_untouched(
        self, sharded_root, spelling
    ):
        before = _tree(sharded_root)
        with pytest.raises(RepositoryError, match="shard router was removed"):
            open_repository(spelling.format(root=sharded_root))
        assert _tree(sharded_root) == before

    def test_fsck_refuses_a_sharded_directory_untouched(
        self, sharded_root, capsys
    ):
        before = _tree(sharded_root)
        assert main(["fsck", str(sharded_root), "--repair"]) == 1
        assert "shard router was removed" in capsys.readouterr().err
        assert _tree(sharded_root) == before


class TestBlobStoresAreRefused:
    @pytest.fixture()
    def blob_root(self, tmp_path):
        """A store as the removed blob backend laid it out: a marker
        file, ref files naming each key's object, and the objects
        under a two-level fan-out."""
        root = tmp_path / "cas"
        digest = "ab" * 32
        (root / "refs" / "doc").mkdir(parents=True)
        (root / "refs" / "doc" / "current.xml").write_text(digest + "\n")
        objects = root / "objects" / digest[:2] / digest[2:4]
        objects.mkdir(parents=True)
        (objects / digest).write_bytes(DOC.encode())
        (objects / (digest + ".refs")).write_text("1\n")
        (root / "blob.json").write_text('{\n  "schema": "repro.blob/1"\n}\n')
        return root

    def test_blob_url_is_refused_and_creates_nothing(self, tmp_path):
        with pytest.raises(RepositoryError, match="blob backend was removed"):
            open_repository(f"blob://{tmp_path / 'new-store'}")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("spelling", ["{root}", "file://{root}"])
    def test_blob_directory_is_refused_untouched(self, blob_root, spelling):
        before = _tree(blob_root)
        with pytest.raises(RepositoryError, match="blob backend was removed"):
            open_repository(spelling.format(root=blob_root))
        assert _tree(blob_root) == before

    def test_fsck_refuses_a_blob_directory_untouched(self, blob_root, capsys):
        before = _tree(blob_root)
        assert main(["fsck", str(blob_root), "--repair"]) == 1
        assert "blob backend was removed" in capsys.readouterr().err
        assert _tree(blob_root) == before

"""The sharded router and the ``open_repository`` store-URL front door.

Routing must be a pure function of the document id (stable across
processes and platforms), lookups must keep working while a store is
mid-rebalance, per-shard locks must let commits on different shards
interleave safely, and every store-URL spelling must resolve to the
layout that is actually on disk.
"""

import json
import os
import threading

import pytest

from repro.simulator import (
    GeneratorConfig,
    SimulatorConfig,
    generate_document,
    simulate_changes,
)
from repro.storage import BlobStoreBackend, SQLiteBackend
from repro.versioning import (
    BackendRepository,
    DirectoryRepository,
    ShardedRepository,
    VersionStore,
    fsck_store,
    open_repository,
)
from repro.versioning.sharded import _shard_index
from repro.xmlkit import parse, serialize_bytes
from repro.xmlkit.errors import RepositoryError

DOC = "<doc><a>one one one</a><b>two two two</b></doc>"
DOC2 = "<doc><a>one (edited)</a><b>two two two</b><c>three</c></doc>"


#: A 400-document warehouse and its per-shard counts at 4 shards.
WAREHOUSE_IDS = [f"doc-{i:06d}" for i in range(400)]
WAREHOUSE_COUNTS = [105, 107, 87, 101]


def _shard_counts(doc_ids, shards):
    counts = [0] * shards
    for doc_id in doc_ids:
        counts[_shard_index(doc_id, shards)] += 1
    return counts


def _populate(repo, count=12):
    store = VersionStore(repo)
    for i in range(count):
        store.create(f"doc-{i:03d}", parse(DOC))
    return store


class TestRouting:
    def test_routing_is_deterministic_and_pinned(self):
        # sha256-based: a change to these values strands every document
        # of every existing sharded store on the wrong shard.
        assert [_shard_index(f"doc-{i:03d}", 4) for i in range(6)] == [
            3, 2, 3, 3, 2, 2
        ]
        assert _shard_counts(WAREHOUSE_IDS, 4) == WAREHOUSE_COUNTS
        # Fullest minus emptiest shard over the ideal share: 20% skew.
        spread = max(WAREHOUSE_COUNTS) - min(WAREHOUSE_COUNTS)
        assert 100.0 * spread / (len(WAREHOUSE_IDS) / 4) == 20.0
        assert 0 <= _shard_index("anything", 7) < 7

    def test_documents_land_on_their_home_shard(self, tmp_path):
        repo = ShardedRepository(tmp_path / "warehouse", shards=4)
        _populate(repo)
        for doc_id in repo.document_ids():
            home = repo.shard_of(doc_id)
            assert repo.shard_repo(home).exists(doc_id)
        # every shard sees some of a 12-document population, and the
        # aggregate view is the sorted union.
        per_shard = [
            repo.shard_repo(i).document_count() for i in range(4)
        ]
        assert sum(per_shard) == 12
        assert repo.document_count() == 12
        assert repo.document_ids() == sorted(
            f"doc-{i:03d}" for i in range(12)
        )
        repo.close()

    def test_shard_repo_rejects_bad_index(self, tmp_path):
        repo = ShardedRepository(tmp_path / "warehouse", shards=2)
        with pytest.raises(RepositoryError, match="no shard"):
            repo.shard_repo(None)
        with pytest.raises(RepositoryError, match="no shard"):
            repo.shard_repo(2)
        repo.close()


class TestMarker:
    def test_marker_written_and_reopen_ignores_defaults(self, tmp_path):
        root = tmp_path / "warehouse"
        ShardedRepository(root, shards=3, backend_scheme="sqlite").close()
        with open(root / "shard.json", encoding="utf-8") as handle:
            marker = json.load(handle)
        assert marker == {
            "schema": "repro.shard/1",
            "shards": 3,
            "backend": "sqlite",
        }
        # reopening without parameters adopts the marker's config
        reopened = ShardedRepository(root)
        assert reopened.shards == 3
        assert reopened.backend_scheme == "sqlite"
        reopened.close()

    def test_mismatched_parameters_are_rejected(self, tmp_path):
        root = tmp_path / "warehouse"
        ShardedRepository(root, shards=3).close()
        with pytest.raises(RepositoryError, match="has 3 shards"):
            ShardedRepository(root, shards=5)
        with pytest.raises(RepositoryError, match="'file' backend"):
            ShardedRepository(root, backend_scheme="blob")

    def test_unknown_backend_scheme_rejected(self, tmp_path):
        with pytest.raises(RepositoryError, match="unknown backend"):
            ShardedRepository(tmp_path / "w", backend_scheme="tape")

    def test_corrupt_marker_rejected(self, tmp_path):
        root = tmp_path / "warehouse"
        os.makedirs(root)
        (root / "shard.json").write_text("{broken")
        with pytest.raises(RepositoryError, match="corrupt shard marker"):
            ShardedRepository(root)


@pytest.mark.parametrize("backend_scheme", ["file", "sqlite", "blob"])
class TestCommitReadCycle:
    def test_full_cycle_on_every_backend(self, tmp_path, backend_scheme):
        repo = ShardedRepository(
            tmp_path / "warehouse", shards=3, backend_scheme=backend_scheme
        )
        store = _populate(repo, count=6)
        store.commit("doc-002", parse(DOC2))
        assert repo.current_version("doc-002") == 2
        assert repo.current_version("doc-001") == 1
        assert serialize_bytes(
            store.get_version("doc-002", 1)
        ) == serialize_bytes(repo.shard_repo(
            repo.shard_of("doc-001")
        ).load_current("doc-001", readonly=True))
        assert repo.verify() == []
        repo.close()
        # a fresh handle sees the same state
        reopened = open_repository(str(tmp_path / "warehouse"))
        assert isinstance(reopened, ShardedRepository)
        assert reopened.current_version("doc-002") == 2
        assert reopened.verify() == []
        reopened.close()


class TestVerifyAndFsck:
    def test_findings_carry_their_shard(self, tmp_path):
        root = tmp_path / "warehouse"
        repo = ShardedRepository(root, shards=4)
        _populate(repo)
        victim = repo.document_ids()[0]
        index = repo.shard_of(victim)
        shard = repo.shard_repo(index)
        shard.backend.delete(shard._doc_key(victim) + "/manifest.json")
        findings = repo.verify()
        assert findings
        assert {f.shard for f in findings} == {index}
        assert {f.kind for f in findings} == {"missing-manifest"}
        assert {f.scheme for f in findings} == {"file"}
        repo.close()

    def test_warehouse_ingest_verifies_clean(self, tmp_path):
        """400 small documents, every 16th revisited by a diff commit,
        land where routing says and verify without a finding.  SQLite
        only, to keep the suite fast: the file and blob backends verify
        clean in ``test_full_cycle_on_every_backend``."""
        masters = [
            generate_document(GeneratorConfig(target_nodes=40, seed=91 + i))
            for i in range(32)
        ]
        repo = ShardedRepository(
            tmp_path / "warehouse", shards=4, backend_scheme="sqlite"
        )
        store = VersionStore(repo)
        for i, doc_id in enumerate(WAREHOUSE_IDS):
            store.create(doc_id, masters[i % 32])
        for i in range(0, len(WAREHOUSE_IDS), 16):
            update = simulate_changes(
                masters[i % 32],
                SimulatorConfig(0.05, 0.10, 0.05, 0.05, seed=191 + i % 32),
            ).new_document
            store.commit(WAREHOUSE_IDS[i], update)
        counts = [repo.shard_repo(i).document_count() for i in range(4)]
        assert counts == WAREHOUSE_COUNTS
        assert repo.verify() == []
        repo.close()

    def test_fsck_routes_repairs_to_the_right_shard(self, tmp_path):
        root = tmp_path / "warehouse"
        repo = ShardedRepository(root, shards=4, backend_scheme="sqlite")
        _populate(repo)
        victim = repo.document_ids()[3]
        shard = repo.shard_repo(repo.shard_of(victim))
        shard.backend.delete(shard._doc_key(victim) + "/manifest.json")
        repo.close()
        url = f"shard://{root}"
        assert fsck_store(url).exit_code() == 2
        assert fsck_store(url, repair=True).exit_code() == 1
        assert fsck_store(url).exit_code() == 0


class TestRebalance:
    def test_store_stays_readable_mid_rebalance_then_converges(
        self, tmp_path
    ):
        root = tmp_path / "warehouse"
        repo = ShardedRepository(root, shards=2)
        store = _populate(repo)
        store.commit("doc-004", parse(DOC2))
        before = {
            doc_id: serialize_bytes(repo.load_current(doc_id, readonly=True))
            for doc_id in repo.document_ids()
        }
        repo.close()

        # grow the store: edit the marker, reopen, rebalance.
        marker_path = root / "shard.json"
        marker = json.loads(marker_path.read_text())
        marker["shards"] = 5
        marker_path.write_text(json.dumps(marker) + "\n")

        grown = ShardedRepository(root)
        assert grown.shards == 5
        # BEFORE rebalancing every document is still findable (home
        # shard misses, the scan finds it) and readable.
        for doc_id, payload in before.items():
            assert grown.exists(doc_id)
            assert (
                serialize_bytes(grown.load_current(doc_id, readonly=True))
                == payload
            )
        moved = grown.rebalance()
        assert moved > 0
        # ...and afterwards everything sits on its home shard with
        # identical bytes, history intact.
        for doc_id, payload in before.items():
            home = grown.shard_of(doc_id)
            assert grown.shard_repo(home).exists(doc_id)
            assert (
                serialize_bytes(grown.load_current(doc_id, readonly=True))
                == payload
            )
        assert grown.current_version("doc-004") == 2
        assert serialize_bytes(
            VersionStore(grown).get_version("doc-004", 1)
        ) == before["doc-000"]
        assert grown.verify() == []
        assert grown.rebalance() == 0  # idempotent
        grown.close()


class TestConcurrency:
    def test_parallel_commits_across_shards(self, tmp_path):
        repo = ShardedRepository(tmp_path / "warehouse", shards=4)
        store = _populate(repo, count=16)
        errors = []

        def worker(doc_id):
            try:
                store.commit(doc_id, parse(DOC2))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((doc_id, exc))

        threads = [
            threading.Thread(target=worker, args=(f"doc-{i:03d}",))
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert all(
            repo.current_version(f"doc-{i:03d}") == 2 for i in range(16)
        )
        assert repo.verify() == []
        repo.close()


class TestOpenRepository:
    def test_url_forms_resolve_to_matching_repositories(self, tmp_path):
        cases = [
            (f"file://{tmp_path / 'a'}", DirectoryRepository),
            (f"sqlite://{tmp_path / 'b.sqlite'}", BackendRepository),
            (f"blob://{tmp_path / 'c'}", BackendRepository),
            (f"shard://{tmp_path / 'd'}?shards=2", ShardedRepository),
        ]
        for url, expected_type in cases:
            repo = open_repository(url)
            assert type(repo) is expected_type or isinstance(
                repo, expected_type
            )
            VersionStore(repo).create("doc", parse(DOC))
            repo.close()

    def test_bare_paths_are_sniffed(self, tmp_path):
        layouts = {
            "file": lambda p: DirectoryRepository(p),
            "sqlite": lambda p: BackendRepository(SQLiteBackend(str(p))),
            "blob": lambda p: BackendRepository(BlobStoreBackend(str(p))),
            "shard": lambda p: ShardedRepository(p, shards=2),
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
            if name == "shard":
                assert isinstance(repo, ShardedRepository)
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
        # a plain directory is not a sharded store
        os.makedirs(tmp_path / "plain")
        with pytest.raises(RepositoryError, match="not a sharded store"):
            open_repository(f"shard://{tmp_path / 'plain'}", must_exist=True)

    def test_params_only_valid_on_shard_urls(self, tmp_path):
        with pytest.raises(RepositoryError, match="only valid with shard"):
            open_repository(f"sqlite://{tmp_path / 'x.sqlite'}?shards=2")

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(RepositoryError, match="unknown store scheme"):
            open_repository(f"tape://{tmp_path / 'x'}")

"""Store-health collector tests across backends and layouts."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.storewatch import (
    SCHEMA,
    chain_bucket,
    collect_store_stats,
    publish_store_metrics,
    render_store_stats,
)
from repro.versioning.repository import open_repository
from repro.versioning.version_control import VersionStore
from repro.xmlkit.parser import parse


def _grow(store, doc_id, versions):
    store.create(doc_id, parse(f"<doc><p>{doc_id} v1</p></doc>"))
    for version in range(2, versions + 1):
        store.commit(doc_id, parse(f"<doc><p>{doc_id} v{version}</p></doc>"))


@pytest.fixture()
def file_repo(tmp_path):
    repository = open_repository(f"file://{tmp_path}/store")
    store = VersionStore(repository=repository)
    for index, versions in enumerate((1, 2, 3, 5)):
        _grow(store, f"doc-{index}", versions)
    yield repository
    repository.close()


def test_chain_bucket_labels():
    assert [chain_bucket(n) for n in (0, 1, 2, 3)] == ["0", "1", "2", "3"]
    assert chain_bucket(4) == "4-7"
    assert chain_bucket(7) == "4-7"
    assert chain_bucket(8) == "8-15"
    assert chain_bucket(100) == "64-127"


def test_collect_counts_versions_and_chains(file_repo):
    report = collect_store_stats(file_repo)
    assert report["schema"] == SCHEMA
    assert report["backend"] == "file"
    assert not {"sharded", "shards", "shard_balance"} & report.keys()
    assert report["documents"] == 4
    assert report["unreadable_documents"] == 0
    assert report["versions"] == 1 + 2 + 3 + 5
    assert report["deltas"] == 0 + 1 + 2 + 4
    # chains: 0, 1, 2, 4
    assert report["chain"]["max"] == 4
    assert report["chain"]["histogram"] == {
        "0": 1, "1": 1, "2": 1, "4-7": 1,
    }
    assert report["chain"]["mean"] == pytest.approx((0 + 1 + 2 + 4) / 4)


def test_bytes_by_kind_accounts_every_key(file_repo):
    report = collect_store_stats(file_repo)
    by_kind = report["bytes_by_kind"]
    assert by_kind["snapshot"] > 0  # current.xml per document
    assert by_kind["delta"] > 0
    assert by_kind["meta"] > 0  # the head record, meta.json
    assert report["bytes_total"] == sum(by_kind.values())
    # The walk must agree with the backend's own accounting.
    backend = file_repo.backend
    expected = sum(backend.size(key) for key in backend.list_keys())
    assert report["bytes_total"] == expected


def test_checkpoint_coverage_and_staleness(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.versioning.repository.CHECKPOINT_EVERY", 4)
    repository = open_repository(f"file://{tmp_path}/ck")
    store = VersionStore(repository=repository)
    _grow(store, "plain", 3)  # no checkpoint: staleness 3 - 1 = 2
    # Checkpoint at the head version: staleness 0.
    _grow(store, "marked", 4)
    report = collect_store_stats(repository)
    repository.close()
    checkpoints = report["checkpoints"]
    assert checkpoints["documents_with_checkpoint"] == 1
    assert checkpoints["coverage"] == pytest.approx(0.5)
    assert checkpoints["max_staleness"] == 2
    assert checkpoints["mean_staleness"] == pytest.approx(1.0)


def test_corrupt_meta_is_counted_not_raised(file_repo):
    file_repo.backend.put("doc-1/meta.json", b"{not json", label="meta")
    report = collect_store_stats(file_repo, per_document=True)
    assert report["documents"] == 4
    assert report["unreadable_documents"] == 1
    # The corrupt doc contributes bytes but no chain/version figures.
    assert report["versions"] == 1 + 3 + 5
    detail = {entry["doc_id"]: entry for entry in report["documents_detail"]}
    assert detail["doc-1"]["versions"] is None
    assert detail["doc-1"]["bytes"] > 0


def test_per_document_detail(file_repo):
    report = collect_store_stats(file_repo, per_document=True)
    detail = report["documents_detail"]
    assert [entry["doc_id"] for entry in detail] == sorted(
        entry["doc_id"] for entry in detail
    )
    by_id = {entry["doc_id"]: entry for entry in detail}
    assert by_id["doc-3"]["versions"] == 5
    assert sum(entry["bytes"] for entry in detail) == report["bytes_total"]


def test_file_store_has_no_dedup_block(file_repo):
    assert "dedup" not in collect_store_stats(file_repo)


def test_default_store_is_counted():
    store = VersionStore()
    _grow(store, "doc-1", 3)
    _grow(store, "doc-2", 1)
    report = collect_store_stats(store.repository)
    assert report["backend"] == "sqlite"
    assert report["documents"] == 2
    assert report["versions"] == 4
    assert report["deltas"] == 2
    store.repository.close()


def test_publish_store_metrics_gauges(file_repo):
    report = collect_store_stats(file_repo, label="main")
    registry = MetricsRegistry()
    publish_store_metrics(report, registry)
    assert registry.gauge("repro_store_documents").value(store="main") == 4
    assert registry.gauge("repro_store_versions").value(store="main") == 11
    assert (
        registry.gauge("repro_store_bytes").value(store="main", kind="delta")
        == report["bytes_by_kind"]["delta"]
    )
    assert (
        registry.gauge("repro_store_chain_length_max").value(store="main")
        == 4
    )


def test_render_and_json_round_trip(file_repo):
    report = collect_store_stats(file_repo)
    text = render_store_stats(report)
    assert "documents: 4" in text
    assert "chain length: max=4" in text
    # The report must be JSON-serializable as-is (the /statz body).
    assert json.loads(json.dumps(report)) == report


def test_label_overrides_store_field(file_repo):
    assert collect_store_stats(file_repo, label="main")["store"] == "main"

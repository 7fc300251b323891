"""End-to-end test of the Figure 1 architecture.

A crawler feeds weekly versions of documents into the version store;
the diff runs on commit; the alerter consumes the deltas through the
store's ``on_commit`` hook; every version reads back from the chain.
This mirrors the whole Xyleme change-control loop on simulated web data.
"""

import pytest

from repro.core import apply_delta
from repro.simulator import (
    SimulatorConfig,
    generate_catalog,
    simulate_changes,
)
from repro.versioning import (
    Alerter,
    Subscription,
    VersionStore,
    open_repository,
)


@pytest.fixture(params=["memory", "directory"])
def pipeline(request, tmp_path):
    alerter = Alerter()
    alerter.register(Subscription("new-products", "//product"))
    alerter.register(
        Subscription("price-changes", "//price/#text", kinds=("update",))
    )
    alerts = []

    def on_commit(doc_id, delta, new_document):
        alerts.extend(alerter.process(delta, new_document, doc_id=doc_id))

    repository = (
        None
        if request.param == "memory"
        else open_repository(tmp_path / "warehouse")
    )
    store = VersionStore(repository=repository, on_commit=on_commit)
    return store, alerts


def weekly_versions(seed, weeks=4):
    versions = [generate_catalog(products=15, categories=3, seed=seed)]
    for week in range(weeks):
        result = simulate_changes(
            versions[-1],
            SimulatorConfig(0.05, 0.15, 0.08, 0.04, seed=seed * 100 + week),
        )
        versions.append(result.new_document)
    return versions


class TestWarehousePipeline:
    def test_full_loop(self, pipeline):
        store, alerts = pipeline
        versions = weekly_versions(seed=3)
        store.create("catalog", versions[0])
        for version in versions[1:]:
            store.commit("catalog", version)

        # 1. every version reconstructs bit-exact
        for number, version in enumerate(versions, start=1):
            assert store.get_version("catalog", number).deep_equal(version)

        # 2. the store's own integrity check passes
        assert store.verify_integrity("catalog")

        # 3. alerts flowed (documents of this size always change)
        assert alerts, "no alerts over four weeks of changes"
        assert {a.doc_id for a in alerts} == {"catalog"}

    def test_cross_version_changes_apply(self, pipeline):
        store, _ = pipeline
        versions = weekly_versions(seed=7)
        store.create("catalog", versions[0])
        for version in versions[1:]:
            store.commit("catalog", version)
        combined = store.changes_between("catalog", 1, len(versions))
        v1 = store.get_version("catalog", 1)
        v_last = store.get_version("catalog", len(versions))
        assert apply_delta(combined, v1, verify=True).deep_equal(v_last)

    def test_multiple_documents(self, pipeline):
        store, _ = pipeline
        for seed in (21, 22):
            versions = weekly_versions(seed=seed, weeks=2)
            doc_id = f"cat-{seed}"
            store.create(doc_id, versions[0])
            for version in versions[1:]:
                store.commit(doc_id, version)
        assert len(store.document_ids()) == 2
        for doc_id in store.document_ids():
            assert store.verify_integrity(doc_id)

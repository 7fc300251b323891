"""Tracing and metrics through the version store and site diff."""

from repro import MetricsRegistry, Tracer, parse
from repro.versioning.repository import DirectoryRepository
from repro.versioning.sitediff import SiteSnapshot, diff_sites
from repro.versioning.version_control import VersionStore

V1 = "<doc><title>report</title><body>first draft</body></doc>"
V2 = "<doc><title>report</title><body>second draft</body></doc>"
V3 = "<doc><title>report</title><body>third draft</body><x>new</x></doc>"


def _span_names(span):
    return [span.name] + [
        name for child in span.children for name in _span_names(child)
    ]


class TestVersionStoreTracing:
    def test_commit_span_nests_engine_and_stage_spans(self):
        tracer = Tracer()
        store = VersionStore(tracer=tracer)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        names = [root.name for root in tracer.roots]
        assert names == ["store.create", "store.commit"]
        commit = tracer.roots[1]
        assert commit.attrs == {"doc_id": "doc", "base_version": 1}
        flat = _span_names(commit)
        assert "engine:buld" in flat
        assert "stage:annotate" in flat and "stage:build-delta" in flat

    def test_commit_span_duration_covers_engine_span(self):
        tracer = Tracer()
        store = VersionStore(tracer=tracer)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        commit = tracer.roots[1]
        engine = next(
            child for child in commit.children if child.name == "engine:buld"
        )
        assert engine.duration <= commit.duration

    def test_commit_metrics(self):
        metrics = MetricsRegistry()
        store = VersionStore(metrics=metrics)
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        store.commit("doc", parse(V3))
        assert metrics.get("repro_commits_total").value(engine="buld") == 2
        # 2 commits x 5 BULD stages feed the histogram
        assert (
            metrics.get("repro_stage_seconds").sample_count(stage="annotate")
            == 2
        )

    def test_untraced_store_keeps_tracer_none(self):
        store = VersionStore()
        store.create("doc", parse(V1))
        store.commit("doc", parse(V2))
        assert store.tracer is None and store.metrics is None


class TestDirectoryRepositoryTracing:
    def test_every_load_current_reads_current_xml(self, tmp_path):
        tracer = Tracer()
        repository = DirectoryRepository(tmp_path, tracer=tracer)
        store = VersionStore(repository=repository, tracer=tracer)
        store.create("doc", parse(V1))
        reads = []
        get = repository.backend.get

        def recording_get(key):
            reads.append(key)
            return get(key)

        repository.backend.get = recording_get
        store.commit("doc", parse(V2))
        store.commit("doc", parse(V3))
        repository.load_current("doc", readonly=True)
        commits = [r for r in tracer.roots if r.name == "store.commit"]
        for commit in commits:
            child_names = [child.name for child in commit.children]
            assert "repo.load-current" in child_names
            assert "repo.append" in child_names
        loads = [r for r in tracer.roots if r.name == "repo.load-current"]
        loads += [
            child
            for commit in commits
            for child in commit.children
            if child.name == "repo.load-current"
        ]
        # The repository keeps no tree between calls: the two commits and
        # the direct read each parse the stored current.xml.
        assert len(loads) == 3
        assert reads.count("doc/current.xml") == 3


class TestSiteDiffTracing:
    def _snapshots(self):
        old = SiteSnapshot()
        old.add("a.xml", parse(V1))
        old.add("b.xml", parse("<p>same</p>"))
        new = SiteSnapshot()
        new.add("a.xml", parse(V2))
        new.add("b.xml", parse("<p>same</p>"))
        new.add("c.xml", parse("<p>added</p>"))
        return old, new

    def test_sitediff_span_tree(self):
        tracer = Tracer()
        old, new = self._snapshots()
        site_delta = diff_sites(old, new, tracer=tracer)
        (root,) = tracer.roots
        assert root.name == "sitediff"
        assert root.attrs == {
            "old_documents": 2,
            "new_documents": 3,
            "changed": 1,
        }
        docs = [child for child in root.children if child.name == "sitediff.doc"]
        assert [doc.attrs["key"] for doc in docs] == ["a.xml"]
        assert "engine:buld" in _span_names(docs[0])
        assert site_delta.summary() == {
            "added": 1,
            "removed": 0,
            "changed": 1,
            "unchanged": 1,
            "failed": 0,
        }

    def test_sitediff_metrics_without_tracer(self):
        metrics = MetricsRegistry()
        old, new = self._snapshots()
        diff_sites(old, new, metrics=metrics)
        assert metrics.get("repro_diffs_total").value(engine="buld") == 1

    def test_traced_sitediff_same_result_as_plain(self):
        old_a, new_a = self._snapshots()
        old_b, new_b = self._snapshots()
        plain = diff_sites(old_a, new_a)
        traced = diff_sites(old_b, new_b, tracer=Tracer())
        assert plain.summary() == traced.summary()

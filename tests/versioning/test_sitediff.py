"""Tests for site-level diffing."""

import pytest

from repro.core import apply_delta
from repro.versioning.sitediff import SiteDelta, SiteSnapshot, diff_sites
from repro.xmlkit import parse
from repro.xmlkit.errors import ReproError


def snapshot(**documents):
    snap = SiteSnapshot()
    for key, text in documents.items():
        snap.add(key.replace("_", "/"), parse(text))
    return snap


class _Exploding:
    """Stands in for a document whose comparison always fails."""

    def deep_equal(self, other):
        raise ReproError("boom")


def _walk_spans(span):
    yield span
    for child in span.children:
        yield from _walk_spans(child)


class TestSiteSnapshot:
    def test_keys_sorted(self):
        snap = snapshot(b="<b/>", a="<a/>")
        assert snap.keys() == ["a", "b"]

    def test_duplicate_key_rejected(self):
        snap = snapshot(a="<a/>")
        with pytest.raises(ValueError):
            snap.add("a", parse("<x/>"))

    def test_contains_and_len(self):
        snap = snapshot(a="<a/>", b="<b/>")
        assert "a" in snap
        assert "c" not in snap
        assert len(snap) == 2

    def test_total_bytes(self):
        snap = snapshot(a="<a/>")
        assert snap.total_bytes() == 4


class TestDiffSites:
    def test_added_and_removed(self):
        old = snapshot(index="<page>home</page>", gone="<page>old</page>")
        new = snapshot(index="<page>home</page>", fresh="<page>new</page>")
        delta = diff_sites(old, new)
        assert delta.added == ["fresh"]
        assert delta.removed == ["gone"]
        assert delta.unchanged == ["index"]
        assert delta.changed == {}

    def test_changed_documents_diffed(self):
        old = snapshot(index="<page><t>v1 content</t></page>")
        new = snapshot(index="<page><t>v2 content</t></page>")
        delta = diff_sites(old, new)
        assert list(delta.changed) == ["index"]
        page_delta = delta.changed["index"]
        assert apply_delta(
            page_delta, old.get("index"), verify=True
        ).deep_equal(new.get("index"))

    def test_change_ratio(self):
        old = snapshot(a="<p>1</p>", b="<p>2</p>", c="<p>3</p>", d="<p>4</p>")
        new = snapshot(a="<p>1</p>", b="<p>2</p>", c="<p>3!</p>", e="<p>5</p>")
        delta = diff_sites(old, new)
        # touched: c changed, d removed, e added = 3; unchanged: a, b
        assert delta.documents_touched == 3
        assert delta.change_ratio() == pytest.approx(3 / 5)

    def test_empty_snapshots(self):
        delta = diff_sites(SiteSnapshot(), SiteSnapshot())
        assert delta.summary() == {
            "added": 0,
            "removed": 0,
            "changed": 0,
            "unchanged": 0,
            "failed": 0,
        }
        assert delta.change_ratio() == 0.0

    def test_operation_totals_aggregate(self):
        old = snapshot(
            a="<p><x>one</x></p>",
            b="<p><y>two</y></p>",
        )
        new = snapshot(
            a="<p><x>ONE</x></p>",
            b="<p><y>two</y><z>three</z></p>",
        )
        delta = diff_sites(old, new)
        totals = delta.operation_totals()
        assert totals.get("update") == 1
        assert totals.get("insert") == 1

    def test_delta_bytes_positive_only_when_changed(self):
        old = snapshot(a="<p>same</p>")
        new = snapshot(a="<p>same</p>")
        assert diff_sites(old, new).delta_bytes() == 0
        new2 = snapshot(a="<p>diff</p>")
        assert diff_sites(old, new2).delta_bytes() > 0

    def test_failed_document_isolated(self):
        """One broken pair must not abort the snapshot (robustness)."""
        old = snapshot(a="<p>one</p>", b="<p>two</p>")
        new = snapshot(a="<p>ONE</p>", b="<p>two</p>")
        old._documents["broken"] = _Exploding()
        new._documents["broken"] = _Exploding()
        delta = diff_sites(old, new)
        assert list(delta.failed) == ["broken"]
        assert delta.failed["broken"] == "ReproError: boom"
        assert list(delta.changed) == ["a"]
        assert delta.unchanged == ["b"]
        assert delta.summary()["failed"] == 1

    def test_failure_counted_in_metrics(self):
        from repro.obs import MetricsRegistry

        old = snapshot(a="<p>one</p>")
        new = snapshot(a="<p>ONE</p>")
        old._documents["broken"] = _Exploding()
        new._documents["broken"] = _Exploding()
        metrics = MetricsRegistry()
        diff_sites(old, new, metrics=metrics)
        counter = metrics.counter("repro_errors_total")
        assert (
            counter.value(component="sitediff", error="ReproError") == 1
        )

    def test_failure_tags_doc_span(self, monkeypatch):
        import importlib

        from repro.obs import Tracer

        diff_module = importlib.import_module("repro.core.diff")

        def explode(*args, **kwargs):
            raise ReproError("engine died")

        monkeypatch.setattr(diff_module, "diff_with_stats", explode)
        old = snapshot(a="<p>one</p>")
        new = snapshot(a="<p>ONE</p>")
        tracer = Tracer()
        delta = diff_sites(old, new, tracer=tracer)
        assert delta.failed == {"a": "ReproError: engine died"}
        doc_spans = [
            span
            for root in tracer.roots
            for span in _walk_spans(root)
            if span.name == "sitediff.doc"
        ]
        assert len(doc_spans) == 1
        assert doc_spans[0].attrs["error"] == "ReproError: engine died"

    def test_with_web_corpus(self):
        """End to end on the simulated crawl: week-over-week site diff."""
        from repro.simulator import WebCorpus, WebCorpusConfig

        corpus = WebCorpus(
            WebCorpusConfig(documents=5, max_bytes=8_000, seed=23)
        )
        old_snap = SiteSnapshot()
        new_snap = SiteSnapshot()
        for index in range(5):
            versions = corpus.weekly_versions(index, weeks=1)
            key = f"http://site/{index}"
            old_snap.add(key, versions[0])
            new_snap.add(key, versions[1])
        delta = diff_sites(old_snap, new_snap)
        assert delta.summary()["added"] == 0
        assert delta.summary()["removed"] == 0
        # weekly profile always changes something across 5 documents
        assert delta.changed
        # each per-document delta is applicable
        for key, page_delta in delta.changed.items():
            replayed = apply_delta(
                page_delta, old_snap.get(key), verify=True
            )
            assert replayed.deep_equal(new_snap.get(key))

"""Site-level change detection.

The paper's conclusion announces it: "We are also extending the diff to
observe changes between websites compared to changes to pages."  A *site
snapshot* here is a collection of documents keyed by a stable identifier
(URL).  Diffing two snapshots decomposes into:

1. **document matching** — by key: same URL = same document (the web's
   natural persistent identifier, playing the role XIDs play inside a
   document);
2. **per-document diffs** for the keys present in both snapshots;
3. a **site delta**: added documents, removed documents, and the deltas
   of the changed ones, plus summary statistics (how much of the site
   churned, how big the change stream is — the numbers a crawler
   scheduler or an alerting layer needs).

The per-document deltas are ordinary completed deltas, so the site delta
inherits their algebra: a site snapshot can be rolled backward
document by document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import DiffConfig
from repro.core.delta import Delta
from repro.core.deltaxml import delta_byte_size
from repro.core.diff import diff
from repro.xmlkit.errors import ReproError
from repro.xmlkit.model import Document
from repro.xmlkit.serializer import serialize_bytes

__all__ = ["SiteDelta", "SiteSnapshot", "diff_sites"]


class SiteSnapshot:
    """A keyed collection of documents (one crawl of a site)."""

    def __init__(self, documents: Optional[dict[str, Document]] = None):
        self._documents: dict[str, Document] = dict(documents or {})

    def add(self, key: str, document: Document) -> None:
        if key in self._documents:
            raise ValueError(f"duplicate document key {key!r}")
        self._documents[key] = document

    def keys(self) -> list[str]:
        return sorted(self._documents)

    def get(self, key: str) -> Optional[Document]:
        return self._documents.get(key)

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, key: str) -> bool:
        return key in self._documents

    def total_bytes(self) -> int:
        return sum(
            len(serialize_bytes(document))
            for document in self._documents.values()
        )

    def __repr__(self):
        return f"<SiteSnapshot documents={len(self._documents)}>"


@dataclass
class SiteDelta:
    """Everything that changed between two site snapshots.

    Attributes:
        added: Keys only present in the new snapshot.
        removed: Keys only present in the old snapshot.
        changed: Per-key deltas for documents present in both whose
            content differs (unchanged documents are omitted).
        unchanged: Keys present in both with identical content.
        failed: Keys whose comparison failed (parse or diff error),
            mapped to a one-line error description.  A crawl of the
            open web meets malformed documents routinely; one bad page
            must not abort the whole snapshot.
    """

    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    changed: dict[str, Delta] = field(default_factory=dict)
    unchanged: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def documents_touched(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)

    def change_ratio(self) -> float:
        """Fraction of documents that changed in any way."""
        total = self.documents_touched + len(self.unchanged)
        return self.documents_touched / total if total else 0.0

    def delta_bytes(self) -> int:
        """Total size of the per-document delta stream."""
        return sum(delta_byte_size(delta) for delta in self.changed.values())

    def operation_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for delta in self.changed.values():
            for kind, count in delta.summary().items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def summary(self) -> dict[str, int]:
        return {
            "added": len(self.added),
            "removed": len(self.removed),
            "changed": len(self.changed),
            "unchanged": len(self.unchanged),
            "failed": len(self.failed),
        }

    def __repr__(self):
        parts = ", ".join(f"{k}={v}" for k, v in self.summary().items())
        return f"<SiteDelta {parts}>"


def record_site_error(
    result: SiteDelta, key: str, error: Exception, metrics=None
) -> None:
    """Record one per-document failure on a site delta.

    Shared by :func:`diff_sites` and snapshot loaders (the CLI) so every
    failure lands in :attr:`SiteDelta.failed` *and* in the
    ``repro_errors_total`` counter with the same labels.
    """
    result.failed[key] = f"{type(error).__name__}: {error}"
    if metrics is not None:
        metrics.counter(
            "repro_errors_total",
            help="Errors isolated instead of aborting an operation.",
        ).inc(component="sitediff", error=type(error).__name__)


def diff_sites(
    old_snapshot: SiteSnapshot,
    new_snapshot: SiteSnapshot,
    config: Optional[DiffConfig] = None,
    *,
    tracer=None,
    metrics=None,
) -> SiteDelta:
    """Compute the site delta between two snapshots.

    Documents are matched by key; matched pairs are diffed with BULD.
    The input documents receive XIDs as a side effect, exactly as
    :func:`repro.core.diff.diff` documents.

    A failure while comparing one pair (a malformed tree, a diff
    error) is isolated: the key moves to :attr:`SiteDelta.failed`, the
    ``repro_errors_total`` metric is incremented, the document's
    ``sitediff.doc`` span is tagged with an ``error`` attribute, and
    the remaining documents are still processed.

    Args:
        tracer: Optional :class:`repro.obs.trace.Tracer`; the whole run
            becomes one ``sitediff`` span (document counts as
            attributes) containing a ``sitediff.doc`` span per diffed
            pair, each nesting the engine's stage spans — the §6.2
            site-snapshot measurement as a trace.
        metrics: Optional :class:`repro.obs.metrics.MetricsRegistry`;
            per-document diffs feed the shared stage histograms and
            ``repro_diffs_total``; isolated failures feed
            ``repro_errors_total``.
    """
    if config is None:
        config = DiffConfig()
    result = SiteDelta()
    site_span = None
    if tracer is not None:
        site_span = tracer.start_span(
            "sitediff",
            old_documents=len(old_snapshot),
            new_documents=len(new_snapshot),
        )
    try:
        old_keys = set(old_snapshot.keys())
        new_keys = set(new_snapshot.keys())
        result.added = sorted(new_keys - old_keys)
        result.removed = sorted(old_keys - new_keys)
        for key in sorted(old_keys & new_keys):
            old_document = old_snapshot.get(key)
            new_document = new_snapshot.get(key)
            try:
                if old_document.deep_equal(new_document):
                    result.unchanged.append(key)
                    continue
                delta = _diff_one(
                    old_document, new_document, config, key, tracer, metrics
                )
            except ReproError as error:
                record_site_error(result, key, error, metrics)
                continue
            if delta.is_empty():
                result.unchanged.append(key)
            else:
                result.changed[key] = delta
    finally:
        if site_span is not None:
            site_span.attrs["changed"] = len(result.changed)
            if result.failed:
                site_span.attrs["failed"] = len(result.failed)
            tracer.end_span(site_span)
    return result


def _diff_one(old_document, new_document, config, key, tracer, metrics):
    """Diff one matched pair, tagging the document span on failure."""
    if tracer is None and metrics is None:
        return diff(old_document, new_document, config)
    from contextlib import nullcontext

    from repro.core.diff import diff_with_stats

    doc_span = (
        tracer.span("sitediff.doc", key=key)
        if tracer is not None
        else nullcontext()
    )
    with doc_span as span:
        try:
            delta, _ = diff_with_stats(
                old_document,
                new_document,
                config,
                tracer=tracer,
                metrics=metrics,
            )
        except ReproError as error:
            if span is not None:
                span.attrs["error"] = f"{type(error).__name__}: {error}"
            raise
    return delta

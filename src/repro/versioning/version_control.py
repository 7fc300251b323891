"""High-level change control: the paper's Figure 1 pipeline.

:class:`VersionStore` wires the pieces together the way Xyleme does: a new
version of a document arrives (from a crawler or an editor), the
diff module compares it against the stored current version, the resulting
delta is appended to the document's delta sequence, and the repository
snapshot moves forward.  Old versions are not stored — they are
reconstructed on demand from the nearest stored state, either
direction, by applying completed deltas forward or backward, and
"changes between versions i and j" come from delta aggregation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Optional

from repro.core.apply import aggregate, apply_delta
from repro.core.delta import Delta
from repro.engine import DiffContext, DiffEngine, DiffStats, get_engine
from repro.obs.context import current_request_id
from repro.versioning.repository import BackendRepository
from repro.xmlkit.model import Document, coalesce_text, normalized_size

__all__ = ["VersionStore"]


class VersionStore:
    """Versioned documents with diff-on-commit change control.

    Args:
        repository: Backing store; defaults to a repository on a
            private in-memory SQLite database, which keeps the same
            journal, head record and XML forms as an on-disk store and is
            gone when the store is dropped.
        on_commit: Optional callback ``f(doc_id, delta, new_document)``
            invoked after every successful commit — this is where the
            paper's *Alerter* (subscription system) hooks in.
        engine: Diff engine used by :meth:`commit` — an engine name
            (``"buld"``, ``"lu"``, ...) or a
            :class:`~repro.engine.base.DiffEngine` instance.
        tracer: Optional :class:`repro.obs.trace.Tracer`.  Every commit
            becomes a ``store.commit`` span whose children are the
            engine's ``engine:<name>``/``stage:<name>`` spans; ``create``
            becomes ``store.create``.  ``None`` (the default) keeps the
            commit path free of tracing work.
        metrics: Optional :class:`repro.obs.metrics.MetricsRegistry`.
            The store counts commits (``repro_commits_total``), observes
            each commit's stage timings (``repro_stage_seconds``, see
            :func:`repro.obs.metrics.observe_stage_seconds`).
        events: Optional :class:`repro.obs.log.EventLogger`.  Every
            successful :meth:`create`/:meth:`commit` logs a
            ``repo.create``/``repo.commit`` event carrying the store
            name, doc id, version and (via the ambient request
            context) the request id that caused it.
        store_name: Name tagged onto the events above — the server's
            configured store alias; standalone embedders can leave it
            ``None``.
    """

    def __init__(
        self,
        repository: Optional[BackendRepository] = None,
        on_commit: Optional[Callable[[str, Delta, Document], None]] = None,
        engine: str | DiffEngine = "buld",
        tracer=None,
        metrics=None,
        events=None,
        store_name: Optional[str] = None,
    ):
        if repository is None:
            # Imported here: loading the version store alone pulls in
            # neither sqlite3 nor the SQLite backend.
            from repro.storage.sqlite_store import SQLiteBackend

            repository = BackendRepository(SQLiteBackend(":memory:"))
        self.repository = repository
        self.on_commit = on_commit
        self.engine = get_engine(engine)
        self.tracer = tracer
        self.metrics = metrics
        self.events = events
        self.store_name = store_name
        self._commits_total = None
        if metrics is not None:
            self._commits_total = metrics.counter(
                "repro_commits_total", help="Version-store commits."
            )
        #: Stats of the most recent :meth:`commit` (None before the first).
        self.last_stats: Optional[DiffStats] = None

    # -- writing ------------------------------------------------------------

    def create(
        self,
        doc_id: str,
        document: Document,
        commit_record: Optional[dict] = None,
        tracer=None,
    ) -> int:
        """Store ``document`` as version 1 of a new document; returns 1.

        Stored content is normalized to its XML-serializable form
        (adjacent text siblings coalesce and empty text nodes drop —
        neither could survive the repository's serialization round trip
        anyway).  The caller's tree is never changed: it is copied only
        when it holds such text nodes, and its stored XIDs are the
        initial ones, 1..n in postorder, written from a node count
        without labelling any tree.

        ``commit_record`` is an optional idempotency marker persisted
        with the commit; see :class:`~repro.versioning.repository
        .BackendRepository`.  ``tracer`` overrides the store's own tracer for
        this call — the server threads its per-request tracer through
        here so the ``store.create`` span lands in the request's trace.
        """
        with self._recorded("create", doc_id, tracer):
            working, nodes = _normalized(document)
            # The document node takes no label of its own.
            self.repository.create(
                doc_id, working, nodes - 1, commit_record=commit_record
            )
        return 1

    def commit(
        self,
        doc_id: str,
        new_document: Document,
        commit_record: Optional[dict] = None,
        tracer=None,
    ) -> Delta:
        """Store ``new_document`` as the next version of ``doc_id``.

        Returns the computed delta (empty if nothing changed — an empty
        delta still advances the version, mirroring a crawler revisit);
        its ``target_version`` is the version stored.  An unknown id
        starts its chain: it is stored exactly as :meth:`create` stores
        it (no ``on_commit``, no commit counted), and the result is an
        empty delta with ``target_version`` 1.  The head is read once,
        in a ``pinned_head`` scope opened before the ``store.commit``
        span, so callers neither probe for the document nor pin it.
        The stored content is normalized like :meth:`create`;
        ``tracer`` overrides the store's own tracer, like there.

        The diff labels ``new_document`` in place, as
        :func:`~repro.core.diff.diff` labels its new side: afterwards
        every node carries the XID it is stored under, and
        ``on_commit`` receives that same tree.  Only a tree that needs
        normalizing is copied first; then the copy is labelled and
        stored, and the caller's tree keeps its structure and XIDs.

        One clock reading times the commit: the ``store.commit`` span's
        duration and the ``repo.commit`` event's ``duration_ms`` are the
        same measurement.
        """
        repository = self.repository
        with repository.pinned_head(doc_id):
            if not repository.exists(doc_id):
                self.create(doc_id, new_document, commit_record, tracer)
                return Delta([], target_version=1)
            with self._recorded(
                "commit", doc_id, tracer, timed=True
            ) as (tracer, span, fields):
                current = repository.load_current(doc_id)
                allocator = repository.load_allocator(doc_id)
                base_version = repository.current_version(doc_id)
                if span is not None:
                    span.attrs["base_version"] = base_version
                working, _ = _normalized(new_document)
                context = DiffContext(allocator=allocator, tracer=tracer)
                delta, stats = self.engine.diff_with_stats(
                    current, working, context=context
                )
                self.last_stats = stats
                if self.metrics is not None:
                    from repro.obs.metrics import observe_stage_seconds

                    observe_stage_seconds(self.metrics, stats)
                delta.base_version = base_version
                delta.target_version = base_version + 1
                repository.append(
                    doc_id, delta, working, allocator,
                    commit_record=commit_record,
                )
                if self._commits_total is not None:
                    self._commits_total.inc(engine=stats.engine)
                if self.on_commit is not None:
                    self.on_commit(doc_id, delta, working)
                fields["version"] = delta.target_version
        return delta

    @contextmanager
    def _recorded(self, operation, doc_id, tracer, timed=False):
        """Run the block in a ``store.<operation>`` span, then log a
        ``repo.<operation>`` event; yields the tracer in effect, the span
        (or ``None``) and a dict of extra event fields to fill.  ``timed``
        puts the span's duration in the event as ``duration_ms``."""
        tracer = tracer if tracer is not None else self.tracer
        span = None
        fields: dict = {}
        started = time.perf_counter()
        if tracer is not None:
            attrs = {"doc_id": doc_id}
            request_id = current_request_id()
            if request_id is not None:
                attrs["request_id"] = request_id
            span = tracer.start_span(f"store.{operation}", **attrs)
        try:
            yield tracer, span, fields
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                tracer.end_span(span, duration=elapsed if timed else None)
        if self.events is not None:
            if timed:
                fields["duration_ms"] = round(elapsed * 1000.0, 3)
            self.events.emit(
                f"repo.{operation}",
                store=self.store_name,
                doc_id=doc_id,
                **fields,
            )

    # -- reading ------------------------------------------------------------

    def document_ids(self) -> list[str]:
        return self.repository.document_ids()

    def current_version(self, doc_id: str) -> int:
        return self.repository.current_version(doc_id)

    def get_current(self, doc_id: str) -> Document:
        """The latest version (XID-labelled)."""
        return self.repository.load_current(doc_id)

    def get_version(self, doc_id: str, version: int) -> Document:
        """Reconstruct any stored version.

        The walk starts from the nearest stored state, in either
        direction: the current snapshot, or a checkpoint (one every
        :data:`~repro.versioning.repository.CHECKPOINT_EVERY` versions)
        when one is closer.  Deltas apply forward
        from a state below the requested version and backward from one
        above (see :meth:`~repro.versioning.repository
        .BackendRepository.materialize`).
        """
        return self.repository.materialize(doc_id, version)

    def delta(self, doc_id: str, base_version: int) -> Delta:
        """The stored single-step delta ``base_version -> base_version+1``."""
        return self.repository.load_delta(doc_id, base_version)

    def deltas(self, doc_id: str) -> list[Delta]:
        """All stored deltas, oldest first."""
        repository = self.repository
        with repository.pinned_head(doc_id):
            return [
                repository.load_delta(doc_id, base)
                for base in range(1, repository.current_version(doc_id))
            ]

    def changes_between(
        self, doc_id: str, from_version: int, to_version: int
    ) -> Delta:
        """One delta describing everything between two versions.

        ``from_version < to_version`` aggregates forward; the reverse
        direction returns the inverse (completed deltas make both free).
        Equal versions yield an empty delta.  The version read and the
        delta reads share one metadata read.
        """
        if from_version == to_version:
            return Delta([])
        if from_version > to_version:
            return self.changes_between(doc_id, to_version, from_version).inverted()
        with self.repository.pinned_head(doc_id):
            base_document = self.get_version(doc_id, from_version)
            chain = [
                self.repository.load_delta(doc_id, base)
                for base in range(from_version, to_version)
            ]
        combined = aggregate(chain, base_document)
        combined.base_version = from_version
        combined.target_version = to_version
        return combined

    def verify_integrity(self, doc_id: str) -> bool:
        """Replay the whole chain forward from version 1: the result must
        equal the stored current snapshot.  A store self-check."""
        repository = self.repository
        with repository.pinned_head(doc_id):
            document = repository.materialize(doc_id, 1)
            for base in range(1, repository.current_version(doc_id)):
                delta = repository.load_delta(doc_id, base)
                document = apply_delta(
                    delta, document, in_place=True, verify=True
                )
            return document.deep_equal(repository.load_current(doc_id))


def _normalized(document: Document) -> tuple[Document, int]:
    """``document`` in stored form, and its node count.

    One read-only walk decides whether :func:`coalesce_text` would
    change the tree.  If not, the tree itself is returned; otherwise an
    unlabelled copy, normalized.  The count includes the document node.
    """
    nodes, normalized = normalized_size(document)
    if normalized:
        return document, nodes
    working = document.clone(keep_xids=False)
    return working, nodes - coalesce_text(working)

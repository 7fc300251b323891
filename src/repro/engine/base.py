"""The engine abstraction: one entry point for every diff algorithm.

The paper's evaluation treats XyDiff as *one engine among several* (Unix
diff, DiffMK, Lu, LaDiff ...).  This module gives all of them a common
shape:

- a :class:`DiffEngine` implements :meth:`~DiffEngine.match`, which
  returns a :class:`~repro.core.matching.Matching` and times each of its
  steps as a named stage; the base class owns the rest of the run — XID
  preparation, tracing, statistics and the shared Phase-5
  ``build-delta`` stage;
- :class:`MatcherEngine` wraps any object with a
  ``match(old, new, context)`` method into a one-stage engine, so a
  custom algorithm needs no subclass: pass
  ``MatcherEngine("mine", matcher)`` wherever an engine name is taken;
- :class:`DiffContext` carries one run's configuration, allocator,
  tracer, provenance recorder and counters.

XID contract
------------
Every engine produces a completed :class:`~repro.core.delta.Delta`
through the same XID rules, so engines are interchangeable anywhere a
delta is consumed — version stores, benchmarks, the CLI:

- If the old document carries no XIDs it is treated as a first version
  and receives postorder XIDs 1..n **in place**.
- The new document's nodes are labelled as a side effect: matched nodes
  inherit their partner's XID, new nodes draw fresh ones from the
  context's allocator (or ``max_xid(old)+1`` by default).  Handing the
  labelled new document plus the returned delta to a version store is
  all it takes to keep identifiers persistent across versions.

Execution order vs phase numbers
--------------------------------
``DiffStats.phase_seconds`` keeps the paper's phase numbering
(``"phase1"`` .. ``"phase5"``) for figure comparability, but that
numbering is **not** the execution order: BULD computes signatures and
weights (phase 2) *before* the ID-attribute pass (phase 1), because the
free-match propagation of phase 1 needs the weights.  The authoritative
execution record is ``DiffStats.stage_seconds`` — an insertion-ordered
mapping of stage name to seconds, e.g. ``annotate`` → ``id-attributes``
→ ``match-subtrees`` → ``propagate`` → ``build-delta`` for BULD;
``phase_seconds`` is derived from it through :data:`STAGE_PHASES`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Optional

from repro.core.builder import build_delta
from repro.core.config import DiffConfig
from repro.core.delta import Delta
from repro.core.matching import Matching
from repro.core.xid import XidAllocator, assign_initial_xids, has_xids, max_xid
from repro.xmlkit.errors import ReproError
from repro.xmlkit.model import Document, Node

__all__ = [
    "DiffContext",
    "DiffEngine",
    "DiffStats",
    "EngineError",
    "MatcherEngine",
    "STAGE_PHASES",
]

#: The paper's phase number of every stage that has one (BULD's five
#: stages, and the ``match`` stage of a :class:`MatcherEngine`, the
#: counterpart of BULD's matching core).
STAGE_PHASES = {
    "annotate": "phase2",
    "id-attributes": "phase1",
    "match-subtrees": "phase3",
    "match": "phase3",
    "propagate": "phase4",
    "build-delta": "phase5",
}

class EngineError(ReproError):
    """Raised on engine misuse (an unknown engine name)."""


@dataclass
class DiffContext:
    """Everything one diff run needs beyond the two documents.

    Attributes:
        config: Tuning knobs; filled with defaults by the engine when left
            ``None``.
        allocator: XID source for inserted nodes; defaulted by the engine
            to ``max_xid(old) + 1`` when left ``None`` (version stores
            pass the document's persistent allocator).
        counters: Free-form numeric counters engines and stores increment
            (e.g. ``buld_candidate_probes``); copied onto the final
            :class:`DiffStats`.
        tracer: Optional :class:`repro.obs.trace.Tracer`.  When set, the
            engine opens one ``engine:<name>`` span around the run and
            one ``stage:<name>`` span per stage, each stage span's
            duration being the engine's *single* ``perf_counter``
            measurement — the same float recorded in
            ``DiffStats.stage_seconds``.  ``None`` (the default) costs
            one pointer comparison per stage.
        recorder: Optional match-provenance recorder
            (:class:`repro.obs.provenance.ProvenanceRecorder`).  Engines
            that support it (BULD) notify it of every match/lock/
            rejection decision; with a tracer also present, each
            ``stage:<name>`` span gains a ``matches`` attribute.  The
            engine replaces a recorder whose ``enabled`` is false
            (``NullRecorder``) with ``None`` before the first stage.
    """

    config: Optional[DiffConfig] = None
    allocator: Optional[XidAllocator] = None
    counters: dict[str, float] = field(default_factory=dict)
    tracer: Optional[object] = None
    recorder: Optional[object] = None

    def count(self, key: str, amount: float = 1) -> None:
        """Increment a named counter."""
        self.counters[key] = self.counters.get(key, 0) + amount


@dataclass
class DiffStats:
    """Instrumentation of one diff run.

    Attributes:
        engine: Name of the engine that produced the delta.
        stage_seconds: Seconds per stage, *in execution order* (dict
            insertion order).
        old_nodes / new_nodes: Node counts of the two documents.
        matched_nodes: Size of the final matching (document pair excluded).
        operation_counts: Delta operations per kind.
        counters: Free-form counters from the run's :class:`DiffContext`
            (e.g. BULD's candidate probes).
    """

    old_nodes: int = 0
    new_nodes: int = 0
    matched_nodes: int = 0
    operation_counts: dict[str, int] = field(default_factory=dict)
    engine: str = "buld"
    stage_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Seconds keyed by the paper's phase numbers, in stage order.

        ``"phase1"`` .. ``"phase5"`` (phase 5 is delta construction) for
        the stages that have a paper counterpart (:data:`STAGE_PHASES`).
        """
        return {
            STAGE_PHASES[stage]: seconds
            for stage, seconds in self.stage_seconds.items()
            if stage in STAGE_PHASES
        }

    @property
    def total_seconds(self) -> float:
        """Sum over stages."""
        return sum(self.stage_seconds.values())

    @property
    def core_seconds(self) -> float:
        """Phases 3+4 — what the paper calls "the core of the diff"."""
        phases = self.phase_seconds
        return phases.get("phase3", 0.0) + phases.get("phase4", 0.0)

    @property
    def stage_order(self) -> list[str]:
        """The stage names in execution order."""
        return list(self.stage_seconds)

    def to_dict(self) -> dict:
        """JSON-serializable form (the CLI's ``stats --json`` payload)."""
        return {
            "engine": self.engine,
            "old_nodes": self.old_nodes,
            "new_nodes": self.new_nodes,
            "matched_nodes": self.matched_nodes,
            "operation_counts": dict(self.operation_counts),
            "stage_order": self.stage_order,
            "stage_seconds": dict(self.stage_seconds),
            "phase_seconds": self.phase_seconds,
            "counters": dict(self.counters),
            "total_seconds": self.total_seconds,
            "core_seconds": self.core_seconds,
        }


class DiffEngine:
    """Base class: a named diff algorithm run as timed stages.

    Subclasses implement :meth:`match`; :meth:`diff_with_stats` owns the
    run protocol — XID preparation, stage timing, tracing, statistics and
    the shared ``build-delta`` stage — so every engine behaves
    identically from the outside.
    """

    #: The engine's name: its ``ENGINES`` key, span tag and stats tag.
    name: str = ""

    def match(
        self,
        old: Document,
        new: Document,
        context: DiffContext,
        stats: DiffStats,
        stage: Callable[[str], ContextManager[None]],
    ) -> tuple[Matching, Optional[dict[Node, float]]]:
        """Match ``old`` against ``new``, one ``with stage(name):`` per step.

        ``stage(name)`` is the run's timing context manager.  Returns the
        matching and the new-side weights that steer the move detector
        (``None``: subtree sizes).  An engine that counts the nodes anyway
        may fill ``stats.old_nodes``/``stats.new_nodes``.
        """
        raise NotImplementedError

    def diff_with_stats(
        self,
        old_document: Document,
        new_document: Document,
        config: Optional[DiffConfig] = None,
        *,
        allocator: Optional[XidAllocator] = None,
        context: Optional[DiffContext] = None,
    ) -> tuple[Delta, DiffStats]:
        """Run the stages; return the delta plus per-stage statistics.

        ``config`` and ``allocator`` fill the corresponding context slots
        when those are ``None``; an explicit :class:`DiffContext` carries
        everything else (tracer, recorder, counters).
        """
        if context is None:
            context = DiffContext()
        if context.config is None:
            context.config = config if config is not None else DiffConfig()
        context.config.validate()
        # The XID contract shared by every engine (module docstring).
        if not has_xids(old_document):
            assign_initial_xids(old_document)
        if context.allocator is None:
            context.allocator = (
                allocator if allocator is not None
                else XidAllocator(max_xid(old_document) + 1)
            )
        stats = DiffStats(engine=self.name)
        tracer = context.tracer
        recorder = context.recorder
        if recorder is not None and not getattr(recorder, "enabled", True):
            recorder = context.recorder = None

        @contextmanager
        def stage(name: str):
            # One perf_counter pair per stage, written to the stats and,
            # with a tracer, used verbatim as the stage span's duration:
            # the trace and the stats can never disagree.
            stage_span = None
            if tracer is not None:
                stage_span = tracer.start_span(
                    f"stage:{name}", stage=name, order=len(stats.stage_seconds)
                )
            matches_before = 0 if recorder is None else recorder.match_count()
            started = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - started
                if stage_span is not None:
                    if recorder is not None:
                        # Attribution tag: pairs this stage added.  Only
                        # with an active recorder, so a trace without one
                        # carries no extra attribute.
                        stage_span.attrs["matches"] = (
                            recorder.match_count() - matches_before
                        )
                    tracer.end_span(stage_span, duration=elapsed)
            stats.stage_seconds[name] = elapsed

        engine_span = None
        if tracer is not None:
            engine_span = tracer.start_span(
                f"engine:{self.name}", engine=self.name
            )
        try:
            matching, weights = self.match(
                old_document, new_document, context, stats, stage
            )
            config = context.config
            with stage("build-delta"):
                delta = build_delta(
                    old_document,
                    new_document,
                    matching,
                    allocator=context.allocator,
                    weights=weights,
                    exact_move_threshold=config.exact_move_threshold,
                    move_block_length=config.move_block_length,
                )
        finally:
            stats.old_nodes = stats.old_nodes or old_document.subtree_size()
            stats.new_nodes = stats.new_nodes or new_document.subtree_size()
            if engine_span is not None:
                engine_span.attrs["old_nodes"] = stats.old_nodes
                engine_span.attrs["new_nodes"] = stats.new_nodes
                if recorder is not None:
                    engine_span.attrs["matches"] = recorder.match_count()
                tracer.end_span(engine_span)
        stats.matched_nodes = max(len(matching) - 1, 0)
        stats.operation_counts = delta.summary()
        stats.counters = dict(context.counters)
        return delta, stats

    def __repr__(self):
        return f"<{type(self).__name__} name={self.name!r}>"


class MatcherEngine(DiffEngine):
    """A one-stage engine around any object with a ``match`` method.

    ``matcher.match(old, new, context)`` returns the
    :class:`~repro.core.matching.Matching`; it runs as the ``match``
    stage, followed by the shared ``build-delta``.
    """

    def __init__(self, name: str, matcher):
        self.name = name
        self.matcher = matcher

    def match(self, old, new, context, stats, stage):
        with stage("match"):
            matching = self.matcher.match(old, new, context)
        return matching, None

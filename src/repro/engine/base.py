"""The engine abstraction: one entry point for every diff algorithm.

The paper's evaluation treats XyDiff as *one engine among several* (Unix
diff, DiffMK, Lu, LaDiff ...).  This module gives all of them a common
shape:

- a :class:`Matcher` produces a :class:`~repro.core.matching.Matching`
  between two documents — the minimal protocol a new algorithm must
  implement;
- a :class:`DiffEngine` runs a *pipeline of named stages* over a shared
  :class:`EngineRun`, timing each stage into the run's
  :class:`DiffStats` — then hands the matching to the shared Phase-5
  builder;
- :class:`MatcherEngine` adapts any :class:`Matcher` into a two-stage
  (``match`` → ``build-delta``) engine, so registering a custom algorithm
  is one line (see :func:`repro.engine.registry.register_matcher`).

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

Stage order vs phase numbers
----------------------------
``DiffStats.phase_seconds`` keeps the paper's phase numbering
(``"phase1"`` .. ``"phase5"``) for figure comparability, but that
numbering is **not** the execution order: BULD computes signatures and
weights (phase 2) *before* the ID-attribute pass (phase 1), because the
free-match propagation of phase 1 needs the weights.  The authoritative
execution record is ``DiffStats.stage_seconds`` — an insertion-ordered
mapping of stage name to seconds, e.g. ``annotate`` → ``id-attributes``
→ ``match-subtrees`` → ``propagate`` → ``build-delta`` for BULD.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.core.builder import build_delta
from repro.core.config import DiffConfig
from repro.core.delta import Delta
from repro.core.matching import Matching
from repro.core.xid import XidAllocator, assign_initial_xids, max_xid
from repro.engine.context import DiffContext
from repro.xmlkit.errors import ReproError
from repro.xmlkit.model import Document, Node

__all__ = [
    "DiffEngine",
    "DiffStats",
    "EngineError",
    "EngineRun",
    "Matcher",
    "MatcherEngine",
    "Stage",
]


class EngineError(ReproError):
    """Raised on engine misuse (unknown name, pipeline without a delta)."""


@dataclass
class DiffStats:
    """Instrumentation of one diff run.

    Attributes:
        engine: Name of the engine that produced the delta.
        phase_seconds: Wall-clock seconds keyed by the paper's phase
            numbers ``"phase1"`` .. ``"phase5"`` (phase 5 is delta
            construction).  Present for stages that have a paper
            counterpart; see ``stage_seconds`` for the execution order.
        stage_seconds: Seconds per pipeline stage, *in execution order*
            (dict insertion order).
        old_nodes / new_nodes: Node counts of the two documents.
        matched_nodes: Size of the final matching (document pair excluded).
        operation_counts: Delta operations per kind.
        counters: Free-form counters from the run's
            :class:`~repro.engine.context.DiffContext` (e.g. BULD's
            candidate probes).
    """

    phase_seconds: dict[str, float] = field(default_factory=dict)
    old_nodes: int = 0
    new_nodes: int = 0
    matched_nodes: int = 0
    operation_counts: dict[str, int] = field(default_factory=dict)
    engine: str = "buld"
    stage_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Sum over stages (falls back to phase aliases if no stages)."""
        if self.stage_seconds:
            return sum(self.stage_seconds.values())
        return sum(self.phase_seconds.values())

    @property
    def core_seconds(self) -> float:
        """Phases 3+4 — what the paper calls "the core of the diff"."""
        return self.phase_seconds.get("phase3", 0.0) + self.phase_seconds.get(
            "phase4", 0.0
        )

    @property
    def stage_order(self) -> list[str]:
        """Stage names in execution order."""
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
            "phase_seconds": dict(self.phase_seconds),
            "counters": dict(self.counters),
            "total_seconds": self.total_seconds,
            "core_seconds": self.core_seconds,
        }


@runtime_checkable
class Matcher(Protocol):
    """The minimal protocol a diff algorithm must implement.

    A matcher only decides *which nodes correspond*; delta construction,
    XID management, timing and statistics are the engine's job.
    """

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        """Return a matching between ``old`` and ``new``."""
        ...


@dataclass(frozen=True)
class Stage:
    """One named step of an engine pipeline.

    Attributes:
        name: Stable identifier (span names and ``stage_seconds`` keys).
        run: Callable receiving the shared :class:`EngineRun`.
        phase_key: Optional paper-phase alias recorded into
            ``DiffStats.phase_seconds`` (``"phase1"`` .. ``"phase5"``).
    """

    name: str
    run: Callable[["EngineRun"], None]
    phase_key: Optional[str] = None


@dataclass
class EngineRun:
    """Mutable state threaded through the stages of one diff run."""

    old: Document
    new: Document
    context: DiffContext
    matching: Optional[Matching] = None
    weights: Optional[dict[Node, float]] = None
    delta: Optional[Delta] = None
    old_nodes: int = 0
    new_nodes: int = 0
    extra: dict = field(default_factory=dict)


class DiffEngine:
    """Base class: a named, stage-pipelined diff algorithm.

    Subclasses implement :meth:`stages`; the base class owns the run
    protocol — XID preparation, stage timing and statistics — so every
    engine behaves identically from the outside.
    """

    #: Registry name; set by subclasses / the registry.
    name: str = ""

    # -- to implement ------------------------------------------------------

    def stages(self, run: EngineRun) -> list[Stage]:
        """The ordered pipeline for one run (fresh closures per run)."""
        raise NotImplementedError

    # -- run protocol ------------------------------------------------------

    def diff(
        self,
        old_document: Document,
        new_document: Document,
        config: Optional[DiffConfig] = None,
        *,
        allocator: Optional[XidAllocator] = None,
        context: Optional[DiffContext] = None,
    ) -> Delta:
        """Compute the delta transforming old into new (stats discarded)."""
        delta, _ = self.diff_with_stats(
            old_document,
            new_document,
            config,
            allocator=allocator,
            context=context,
        )
        return delta

    def diff_with_stats(
        self,
        old_document: Document,
        new_document: Document,
        config: Optional[DiffConfig] = None,
        *,
        allocator: Optional[XidAllocator] = None,
        context: Optional[DiffContext] = None,
    ) -> tuple[Delta, DiffStats]:
        """Run the pipeline; return the delta plus per-stage statistics.

        ``config`` and ``allocator`` fill the corresponding context slots
        when those are ``None``; an explicit :class:`DiffContext` carries
        everything else (tracer, recorder, counters).
        """
        if context is None:
            context = DiffContext()
        if context.config is None:
            context.config = config if config is not None else DiffConfig()
        context.config.validate()
        if context.allocator is None:
            context.allocator = allocator

        self._prepare_xids(old_document, context)
        run = EngineRun(old=old_document, new=new_document, context=context)
        stats = DiffStats(engine=self.name)
        # One perf_counter pair per stage, written to the stats and, with
        # a tracer, used verbatim as the stage span's duration: the trace
        # and the stats can never disagree.
        tracer = context.tracer
        recorder = context.recorder
        if recorder is not None and not getattr(recorder, "enabled", True):
            recorder = context.recorder = None
        engine_span = None
        if tracer is not None:
            engine_span = tracer.start_span(
                f"engine:{self.name}", engine=self.name
            )
        try:
            for order, stage in enumerate(self.stages(run)):
                stage_span = None
                if tracer is not None:
                    stage_span = tracer.start_span(
                        f"stage:{stage.name}", stage=stage.name, order=order
                    )
                matches_before = (
                    recorder.match_count() if recorder is not None else 0
                )
                started = time.perf_counter()
                try:
                    stage.run(run)
                finally:
                    elapsed = time.perf_counter() - started
                    if stage_span is not None:
                        if recorder is not None:
                            # Attribution tag: pairs this stage added.  Only
                            # with an active recorder, so recorder-off traces
                            # stay byte-identical to the seed's.
                            stage_span.attrs["matches"] = (
                                recorder.match_count() - matches_before
                            )
                        tracer.end_span(stage_span, duration=elapsed)
                stats.stage_seconds[stage.name] = elapsed
                if stage.phase_key is not None:
                    stats.phase_seconds[stage.phase_key] = elapsed
        finally:
            if engine_span is not None:
                engine_span.attrs["old_nodes"] = (
                    run.old_nodes or run.old.subtree_size()
                )
                engine_span.attrs["new_nodes"] = (
                    run.new_nodes or run.new.subtree_size()
                )
                if recorder is not None:
                    engine_span.attrs["matches"] = recorder.match_count()
                tracer.end_span(engine_span)
        if run.delta is None:
            raise EngineError(
                f"engine {self.name!r}: pipeline finished without a delta"
            )
        return run.delta, self._finish_stats(run, stats)

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _prepare_xids(old_document: Document, context: DiffContext) -> None:
        """The XID contract shared by every engine (module docstring)."""
        if max_xid(old_document) == 0:
            assign_initial_xids(old_document)
        if context.allocator is None:
            context.allocator = XidAllocator(max_xid(old_document) + 1)

    def _build_delta_stage(self, run: EngineRun) -> None:
        """Default ``build-delta`` stage body (the shared Phase 5)."""
        config = run.context.config
        run.delta = build_delta(
            run.old,
            run.new,
            run.matching,
            allocator=run.context.allocator,
            weights=run.weights,
            exact_move_threshold=config.exact_move_threshold,
            move_block_length=config.move_block_length,
        )

    @staticmethod
    def _finish_stats(run: EngineRun, stats: DiffStats) -> DiffStats:
        stats.old_nodes = run.old_nodes or run.old.subtree_size()
        stats.new_nodes = run.new_nodes or run.new.subtree_size()
        if run.matching is not None:
            stats.matched_nodes = max(len(run.matching) - 1, 0)
        stats.operation_counts = run.delta.summary()
        stats.counters = dict(run.context.counters)
        return stats

    def __repr__(self):
        return f"<{type(self).__name__} name={self.name!r}>"


class MatcherEngine(DiffEngine):
    """Adapter turning any :class:`Matcher` into a two-stage engine.

    The pipeline is ``match`` (the algorithm) followed by ``build-delta``
    (the shared Phase-5 builder).  The match stage carries the paper's
    ``phase3`` alias — it is the counterpart of BULD's matching core.
    """

    def __init__(self, name: str, matcher: Matcher):
        self.name = name
        self.matcher = matcher

    def stages(self, run: EngineRun) -> list[Stage]:
        return [
            Stage("match", self._match, phase_key="phase3"),
            Stage("build-delta", self._build_delta_stage, phase_key="phase5"),
        ]

    def _match(self, run: EngineRun) -> None:
        run.matching = self.matcher.match(run.old, run.new, run.context)

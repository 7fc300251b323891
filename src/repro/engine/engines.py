"""The five engines and the library's one diff entry point.

:func:`diff` is the one-call API: run an engine (the paper's BULD by
default) on two documents and return the delta.  :func:`diff_with_stats`
also returns the run's :class:`~repro.engine.base.DiffStats` — per-stage
timings and matching statistics, the instrumentation behind the paper's
Figure 4 — and threads the optional tracer, metrics registry and
provenance recorder through the run.  Both follow the XID contract in
:mod:`repro.engine.base`; ``repro.diff`` and ``repro.core.diff`` are
re-exports of these two functions.

:data:`ENGINES` is the fixed table of engines the paper compares
(Section 3), each a :class:`~repro.engine.base.DiffEngine` producing a
completed delta through the shared Phase-5 builder, so any of them
round-trips (``apply(diff(old, new), old) == new``) and plugs into the
version store, the CLI and the benchmarks interchangeably:

- ``"buld"``   — the paper's BULD algorithm, five named stages;
- ``"lu"``     — Lu/Selkow optimal order-preserving matching (quadratic);
- ``"ladiff"`` — LaDiff/Chawathe-96 similarity matching;
- ``"diffmk"`` — DiffMK-style token-list diff lifted back to nodes;
- ``"flat"``   — node-sequence LCS (structure-blind lower baseline).

A custom algorithm needs no entry in the table: every function that
takes an engine name also takes an engine instance::

    from repro.engine import MatcherEngine, diff

    class MyMatcher:
        def match(self, old, new, context):
            ...  # return a repro.core.matching.Matching

    delta = diff(old, new, engine=MatcherEngine("mine", MyMatcher()))

``"diffmk"`` and ``"flat"`` deserve a note: the historical tools emit edit
scripts over flattened token lists, not tree deltas.  To give them a
seat at the same table their list-diff *matchings* are lifted back onto
the nodes (a token run that Myers reports equal pins the nodes owning
those tokens), and the shared builder derives the delta.  They remain
structurally blind — a moved subtree still costs delete + insert unless
the LCS happens to keep it — which is exactly the behaviour the paper's
comparison demonstrates.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.buld import CANDIDATE_PROBES, BuldMatcher
from repro.core.config import DiffConfig
from repro.core.delta import Delta
from repro.core.lcs import myers_opcodes
from repro.core.matching import Matching
from repro.core.xid import XidAllocator
from repro.engine.base import (
    DiffContext,
    DiffEngine,
    DiffStats,
    EngineError,
    MatcherEngine,
)
from repro.xmlkit.model import Document, Node

__all__ = [
    "BuldEngine",
    "ENGINES",
    "available_engines",
    "diff",
    "diff_with_stats",
    "get_engine",
]


class BuldEngine(DiffEngine):
    """The paper's algorithm in five stages.

    The stages (execution order) and their paper-phase aliases:

    1. ``annotate``       (phase2) — signatures, weights, old-side indexes;
    2. ``id-attributes``  (phase1) — ID-attribute matches and locks;
    3. ``match-subtrees`` (phase3) — heaviest-first identical subtrees;
    4. ``propagate``      (phase4) — bottom-up / top-down optimization;
    5. ``build-delta``    (phase5) — the shared delta builder.

    Ablations switch phases off through :class:`~repro.core.config.
    DiffConfig`, not by skipping stages.
    """

    name = "buld"

    def match(self, old, new, context, stats, stage):
        matcher = BuldMatcher(
            old, new, context.config, recorder=context.recorder
        )
        with stage("annotate"):
            matcher.phase2_annotate()
        with stage("id-attributes"):
            matcher.phase1_id_attributes()
        with stage("match-subtrees"):
            matcher.phase3_match_subtrees()
            context.count(CANDIDATE_PROBES, matcher.candidate_probes)
        with stage("propagate"):
            matcher.phase4_propagate()
        # Return only the matching and the new weights, so the matcher
        # (old-side annotations, new signatures, both candidate indexes)
        # is released before the delta builder runs: a lower peak.
        weights = None
        if matcher.new_annotations is not None:
            weights = matcher.new_annotations.weights
            stats.old_nodes = matcher.old_annotations.node_count
            stats.new_nodes = matcher.new_annotations.node_count
        return matcher.matching, weights


class LuMatcher:
    """Lu/Selkow optimal order-preserving matching (quadratic DP)."""

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        # The baselines load with the first baseline diff, not with BULD.
        from repro.baselines.lu import lu_match

        return lu_match(old, new).matching


class LaDiffMatcher:
    """LaDiff/Chawathe-96 similarity matching, Chawathe's thresholds."""

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        from repro.baselines.ladiff import ladiff_match

        return ladiff_match(old, new)


class ListDiffMatcher:
    """A flattened-list diff, lifted back onto the tree.

    ``items(document)`` flattens a document to ``(key, node)`` pairs.
    Myers runs over the two key lists, and the nodes of the items inside
    ``equal`` runs are matched; an item without a node (``None``) pins
    nothing, and ``can_match`` guards kind and label preservation.
    """

    def __init__(
        self, items: Callable[[Document], list[tuple[object, Optional[Node]]]]
    ):
        self.items = items

    def match(
        self, old: Document, new: Document, context: DiffContext
    ) -> Matching:
        old_items, new_items = self.items(old), self.items(new)
        matching = Matching()
        matching.add(old, new)
        opcodes = myers_opcodes(
            [key for key, _ in old_items], [key for key, _ in new_items]
        )
        for tag, i1, i2, j1, j2 in opcodes:
            if tag != "equal":
                continue
            for (_, old_node), (_, new_node) in zip(
                old_items[i1:i2], new_items[j1:j2]
            ):
                if (
                    old_node is not None
                    and new_node is not None
                    and matching.can_match(old_node, new_node)
                ):
                    matching.add(old_node, new_node)
        return matching


def _diffmk_items(document: Document) -> list[tuple[str, Optional[Node]]]:
    """DiffMK's token list, exactly what the historical tool diffed.

    Equal open tokens imply equal labels and attributes; close tags
    carry no node.
    """
    from repro.baselines.diffmk import node_tokens

    return list(node_tokens(document))


def _node_sequence(document: Document) -> list[tuple[tuple, Node]]:
    """The flat baseline's items: preorder nodes keyed by shallow content.

    Elements are keyed by label, leaves by value, so attribute changes
    survive as attribute operations (labels still match); everything
    positional is left to the builder's move/delete/insert derivation.
    """
    items: list[tuple[tuple, Node]] = []
    stack: list[Node] = list(reversed(document.children))
    while stack:
        node = stack.pop()
        kind = node.kind
        if kind == "element":
            items.append((("E", node.label), node))
            stack.extend(reversed(node.children))
        elif kind == "pi":
            items.append((("P", node.target, node.value), node))
        else:  # text / comment
            items.append(((kind[0].upper(), node.value), node))
    return items


#: Every engine by name.  Engines keep no state across runs, so one
#: instance each serves every caller.
ENGINES: dict[str, DiffEngine] = {
    "buld": BuldEngine(),
    "lu": MatcherEngine("lu", LuMatcher()),
    "ladiff": MatcherEngine("ladiff", LaDiffMatcher()),
    "diffmk": MatcherEngine("diffmk", ListDiffMatcher(_diffmk_items)),
    "flat": MatcherEngine("flat", ListDiffMatcher(_node_sequence)),
}


def available_engines() -> list[str]:
    """Sorted names of every engine in :data:`ENGINES`."""
    return sorted(ENGINES)


def get_engine(engine: Union[str, DiffEngine]) -> DiffEngine:
    """The engine named ``engine``; an engine instance passes through.

    Raises:
        EngineError: Unknown name (the message lists what is available).
    """
    if isinstance(engine, DiffEngine):
        return engine
    instance = ENGINES.get(engine)
    if instance is None:
        raise EngineError(
            f"unknown engine {engine!r}; available: "
            + ", ".join(available_engines())
        )
    return instance


def diff(
    old_document: Document,
    new_document: Document,
    config: Optional[DiffConfig] = None,
    *,
    allocator: Optional[XidAllocator] = None,
    engine: Union[str, DiffEngine] = "buld",
) -> Delta:
    """Compute the delta transforming ``old_document`` into ``new_document``.

    Args:
        old_document: Base version; receives initial XIDs if unlabelled.
        new_document: Target version; receives XIDs as a side effect.
        config: Tuning knobs (:class:`~repro.core.config.DiffConfig`);
            defaults are the paper's settings.
        allocator: XID source for inserted nodes (version stores pass the
            document's persistent allocator).
        engine: An :data:`ENGINES` name (default the paper's BULD) or an
            engine instance.

    Returns:
        A completed :class:`~repro.core.delta.Delta`; applying it to
        ``old_document`` yields ``new_document`` exactly.
    """
    delta, _ = diff_with_stats(
        old_document, new_document, config, allocator=allocator, engine=engine
    )
    return delta


def diff_with_stats(
    old_document: Document,
    new_document: Document,
    config: Optional[DiffConfig] = None,
    *,
    allocator: Optional[XidAllocator] = None,
    engine: Union[str, DiffEngine] = "buld",
    tracer=None,
    metrics=None,
    recorder=None,
) -> tuple[Delta, DiffStats]:
    """Like :func:`diff` but also returns per-stage statistics.

    Args:
        tracer: Optional :class:`repro.obs.trace.Tracer`; the engine
            emits one ``engine:<name>`` span wrapping one
            ``stage:<name>`` span per stage.  The stage spans carry the
            engine's own timing measurement, so the trace and the
            returned ``DiffStats.stage_seconds`` agree exactly.
        metrics: Optional :class:`repro.obs.metrics.MetricsRegistry`;
            after the run, ``repro_stage_seconds`` observes each entry
            of ``DiffStats.stage_seconds`` and ``repro_diffs_total`` is
            incremented.  A run that raises records neither.
        recorder: Optional
            :class:`repro.obs.provenance.ProvenanceRecorder`; BULD
            notifies it of every match/lock/rejection decision (feed it
            to :func:`repro.obs.provenance.build_report` afterwards).
            With ``metrics`` also given, the per-phase attribution
            metrics (``repro_matches_total`` ...) are published after
            the run.  A disabled recorder (``NullRecorder``) is treated
            exactly like the default ``None``.
    """
    context = DiffContext(tracer=tracer, recorder=recorder)
    delta, stats = get_engine(engine).diff_with_stats(
        old_document, new_document, config, allocator=allocator,
        context=context,
    )
    if metrics is not None:
        from repro.obs.metrics import observe_stage_seconds

        observe_stage_seconds(metrics, stats)
        metrics.counter(
            "repro_diffs_total", help="Diff runs completed."
        ).inc(engine=stats.engine)
        # The engine has replaced a disabled recorder with None.
        if context.recorder is not None:
            from repro.obs.provenance import publish_provenance_metrics

            publish_provenance_metrics(metrics, context.recorder)
    return delta, stats

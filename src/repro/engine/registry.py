"""The engine registry and the library's one diff entry point.

:func:`diff` is the one-call API: run an engine (the paper's BULD by
default) on two documents and return the delta.  :func:`diff_with_stats`
also returns the run's :class:`~repro.engine.base.DiffStats` — per-stage
timings and matching statistics, the instrumentation behind the paper's
Figure 4 — and threads the optional tracer, metrics registry and
provenance recorder through the run.  Both follow the XID contract in
:mod:`repro.engine.base`; ``repro.diff`` and ``repro.core.diff`` are
re-exports of these two functions.

Built-in engines (registered by :mod:`repro.engine.engines` on first
lookup):

- ``"buld"``   — the paper's BULD algorithm, five named stages;
- ``"lu"``     — Lu/Selkow optimal order-preserving matching (quadratic);
- ``"ladiff"`` — LaDiff/Chawathe-96 similarity matching;
- ``"diffmk"`` — DiffMK-style token-list diff lifted back to nodes;
- ``"flat"``   — node-sequence LCS (structure-blind lower baseline).

Registering a custom algorithm::

    from repro.engine import register_matcher

    class MyMatcher:
        def match(self, old, new, context):
            ...  # return a repro.core.matching.Matching

    register_matcher("mine", MyMatcher())
    delta = repro.engine.get_engine("mine").diff(old, new)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.engine.base import (
    DiffEngine,
    DiffStats,
    EngineError,
    Matcher,
    MatcherEngine,
)
from repro.engine.context import DiffContext

if TYPE_CHECKING:
    from repro.core.config import DiffConfig
    from repro.core.delta import Delta
    from repro.core.xid import XidAllocator
    from repro.xmlkit.model import Document

__all__ = [
    "available_engines",
    "diff",
    "diff_with_stats",
    "get_engine",
    "register_engine",
    "register_matcher",
    "resolve_engine",
]

_FACTORIES: dict[str, Callable[[], DiffEngine]] = {}
_INSTANCES: dict[str, DiffEngine] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.engine.engines  # noqa: F401  (registers on import)


def register_engine(
    name: str, factory: Callable[[], DiffEngine]
) -> Callable[[], DiffEngine]:
    """Register (or replace) an engine factory under ``name``.

    The factory is called lazily, once, on first :func:`get_engine`
    lookup; engines are expected to be stateless across runs (per-run
    state lives in :class:`~repro.engine.base.EngineRun`).
    """
    if not name:
        raise EngineError("engine name must be non-empty")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    return factory


def register_matcher(name: str, matcher: Matcher) -> DiffEngine:
    """Register a bare :class:`Matcher` as a two-stage engine."""
    engine = MatcherEngine(name, matcher)
    register_engine(name, lambda: engine)
    return engine


def available_engines() -> list[str]:
    """Sorted names of every registered engine."""
    _ensure_builtins()
    return sorted(_FACTORIES)


def get_engine(name: str) -> DiffEngine:
    """The engine registered under ``name``.

    Raises:
        EngineError: Unknown name (the message lists what is available).
    """
    _ensure_builtins()
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _FACTORIES.get(name)
    if factory is None:
        raise EngineError(
            f"unknown engine {name!r}; available: "
            + ", ".join(sorted(_FACTORIES))
        )
    instance = factory()
    if not instance.name:
        instance.name = name
    _INSTANCES[name] = instance
    return instance


def resolve_engine(engine: Union[str, DiffEngine]) -> DiffEngine:
    """Accept an engine name or instance; return the instance."""
    if isinstance(engine, DiffEngine):
        return engine
    return get_engine(engine)


def diff(
    old_document: Document,
    new_document: Document,
    config: Optional[DiffConfig] = None,
    *,
    allocator: Optional[XidAllocator] = None,
    engine: str = "buld",
) -> Delta:
    """Compute the delta transforming ``old_document`` into ``new_document``.

    Args:
        old_document: Base version; receives initial XIDs if unlabelled.
        new_document: Target version; receives XIDs as a side effect.
        config: Tuning knobs (:class:`~repro.core.config.DiffConfig`);
            defaults are the paper's settings.
        allocator: XID source for inserted nodes (version stores pass the
            document's persistent allocator).
        engine: Registered engine name (default the paper's BULD).

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
    engine: str = "buld",
    tracer=None,
    metrics=None,
    recorder=None,
) -> tuple[Delta, DiffStats]:
    """Like :func:`diff` but also returns per-stage statistics.

    Args:
        tracer: Optional :class:`repro.obs.trace.Tracer`; the engine
            emits one ``engine:<name>`` span wrapping one
            ``stage:<name>`` span per pipeline stage.  Stage spans carry
            the engine's own timing measurement, so the trace and the
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
    delta, stats = resolve_engine(engine).diff_with_stats(
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

"""repro.engine — the pluggable diff-engine pipeline.

This layer turns every diff algorithm in the repository into an
interchangeable engine behind one entry point:

    from repro.engine import get_engine

    engine = get_engine("buld")           # or "lu", "ladiff", "diffmk", "flat"
    delta, stats = engine.diff_with_stats(old, new)

Pieces:

- :class:`Matcher` / :class:`DiffEngine` / :class:`MatcherEngine` — the
  protocol and base classes (:mod:`repro.engine.base`);
- :class:`DiffContext` — per-run config, allocator, phase-event hooks,
  counters, stage skipping (:mod:`repro.engine.context`);
- :class:`AnnotationStore` — cross-run signature/weight reuse keyed by
  document content (:mod:`repro.engine.annotations`);
- the registry — :func:`register_engine`, :func:`register_matcher`,
  :func:`get_engine`, :func:`available_engines`
  (:mod:`repro.engine.registry`);
- the built-ins (:mod:`repro.engine.engines`), loaded lazily on first
  lookup.

:func:`repro.diff` remains the one-call API; it is now a thin shim over
``get_engine("buld")``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AnnotationStore",
    "DiffContext",
    "DiffEngine",
    "EngineError",
    "EngineRun",
    "Matcher",
    "MatcherEngine",
    "Stage",
    "StageEvent",
    "StageTiming",
    "available_engines",
    "get_engine",
    "register_engine",
    "register_matcher",
    "resolve_engine",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "annotations": ("AnnotationStore",),
    "base": (
        "DiffEngine", "EngineError", "EngineRun", "Matcher", "MatcherEngine",
        "Stage",
    ),
    "context": ("DiffContext", "StageEvent", "StageTiming"),
    "registry": (
        "available_engines", "get_engine", "register_engine",
        "register_matcher", "resolve_engine",
    ),
})

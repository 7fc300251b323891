"""repro.engine — the pluggable diff-engine pipeline.

This layer turns every diff algorithm in the repository into an
interchangeable engine behind one entry point:

    from repro.engine import get_engine

    engine = get_engine("buld")           # or "lu", "ladiff", "diffmk", "flat"
    delta, stats = engine.diff_with_stats(old, new)

Pieces:

- :func:`diff` / :func:`diff_with_stats` — the library's one diff entry
  point (:mod:`repro.engine.registry`), returning the delta and the
  run's :class:`DiffStats`; ``repro.diff`` and ``repro.core.diff`` are
  re-exports;
- :class:`Matcher` / :class:`DiffEngine` / :class:`MatcherEngine` — the
  protocol and base classes (:mod:`repro.engine.base`);
- :class:`DiffContext` — per-run config, allocator, tracer, recorder
  and counters (:mod:`repro.engine.context`);
- the registry — :func:`register_engine`, :func:`register_matcher`,
  :func:`get_engine`, :func:`available_engines`
  (:mod:`repro.engine.registry`);
- the built-ins (:mod:`repro.engine.engines`), loaded lazily on first
  lookup.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DiffContext",
    "DiffEngine",
    "DiffStats",
    "EngineError",
    "EngineRun",
    "Matcher",
    "MatcherEngine",
    "Stage",
    "available_engines",
    "diff",
    "diff_with_stats",
    "get_engine",
    "register_engine",
    "register_matcher",
    "resolve_engine",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "DiffEngine", "DiffStats", "EngineError", "EngineRun", "Matcher",
        "MatcherEngine", "Stage",
    ),
    "context": ("DiffContext",),
    "registry": (
        "available_engines", "diff", "diff_with_stats", "get_engine",
        "register_engine", "register_matcher", "resolve_engine",
    ),
})

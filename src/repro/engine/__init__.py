"""repro.engine — every diff algorithm behind one entry point.

    from repro.engine import diff_with_stats

    delta, stats = diff_with_stats(old, new, engine="buld")
    # or "lu", "ladiff", "diffmk", "flat" — or an engine instance

Two modules:

- :mod:`repro.engine.base` — :class:`DiffEngine` (the run protocol: XID
  preparation, stage timing, tracing, the shared ``build-delta`` stage),
  :class:`MatcherEngine` (wraps any object with a ``match`` method),
  :class:`DiffContext` (per-run config, allocator, tracer, recorder and
  counters) and :class:`DiffStats`;
- :mod:`repro.engine.engines` — the five engines in the fixed
  ``ENGINES`` table, :func:`get_engine`, :func:`available_engines`, and
  the library's one diff entry point, :func:`diff` /
  :func:`diff_with_stats` (``repro.diff`` and ``repro.core.diff`` are
  re-exports).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DiffContext",
    "DiffEngine",
    "DiffStats",
    "EngineError",
    "MatcherEngine",
    "available_engines",
    "diff",
    "diff_with_stats",
    "get_engine",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "DiffContext", "DiffEngine", "DiffStats", "EngineError",
        "MatcherEngine",
    ),
    "engines": ("available_engines", "diff", "diff_with_stats", "get_engine"),
})

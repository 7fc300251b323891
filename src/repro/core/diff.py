"""Re-exports of the engine layer's diff entry point.

:func:`diff`, :func:`diff_with_stats` and :class:`DiffStats` live in
:mod:`repro.engine.engines` and :mod:`repro.engine.base`; this module
keeps ``from repro.core.diff import diff`` working.
"""

from repro.engine.base import DiffStats
from repro.engine.engines import diff, diff_with_stats

__all__ = ["DiffStats", "diff", "diff_with_stats"]

"""Per-run orchestration state: :class:`DiffContext`.

One :class:`DiffContext` accompanies one diff run through an engine's
pipeline.  It carries the configuration and the XID allocator (the two
inputs every engine needs), the optional tracer and provenance recorder,
and the counters the run accumulates.  Stage timings are not kept here:
the engine writes them straight into the run's
:class:`~repro.engine.base.DiffStats` (see :mod:`repro.engine.base` for
stage order vs the paper's phase numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import DiffConfig
from repro.core.xid import XidAllocator

__all__ = ["DiffContext"]


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
            :class:`~repro.engine.base.DiffStats`.
        tracer: Optional :class:`repro.obs.trace.Tracer`.  When set, the
            engine opens one ``engine:<name>`` span around the pipeline
            and one ``stage:<name>`` span per stage, each stage span's
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

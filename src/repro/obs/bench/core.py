"""The benchmark harness: registered cases run with warmup + repeats.

A :class:`BenchCase` is one measured configuration (one document size,
one engine, one tuning knob); an :class:`Experiment` groups the cases
that reproduce one paper figure and owes its id (``FIG4`` ...) to
DESIGN.md.  The :class:`BenchRunner` executes them:

- ``setup`` builds the workload once per case (documents, corpora) —
  never timed;
- ``prepare`` runs before *every* repeat (cloning masters, pre-computing
  baseline sizes) — never timed;
- ``run`` is the timed region.  It receives a :class:`RepeatObs` whose
  tracer/metrics it threads into the code under test
  (``diff_with_stats(**obs.diff_kwargs)``, ``VersionStore(tracer=...)``),
  and returns the case's quality metrics (delta bytes, ratios, ...).

Timing is deliberately two-layered.  The runner measures the whole
``run`` call (wall via ``perf_counter``, CPU via ``process_time``,
optionally the ``tracemalloc`` peak).  The *per-stage* breakdown is not
re-measured: it is collected from the ``stage:<name>`` spans the engine
already records on the repeat's tracer — the same single
``perf_counter`` measurement that backs ``DiffStats`` and the
``repro_stage_seconds`` histogram (see ``docs/observability.md``,
"single source of truth").  A case that wants extra breakdown rows
(SITE's parse/serialize steps) opens its own ``stage:<name>`` spans on
``obs.tracer`` and they appear in the same table.
"""

from __future__ import annotations

import fnmatch
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.bench import results as _results
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.xmlkit.errors import ReproError

__all__ = [
    "BenchCase",
    "BenchError",
    "BenchRunner",
    "Experiment",
    "RepeatObs",
    "available_experiments",
    "get_experiment",
    "register_experiment",
]


class BenchError(ReproError):
    """Raised on harness misuse (unknown experiment, bad filter, ...)."""


@dataclass
class RepeatObs:
    """Instrumentation handed to a case's ``run`` for one repeat."""

    tracer: Tracer
    metrics: MetricsRegistry

    @property
    def diff_kwargs(self) -> dict:
        """Keywords to splat into ``diff_with_stats``."""
        return {"tracer": self.tracer, "metrics": self.metrics}


@dataclass
class BenchCase:
    """One measured benchmark configuration.

    Attributes:
        name: Unique within the experiment; shown in reports and matched
            by ``--filter`` (as ``EXPERIMENT:name``).
        setup: Builds the per-case workload state (untimed, once).
        run: The timed region: ``run(prepared, obs) -> quality dict``.
            Quality values must be JSON-able numbers (or strings for
            purely informational facts such as digests).
        prepare: Optional per-repeat, untimed step mapping the setup
            state to what ``run`` consumes (typically cloning master
            documents so XID labelling does not leak across repeats).
        params: Static JSON-able description of the configuration.
        gated_quality: Quality keys the ``--compare`` gate treats as
            *lower-is-better* regressions; all other keys are
            informational.
        gate_wall: Whether the ``--compare`` gate judges this case's
            median wall time.  Off for workloads whose timing is
            dominated by injected faults and retry sleeps (the chaos
            scenarios): their wall clock is an outcome of fault-timing
            races, not a performance signal, so only the quality
            invariants gate.
    """

    name: str
    setup: Callable[[], object]
    run: Callable[[object, RepeatObs], dict]
    prepare: Optional[Callable[[object], object]] = None
    params: dict = field(default_factory=dict)
    gated_quality: tuple = ()
    gate_wall: bool = True


@dataclass
class Experiment:
    """A named, registered group of benchmark cases (one paper figure).

    Attributes:
        id: Stable experiment id (``FIG4`` ... ``STORE``) — also the
            ``BENCH_<id>.json`` file name.
        title: One-line description for reports.
        cases: ``cases(fast) -> list[BenchCase]`` — the fast tier is the
            CI ``perf-smoke`` workload, the full tier the paper-scale
            sweep.
        summarize: Optional ``summarize(case_payloads) -> dict`` deriving
            the experiment-level figures the old text reports printed
            (log-log slope, average ratios, speedups).
        notes: Free-form lines rendered under the report table (paper
            quotes, workload description).
    """

    id: str
    title: str
    cases: Callable[[bool], list]
    summarize: Optional[Callable[[list], dict]] = None
    notes: tuple = ()


_REGISTRY: dict[str, Experiment] = {}


def register_experiment(experiment: Experiment) -> Experiment:
    """Register (or replace) an experiment under its id."""
    _REGISTRY[experiment.id.upper()] = experiment
    return experiment


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return _REGISTRY[experiment_id.upper()]
    except KeyError:
        raise BenchError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {available_experiments()}"
        ) from None


def available_experiments() -> list[str]:
    """Registered experiment ids, in registration order."""
    return list(_REGISTRY)


class BenchRunner:
    """Executes experiments: warmup, repeats, instrumentation, payload.

    Args:
        repeat: Timed repeats per case (median/min/IQR are computed over
            these).
        warmup: Untimed runs per case before the first repeat (JIT-less
            Python still benefits: branch caches, page faults, lazy
            imports).
        trace_memory: Record the ``tracemalloc`` peak per repeat
            (slower; off by default).
        progress: Optional callable receiving live one-line progress
            strings (the CLI points this at stderr).
    """

    def __init__(
        self,
        repeat: int = 3,
        warmup: int = 1,
        trace_memory: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ):
        if repeat < 1:
            raise BenchError("repeat must be >= 1")
        if warmup < 0:
            raise BenchError("warmup must be >= 0")
        self.repeat = repeat
        self.warmup = warmup
        self.trace_memory = trace_memory
        self.progress = progress

    # -- public API --------------------------------------------------------

    def run_experiment(
        self,
        experiment: Experiment | str,
        fast: bool = False,
        case_filter: Optional[str] = None,
    ) -> Optional[dict]:
        """Run one experiment; returns the validated payload dict.

        ``case_filter`` matches ``<id>:<case name>`` with ``fnmatch``
        semantics (a bare substring also matches).  Returns ``None``
        when the filter excludes every case of this experiment.
        """
        if isinstance(experiment, str):
            experiment = get_experiment(experiment)
        cases = experiment.cases(fast)
        if case_filter:
            cases = [
                case
                for case in cases
                if _matches(case_filter, experiment.id, case.name)
            ]
        if not cases:
            return None
        self._emit(f"[{experiment.id}] {experiment.title}")
        case_payloads = [
            self._run_case(experiment, case) for case in cases
        ]
        summary = (
            experiment.summarize(case_payloads)
            if experiment.summarize is not None
            else {}
        )
        now, iso = _results.timestamp()
        payload = {
            "schema": _results.SCHEMA,
            "experiment": experiment.id,
            "title": experiment.title,
            "fast": fast,
            "generated_at": now,
            "generated_at_iso": iso,
            "git_sha": _results.git_sha(),
            "machine": _results.machine_info(),
            "settings": {
                "repeat": self.repeat,
                "warmup": self.warmup,
                "trace_memory": self.trace_memory,
            },
            "notes": list(experiment.notes),
            "cases": case_payloads,
            "summary": summary,
        }
        problems = _results.validate_bench_payload(payload)
        if problems:  # a bug in a case definition, not user error
            raise BenchError(
                f"experiment {experiment.id} produced an invalid payload:\n  "
                + "\n  ".join(problems)
            )
        return payload

    # -- internals ---------------------------------------------------------

    def _run_case(self, experiment: Experiment, case: BenchCase) -> dict:
        state = case.setup()
        metrics = MetricsRegistry()
        walls: list[float] = []
        cpus: list[float] = []
        stage_samples: dict[str, list[float]] = {}
        memory_peaks: list[int] = []
        quality: dict = {}

        total = self.warmup + self.repeat
        for iteration in range(total):
            timed = iteration >= self.warmup
            tracer = Tracer()
            obs = RepeatObs(
                tracer=tracer,
                # warmup must not pollute the exported histograms
                metrics=metrics if timed else MetricsRegistry(),
            )
            prepared = (
                case.prepare(state) if case.prepare is not None else state
            )
            if timed and self.trace_memory:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                tracemalloc.reset_peak()
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            result = case.run(prepared, obs)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if not timed:
                continue
            if self.trace_memory:
                memory_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            walls.append(wall)
            cpus.append(cpu)
            quality = dict(result or {})
            for stage, seconds in _stage_seconds(tracer).items():
                stage_samples.setdefault(stage, []).append(seconds)
            self._emit(
                f"[{experiment.id}] {case.name}: repeat "
                f"{iteration - self.warmup + 1}/{self.repeat} "
                f"{wall * 1000:.1f} ms"
            )

        missing = set(case.gated_quality) - set(quality)
        if missing:
            raise BenchError(
                f"case {experiment.id}:{case.name} gated quality keys "
                f"{sorted(missing)} absent from its run() result"
            )
        histogram = metrics.get("repro_stage_seconds")
        return {
            "name": case.name,
            "params": dict(case.params),
            "wall_seconds": _results.stat_summary(walls),
            "cpu_seconds": _results.stat_summary(cpus),
            "stage_seconds": {
                stage: _results.stat_summary(samples)
                for stage, samples in stage_samples.items()
            },
            "stage_histogram": (
                _histogram_export(histogram) if histogram is not None else None
            ),
            "memory_peak_bytes": max(memory_peaks) if memory_peaks else None,
            "quality": quality,
            "gated_quality": list(case.gated_quality),
            "gate_wall": case.gate_wall,
        }

    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)


def _matches(pattern: str, experiment_id: str, case_name: str) -> bool:
    """``--filter`` semantics: fnmatch on ``ID:case``, else substring."""
    qualified = f"{experiment_id}:{case_name}"
    if fnmatch.fnmatchcase(qualified, pattern):
        return True
    return pattern in qualified


def _stage_seconds(tracer: Tracer) -> dict[str, float]:
    """Total seconds per ``stage:<name>`` span on ``tracer``.

    Summed because one repeat may run many diffs (FIG6 diffs a corpus,
    STORE commits a chain); each span's duration is the engine's own
    measurement, never re-timed here.
    """
    totals: dict[str, float] = {}
    for span in tracer.iter_spans():
        if span.name.startswith("stage:"):
            stage = span.name[len("stage:"):]
            totals[stage] = totals.get(stage, 0.0) + span.duration
    return totals


def _histogram_export(histogram) -> dict:
    """JSON form of one histogram (same shape as ``to_dict`` uses)."""
    import math

    series = []
    for key, value in sorted(histogram.labelled_values().items()):
        series.append(
            {
                "labels": dict(key),
                "count": value["count"],
                "sum": value["sum"],
                "buckets": [
                    {
                        "le": "+Inf" if bound == math.inf else bound,
                        "count": count,
                    }
                    for bound, count in value["buckets"]
                ],
            }
        )
    return {"buckets": list(histogram.buckets), "series": series}

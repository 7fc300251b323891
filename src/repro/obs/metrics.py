"""Metrics: counters, gauges and fixed-bucket histograms.

Where :mod:`repro.obs.trace` answers "where did *this run's* time go",
the :class:`MetricsRegistry` answers the fleet question a
production-scale warehouse asks: how many diffs ran, how is stage
latency distributed, how many commits landed.  The design
is deliberately the smallest thing Prometheus-shaped scraping needs:

- three instrument kinds — :class:`Counter` (monotone), :class:`Gauge`
  (set/add), :class:`Histogram` (fixed upper-bound buckets, cumulative
  on export, plus ``_sum``/``_count``);
- **labels** as keyword arguments at observation time (``histogram.
  observe(0.2, stage="annotate")``), stored per sorted label tuple;
- two exporters — :meth:`MetricsRegistry.to_dict` (JSON-friendly) and
  :meth:`MetricsRegistry.to_prometheus` (the Prometheus text exposition
  format: ``# HELP`` / ``# TYPE`` headers, one sample per line,
  ``le``-labelled cumulative buckets ending at ``+Inf``).

Everything is stdlib-only and thread-compatible (one registry per
process or per run; no internal locking — matching the library's
threading story).
"""

from __future__ import annotations

import json
import math
from typing import Optional

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "STAGE_BUCKETS",
    "observe_stage_seconds",
]

#: Default histogram upper bounds (seconds): 100 µs .. 30 s, log-spaced.
#: Chosen to straddle the paper's workloads — a 100-node diff lands in
#: the sub-millisecond buckets, the 5 MB site snapshot near the top.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: ``repro_stage_seconds`` upper bounds (seconds): 10 µs .. 300 s.  Stages
#: are the sub-spans of a diff, so the range starts an order of magnitude
#: below :data:`DEFAULT_BUCKETS`, and it reaches 300 s so a snapshot-scale
#: stage (a 14k-page site) still lands in a finite bucket.
STAGE_BUCKETS = (
    0.00001,
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _format_labels(key: tuple, extra: Optional[tuple] = None) -> str:
    pairs = list(key) + (list(extra) if extra else [])
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in pairs
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared shape: name, help text, unit, per-label-set values."""

    kind = ""

    def __init__(self, name: str, help: str = "", unit: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.unit = unit

    def labelled_values(self) -> dict:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = ""):
        super().__init__(name, help, unit)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def labelled_values(self) -> dict:
        return dict(self._values)


class Gauge(_Instrument):
    """A value that can go up and down (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = ""):
        super().__init__(name, help, unit)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def labelled_values(self) -> dict:
        return dict(self._values)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, bucket_count: int):
        self.bucket_counts = [0] * bucket_count  # per-bucket (not cumulative)
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket latency/size distribution (per label set).

    Buckets are *upper bounds*; a sample lands in the first bucket whose
    bound is >= the value, or in the implicit ``+Inf`` overflow.  Export
    follows the Prometheus convention: bucket counts are cumulative and
    an explicit ``+Inf`` bucket equals ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: tuple = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, unit)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate histogram buckets")
        self.buckets = bounds
        self._series: dict[tuple, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        index = _bisect_buckets(self.buckets, value)
        if index < len(self.buckets):
            series.bucket_counts[index] += 1
        series.total += value
        series.count += 1

    def sample_count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sample_sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def cumulative_buckets(self, **labels) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return [(bound, 0) for bound in self.buckets] + [(math.inf, 0)]
        pairs = []
        running = 0
        for bound, count in zip(self.buckets, series.bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((math.inf, series.count))
        return pairs

    def labelled_values(self) -> dict:
        return {
            key: {
                "count": series.count,
                "sum": series.total,
                "buckets": self.cumulative_buckets(**dict(key)),
            }
            for key, series in self._series.items()
        }


def _bisect_buckets(bounds: tuple, value: float) -> int:
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


class MetricsRegistry:
    """Named instruments plus the two exporters.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name returns the same instrument (re-declaring with a
    different kind raises).  That lets independent components share one
    registry without coordinating creation order.
    """

    def __init__(self):
        self._instruments: dict[str, _Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def _register(self, cls, name, help, unit, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            requested = kwargs.get("buckets")
            if (
                requested is not None
                and tuple(requested) != tuple(existing.buckets)
            ):
                # Silently returning the old instrument would record the
                # new samples against bounds the caller never asked for.
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{existing.buckets}, cannot re-register with "
                    f"{tuple(requested)}"
                )
            return existing
        instrument = cls(name, help=help, unit=unit, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._register(Counter, name, help, unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._register(Gauge, name, help, unit)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, unit, buckets=buckets
        )

    # -- exporters ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly snapshot of every instrument."""
        payload: dict = {}
        for name in self.names():
            instrument = self._instruments[name]
            series = []
            for key, value in sorted(instrument.labelled_values().items()):
                labels = dict(key)
                if isinstance(instrument, Histogram):
                    series.append(
                        {
                            "labels": labels,
                            "count": value["count"],
                            "sum": value["sum"],
                            "buckets": [
                                {
                                    "le": (
                                        "+Inf"
                                        if bound == math.inf
                                        else bound
                                    ),
                                    "count": count,
                                }
                                for bound, count in value["buckets"]
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": value})
            payload[name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "unit": instrument.unit,
                "series": series,
            }
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Instruments with no samples yet are still declared (HELP/TYPE)
        so a scrape always sees the full schema; counters and gauges
        with no series export nothing below the headers, matching
        client-library behaviour for labelled metrics.
        """
        lines: list[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            values = instrument.labelled_values()
            if isinstance(instrument, Histogram):
                for key in sorted(values):
                    value = values[key]
                    for bound, count in value["buckets"]:
                        lines.append(
                            f"{name}_bucket"
                            f"{_format_labels(key, (('le', _format_value(bound)),))}"
                            f" {count}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} "
                        f"{_format_value(value['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} {value['count']}"
                    )
            else:
                for key in sorted(values):
                    lines.append(
                        f"{name}{_format_labels(key)} "
                        f"{_format_value(values[key])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self):
        return f"<MetricsRegistry instruments={len(self._instruments)}>"


def observe_stage_seconds(metrics: MetricsRegistry, stats) -> None:
    """Observe each of a finished run's stage timings on ``metrics``.

    ``stats`` is the run's :class:`~repro.engine.base.DiffStats`; every
    ``stage_seconds`` entry becomes one ``repro_stage_seconds{stage=...}``
    sample, the very float the engine measured (and, with a tracer, the
    stage span's ``duration``) — nothing is timed twice.
    """
    histogram = metrics.histogram(
        "repro_stage_seconds",
        help="Wall-clock seconds per pipeline stage.",
        unit="seconds",
        buckets=STAGE_BUCKETS,
    )
    for stage, seconds in stats.stage_seconds.items():
        histogram.observe(seconds, stage=stage)

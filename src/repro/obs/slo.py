"""SLO arithmetic over the metrics registry: percentiles + error budget.

``compute_slo`` reads the server's own instruments —
``repro_server_requests_total`` for the error ratio and
``repro_server_request_seconds`` for latency — and produces the
numbers an operator actually alerts on:

- **p50 / p95 / p99** per route and overall, estimated from the
  cumulative histogram buckets the way Prometheus'
  ``histogram_quantile`` does it (linear interpolation inside the
  winning bucket; the ``+Inf`` bucket reports the highest finite
  bound);
- **error-budget burn**: the 5xx share of all requests divided by the
  budget the availability objective allows (``1 - objective``).  Burn
  1.0 means the budget is exactly spent; > 1.0 means the objective is
  being missed.

``GET /slo`` serves the report (schema ``repro.slo/1``), and
``tests/server/test_mixed_load.py`` holds the burn at zero under
concurrent diffs and commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_OBJECTIVE",
    "RouteSlo",
    "SCHEMA",
    "SloReport",
    "compute_slo",
    "histogram_quantile",
]

#: Schema identifier of the ``/slo`` payload.
SCHEMA = "repro.slo/1"

#: Default availability objective (three nines).
DEFAULT_OBJECTIVE = 0.999


def histogram_quantile(histogram, quantile: float, **labels) -> float:
    """Estimate a quantile from cumulative histogram buckets.

    Prometheus-compatible: linear interpolation between the previous
    bucket's upper bound and the winning bucket's; a quantile landing
    in the ``+Inf`` bucket reports the highest finite bound (the
    histogram cannot see further).  An empty series is 0.0.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be within [0, 1]")
    pairs = histogram.cumulative_buckets(**labels)
    total = pairs[-1][1]
    if total == 0:
        return 0.0
    rank = quantile * total
    previous_bound, previous_count = 0.0, 0
    for bound, count in pairs:
        if count >= rank:
            if bound == math.inf:
                return previous_bound
            if count == previous_count:
                return bound
            fraction = (rank - previous_count) / (count - previous_count)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return previous_bound


@dataclass
class RouteSlo:
    """Latency percentiles of one route (milliseconds)."""

    route: str
    samples: int
    p50_ms: float
    p95_ms: float
    p99_ms: float

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "samples": self.samples,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
        }


@dataclass
class SloReport:
    """Everything ``GET /slo`` reports."""

    objective: float
    requests: int
    errors: int
    error_ratio: float
    error_budget_burn: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    routes: list[RouteSlo] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "objective": self.objective,
            "requests": self.requests,
            "errors": self.errors,
            "error_ratio": self.error_ratio,
            "error_budget_burn": self.error_budget_burn,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "routes": [route.to_dict() for route in self.routes],
        }


def _round_ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def compute_slo(
    metrics,
    objective: float = DEFAULT_OBJECTIVE,
    *,
    requests_metric: str = "repro_server_requests_total",
    latency_metric: str = "repro_server_request_seconds",
) -> SloReport:
    """Build an :class:`SloReport` from a :class:`MetricsRegistry`.

    A registry without the server instruments (nothing served yet)
    yields an all-zero report rather than an error — ``/slo`` must
    answer from the first request on.
    """
    if not 0.0 < objective < 1.0:
        raise ValueError("objective must be strictly between 0 and 1")
    requests = errors = 0
    counter = metrics.get(requests_metric)
    if counter is not None:
        for key, value in counter.labelled_values().items():
            labels = dict(key)
            requests += int(value)
            if str(labels.get("status", "")).startswith("5"):
                errors += int(value)
    error_ratio = errors / requests if requests else 0.0
    budget = 1.0 - objective
    burn = error_ratio / budget

    routes: list[RouteSlo] = []
    overall = {0.5: 0.0, 0.95: 0.0, 0.99: 0.0}
    histogram = metrics.get(latency_metric)
    if histogram is not None:
        per_route = histogram.labelled_values()
        for key in sorted(per_route):
            labels = dict(key)
            routes.append(
                RouteSlo(
                    route=str(labels.get("route", "")),
                    samples=per_route[key]["count"],
                    p50_ms=_round_ms(
                        histogram_quantile(histogram, 0.5, **labels)
                    ),
                    p95_ms=_round_ms(
                        histogram_quantile(histogram, 0.95, **labels)
                    ),
                    p99_ms=_round_ms(
                        histogram_quantile(histogram, 0.99, **labels)
                    ),
                )
            )
        # Overall percentiles: merge every route's cumulative buckets
        # (same bounds by construction — one instrument).
        merged: dict[float, int] = {}
        for key in per_route:
            for bound, count in per_route[key]["buckets"]:
                merged[bound] = merged.get(bound, 0) + count
        if merged:
            pairs = sorted(merged.items())
            view = _MergedHistogram(pairs)
            for quantile in overall:
                overall[quantile] = histogram_quantile(view, quantile)
    return SloReport(
        objective=objective,
        requests=requests,
        errors=errors,
        error_ratio=round(error_ratio, 6),
        error_budget_burn=round(burn, 6),
        p50_ms=_round_ms(overall[0.5]),
        p95_ms=_round_ms(overall[0.95]),
        p99_ms=_round_ms(overall[0.99]),
        routes=routes,
    )


class _MergedHistogram:
    """Adapter giving merged bucket pairs the histogram interface."""

    def __init__(self, pairs: list[tuple[float, int]]):
        self._pairs = pairs

    def cumulative_buckets(self, **labels) -> list[tuple[float, int]]:
        return self._pairs

"""SLO arithmetic: quantile estimation and error-budget burn."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    OBJECTIVE,
    SCHEMA,
    compute_slo,
    histogram_quantile,
)


def _histogram(registry, buckets=(0.1, 0.2, 0.4, math.inf)):
    finite = tuple(bound for bound in buckets if bound != math.inf)
    return registry.histogram(
        "repro_server_request_seconds", buckets=finite
    )


# -- histogram_quantile -------------------------------------------------------


def test_quantile_interpolates_inside_the_winning_bucket():
    registry = MetricsRegistry()
    histogram = _histogram(registry)
    # 10 samples in (0.1, 0.2]: cumulative (0.1, 0), (0.2, 10).
    for _ in range(10):
        histogram.observe(0.15, route="diff")
    # Prometheus-style: rank 5 lands halfway through the 0.1..0.2 span.
    assert histogram_quantile(histogram, 0.5, route="diff") == pytest.approx(
        0.15
    )
    assert histogram_quantile(histogram, 1.0, route="diff") == pytest.approx(
        0.2
    )


def test_quantile_of_empty_series_is_zero():
    registry = MetricsRegistry()
    histogram = _histogram(registry)
    assert histogram_quantile(histogram, 0.95, route="diff") == 0.0


def test_quantile_in_inf_bucket_reports_highest_finite_bound():
    registry = MetricsRegistry()
    histogram = _histogram(registry)
    histogram.observe(10.0, route="diff")  # lands in +Inf
    assert histogram_quantile(histogram, 0.99, route="diff") == 0.4


def test_quantile_validates_range():
    registry = MetricsRegistry()
    histogram = _histogram(registry)
    with pytest.raises(ValueError):
        histogram_quantile(histogram, 1.5, route="diff")


# -- compute_slo --------------------------------------------------------------


def test_empty_registry_yields_all_zero_report():
    report = compute_slo(MetricsRegistry())
    assert report.requests == 0
    assert report.errors == 0
    assert report.error_ratio == 0.0
    assert report.error_budget_burn == 0.0
    assert report.p50_ms == report.p95_ms == report.p99_ms == 0.0
    assert report.routes == []
    assert report.objective == OBJECTIVE == 0.999
    assert report.to_dict()["schema"] == SCHEMA


def test_error_budget_burn_is_5xx_share_over_budget():
    registry = MetricsRegistry()
    counter = registry.counter("repro_server_requests_total")
    counter.inc(997, route="diff", status="200")
    counter.inc(2, route="diff", status="500")
    counter.inc(1, route="commit", status="503")
    # 4xx are the caller's fault — they do not burn server budget.
    counter.inc(50, route="commit", status="404")

    report = compute_slo(registry)
    assert report.requests == 1050
    assert report.errors == 3
    assert report.error_ratio == pytest.approx(3 / 1050, abs=1e-6)
    assert report.error_budget_burn == pytest.approx(
        (3 / 1050) / 0.001, abs=1e-3
    )
    assert report.error_budget_burn > 1.0  # objective being missed


def test_burn_exactly_one_when_budget_exactly_spent():
    registry = MetricsRegistry()
    counter = registry.counter("repro_server_requests_total")
    counter.inc(999, route="diff", status="200")
    counter.inc(1, route="diff", status="500")
    report = compute_slo(registry)
    assert report.error_budget_burn == pytest.approx(1.0)


def test_per_route_and_overall_percentiles():
    registry = MetricsRegistry()
    counter = registry.counter("repro_server_requests_total")
    histogram = _histogram(registry)
    for _ in range(100):
        histogram.observe(0.05, route="fast")
        counter.inc(route="fast", status="200")
    for _ in range(100):
        histogram.observe(0.3, route="slow")
        counter.inc(route="slow", status="200")

    report = compute_slo(registry)
    by_route = {route.route: route for route in report.routes}
    assert set(by_route) == {"fast", "slow"}
    assert by_route["fast"].samples == 100
    assert by_route["fast"].p95_ms <= 100.0
    assert by_route["slow"].p50_ms >= 200.0
    # Overall: half the traffic is fast, half slow — the p50 sits at or
    # below the fast bucket's bound, the p95 in the slow bucket's span.
    assert report.p50_ms <= 100.0
    assert report.p95_ms > 200.0
    assert report.p99_ms >= report.p95_ms >= report.p50_ms
    payload = report.to_dict()
    assert payload["routes"][0]["samples"] == 100

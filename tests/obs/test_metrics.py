"""MetricsRegistry: instruments, exporters, Prometheus text grammar."""

import json
import math
import re

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram
from tests.obs.histograms import samples

# Prometheus text exposition format (version 0.0.4), the subset we emit:
# comment lines and sample lines `name{labels} value`.
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$"
)
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\+Inf|-Inf|NaN|[0-9.eE+-]+)$"
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_labels_are_independent_series(self):
        counter = Counter("stages_total")
        counter.inc(stage="annotate")
        counter.inc(stage="annotate")
        counter.inc(stage="propagate")
        assert counter.value(stage="annotate") == 2
        assert counter.value(stage="propagate") == 1
        assert counter.value(stage="missing") == 0

    def test_counters_refuse_decrements(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_add(self):
        gauge = Gauge("entries")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value() == 7


class TestHistogram:
    def test_samples_land_in_buckets_cumulatively(self):
        histogram = Histogram("seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        count, total = samples(histogram)
        assert count == 5
        assert total == pytest.approx(56.05)
        assert histogram.cumulative_buckets() == [
            (0.1, 1),
            (1.0, 3),
            (10.0, 4),
            (math.inf, 5),
        ]

    def test_boundary_value_goes_to_lower_bucket(self):
        histogram = Histogram("seconds", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le="1.0" is inclusive
        assert histogram.cumulative_buckets()[0] == (1.0, 1)

    def test_empty_series_still_shapes_buckets(self):
        histogram = Histogram("seconds", buckets=(1.0,))
        assert histogram.cumulative_buckets() == [(1.0, 0), (math.inf, 0)]

    def test_rejects_empty_or_duplicate_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c", help="text")
        second = registry.counter("c")
        assert first is second
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "9lives", "has space", "has-dash"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]


class TestJsonExporter:
    def test_full_round_trip_through_json(self):
        registry = MetricsRegistry()
        registry.counter("diffs_total", help="runs").inc(engine="buld")
        registry.gauge("entries").set(4)
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.05, stage="annotate")
        payload = json.loads(registry.to_json())
        assert payload["diffs_total"]["kind"] == "counter"
        assert payload["diffs_total"]["series"] == [
            {"labels": {"engine": "buld"}, "value": 1.0}
        ]
        assert payload["entries"]["series"][0]["value"] == 4.0
        lat = payload["lat"]["series"][0]
        assert lat["labels"] == {"stage": "annotate"}
        assert lat["count"] == 1
        assert lat["buckets"][-1] == {"le": "+Inf", "count": 1}


class TestPrometheusExporter:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_diffs_total", help="Diff runs completed."
        ).inc(engine="buld")
        registry.gauge("repro_cache_entries").set(3)
        histogram = registry.histogram(
            "repro_stage_seconds", help="per stage", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05, stage="annotate")
        histogram.observe(0.5, stage="annotate")
        return registry

    def test_every_line_parses_under_the_text_format_grammar(self):
        for line in self._registry().to_prometheus().splitlines():
            assert (
                _HELP_RE.match(line)
                or _TYPE_RE.match(line)
                or _SAMPLE_RE.match(line)
            ), f"unparseable exposition line: {line!r}"

    def test_type_precedes_samples_and_help_precedes_type(self):
        lines = self._registry().to_prometheus().splitlines()
        seen_type_for = None
        for line in lines:
            if line.startswith("# HELP"):
                assert seen_type_for is None or True  # HELP starts a block
            if line.startswith("# TYPE"):
                seen_type_for = line.split()[2]
            elif not line.startswith("#") and line:
                assert seen_type_for is not None
                assert line.split("{")[0].startswith(seen_type_for)

    def test_histogram_convention(self):
        text = self._registry().to_prometheus()
        assert (
            'repro_stage_seconds_bucket{stage="annotate",le="0.1"} 1' in text
        )
        assert (
            'repro_stage_seconds_bucket{stage="annotate",le="1"} 2' in text
        )
        assert (
            'repro_stage_seconds_bucket{stage="annotate",le="+Inf"} 2' in text
        )
        assert 'repro_stage_seconds_count{stage="annotate"} 2' in text
        assert "# TYPE repro_stage_seconds histogram" in text

    def test_counter_sample(self):
        text = self._registry().to_prometheus()
        assert 'repro_diffs_total{engine="buld"} 1' in text
        assert "# TYPE repro_diffs_total counter" in text
        assert "# HELP repro_diffs_total Diff runs completed." in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(path='a"b\\c\nd')
        text = registry.to_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_empty_registry_exports_empty_string(self):
        assert MetricsRegistry().to_prometheus() == ""

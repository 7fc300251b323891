"""Stage profiling: the single-source-of-truth timing contract.

The engine measures each pipeline stage exactly once; the trace spans,
``DiffStats.stage_seconds`` and the ``repro_stage_seconds`` histogram
samples must all carry that same float.  These tests pin the contract
with exact (bitwise) float equality — any component that starts
re-timing stages on its own will break them.
"""

import pytest

from repro import MetricsRegistry, Tracer, diff_with_stats, parse
from repro.engine import MatcherEngine
from repro.obs.metrics import STAGE_BUCKETS, observe_stage_seconds
from repro.versioning import VersionStore

OLD = (
    "<site><page><title>one</title><body>alpha beta</body></page>"
    "<page><title>two</title><body>gamma</body></page></site>"
)
NEW = (
    "<site><page><title>one</title><body>alpha beta gamma</body></page>"
    "<page><title>three</title><body>delta</body></page></site>"
)

BULD_STAGES = [
    "annotate",
    "id-attributes",
    "match-subtrees",
    "propagate",
    "build-delta",
]


def _stage_spans(tracer):
    """{stage: span} from the engine root span's children."""
    (engine_span,) = tracer.roots
    return {span.attrs["stage"]: span for span in engine_span.children}


class TestEngineNativeSpans:
    def test_engine_span_wraps_stage_spans(self):
        tracer = Tracer()
        diff_with_stats(parse(OLD), parse(NEW), tracer=tracer)
        (engine_span,) = tracer.roots
        assert engine_span.name == "engine:buld"
        assert engine_span.attrs["engine"] == "buld"
        assert engine_span.attrs["old_nodes"] > 0
        assert [span.name for span in engine_span.children] == [
            f"stage:{name}" for name in BULD_STAGES
        ]

    def test_stage_spans_equal_stats_exactly(self):
        """Regression: stats are the span data, not a second timing."""
        tracer = Tracer()
        _, stats = diff_with_stats(parse(OLD), parse(NEW), tracer=tracer)
        spans = _stage_spans(tracer)
        assert set(spans) == set(stats.stage_seconds)
        for stage, seconds in stats.stage_seconds.items():
            assert spans[stage].duration == seconds  # bitwise equal

    def test_stage_spans_sum_close_to_engine_total(self):
        tracer = Tracer()
        diff_with_stats(parse(OLD), parse(NEW), tracer=tracer)
        (engine_span,) = tracer.roots
        stage_sum = sum(span.duration for span in engine_span.children)
        assert stage_sum <= engine_span.duration
        # the pipeline loop itself is noise next to the stages
        assert stage_sum > 0

    def test_no_tracer_no_spans_no_context_field_needed(self):
        _, stats = diff_with_stats(parse(OLD), parse(NEW))
        assert stats.stage_seconds  # timing still works without tracing


class TestProfilerMetrics:
    def test_histogram_and_counter_fed_per_stage(self):
        metrics = MetricsRegistry()
        _, stats = diff_with_stats(parse(OLD), parse(NEW), metrics=metrics)
        histogram = metrics.get("repro_stage_seconds")
        for stage in BULD_STAGES:
            assert histogram.sample_count(stage=stage) == 1
            assert histogram.sample_sum(stage=stage) == (
                stats.stage_seconds[stage]  # same float, not re-timed
            )
        assert metrics.get("repro_diffs_total").value(engine="buld") == 1

    def test_profiler_reusable_across_runs(self):
        metrics = MetricsRegistry()
        for _ in range(3):
            diff_with_stats(parse(OLD), parse(NEW), metrics=metrics)
        assert metrics.get("repro_stage_seconds").sample_count(
            stage="annotate"
        ) == 3

    def test_span_stats_and_histogram_agree_bitwise(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        _, stats = diff_with_stats(
            parse(OLD), parse(NEW), tracer=tracer, metrics=metrics
        )
        spans = _stage_spans(tracer)
        histogram = metrics.get("repro_stage_seconds")
        for stage in BULD_STAGES:
            seconds = stats.stage_seconds[stage]
            assert spans[stage].duration == seconds
            assert histogram.sample_sum(stage=stage) == seconds

    def test_version_store_commit_agrees_bitwise(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        store = VersionStore(tracer=tracer, metrics=metrics)
        store.create("doc", parse(OLD))
        store.commit("doc", parse(NEW))
        commit_span = tracer.roots[-1]
        assert commit_span.name == "store.commit"
        (engine_span,) = commit_span.children
        spans = {span.attrs["stage"]: span for span in engine_span.children}
        histogram = metrics.get("repro_stage_seconds")
        for stage in BULD_STAGES:
            seconds = store.last_stats.stage_seconds[stage]
            assert spans[stage].duration == seconds
            assert histogram.sample_sum(stage=stage) == seconds
        assert metrics.get("repro_commits_total").value(engine="buld") == 1

    def test_failed_run_records_no_stage_samples(self):
        class Boom(Exception):
            pass

        class Exploding:
            def match(self, old, new, context):
                raise Boom

        metrics = MetricsRegistry()
        with pytest.raises(Boom):
            diff_with_stats(
                parse(OLD), parse(NEW), metrics=metrics,
                engine=MatcherEngine("exploding", Exploding()),
            )
        assert "repro_stage_seconds" not in metrics
        assert "repro_diffs_total" not in metrics


class TestDeltaUnaffected:
    @pytest.mark.parametrize("engine", ["buld", "flat"])
    def test_instrumented_run_produces_identical_delta(self, engine):
        from repro.core.deltaxml import serialize_delta

        plain, _ = diff_with_stats(parse(OLD), parse(NEW), engine=engine)
        traced, _ = diff_with_stats(
            parse(OLD),
            parse(NEW),
            engine=engine,
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )
        assert serialize_delta(plain) == serialize_delta(traced)


class TestConfigurableBuckets:
    """One set of bounds, 10 µs to 300 s, for every workload."""

    def test_two_minute_stage_lands_in_a_finite_bucket(self):
        class Stats:
            stage_seconds = {"match": 120.0}

        metrics = MetricsRegistry()
        observe_stage_seconds(metrics, Stats())
        pairs = metrics.get("repro_stage_seconds").cumulative_buckets(
            stage="match"
        )
        # 120 s lands inside 120 s instead of overflowing to +Inf
        assert dict(pairs)[120.0] == 1

    def test_default_buckets_are_stage_buckets(self):
        metrics = MetricsRegistry()
        diff_with_stats(parse(OLD), parse(NEW), metrics=metrics)
        histogram = metrics.get("repro_stage_seconds")
        assert histogram.buckets == STAGE_BUCKETS
        assert (STAGE_BUCKETS[0], STAGE_BUCKETS[-1]) == (0.00001, 300.0)

    def test_registry_rejects_conflicting_buckets(self):
        """One registry, one repro_stage_seconds: bounds must agree."""
        metrics = MetricsRegistry()
        metrics.histogram("repro_stage_seconds", buckets=(1.0, 60.0))
        with pytest.raises(ValueError, match="buckets"):
            diff_with_stats(parse(OLD), parse(NEW), metrics=metrics)

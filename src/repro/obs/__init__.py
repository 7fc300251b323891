"""repro.obs — observability: tracing spans, metrics, provenance.

Three small, stdlib-only pieces (see ``docs/observability.md`` for the
full span/metric catalogue and how each maps onto the paper's figures):

- :mod:`repro.obs.trace` — :class:`Tracer` produces nested spans (wall
  and CPU time, optional ``tracemalloc`` peak) with a JSON-lines
  exporter, :func:`load_trace`, and the :func:`render_trace` tree view
  behind ``xydiff obs render``.  :data:`NULL_TRACER` is the
  zero-overhead default.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` holds counters,
  gauges and fixed-bucket histograms, exported as JSON or Prometheus
  text format; :func:`observe_stage_seconds` turns a finished run's
  ``DiffStats.stage_seconds`` into ``repro_stage_seconds`` samples
  without re-timing anything (the engine's one measurement is the
  single source of truth).
- :mod:`repro.obs.provenance` — :class:`ProvenanceRecorder` captures
  BULD's per-decision record (which phase matched each pair, why
  candidates were rejected, why unmatched nodes stayed unmatched);
  :func:`build_report` joins it with the documents into a
  :class:`ProvenanceReport` — the machinery behind ``xydiff explain
  --why`` and ``xydiff audit``.  :data:`NULL_RECORDER` is the
  zero-overhead default.
- :mod:`repro.obs.context` — the propagated :class:`RequestContext`
  (``X-Repro-Request-Id``) correlating client, server, pool and
  storage telemetry for one request.
- :mod:`repro.obs.log` — :class:`EventLogger`, the ring-buffered
  structured event log (schema ``repro.log/1``) behind
  ``GET /logz`` and ``xydiff serve --log-out``.
- :mod:`repro.obs.slo` — :func:`compute_slo`, latency percentiles and
  error-budget burn from the metrics registry (``GET /slo``).

Quick profile of a diff::

    from repro import diff_with_stats, parse
    from repro.obs import MetricsRegistry, Tracer

    tracer, metrics = Tracer(), MetricsRegistry()
    delta, stats = diff_with_stats(old, new, tracer=tracer, metrics=metrics)
    print(tracer.render())          # nested span tree with timings
    print(metrics.to_prometheus())  # scrape-ready text format
"""

from repro._lazy import lazy_exports

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENT_CATALOG",
    "EventLogger",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NULL_TRACER",
    "NullRecorder",
    "NullTracer",
    "ProvenanceRecorder",
    "ProvenanceReport",
    "REQUEST_ID_HEADER",
    "RequestContext",
    "STAGE_BUCKETS",
    "SloReport",
    "Span",
    "Tracer",
    "build_report",
    "compute_slo",
    "current_context",
    "current_request_id",
    "histogram_quantile",
    "load_trace",
    "new_request_id",
    "observe_stage_seconds",
    "publish_provenance_metrics",
    "render_trace",
    "use_context",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "context": (
        "REQUEST_ID_HEADER", "RequestContext", "current_context",
        "current_request_id", "new_request_id", "use_context",
    ),
    "log": ("EVENT_CATALOG", "EventLogger"),
    "metrics": (
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "STAGE_BUCKETS", "observe_stage_seconds",
    ),
    "provenance": (
        "NULL_RECORDER", "NullRecorder",
        "ProvenanceRecorder", "ProvenanceReport", "build_report",
        "publish_provenance_metrics",
    ),
    "slo": ("SloReport", "compute_slo", "histogram_quantile"),
    "trace": (
        "NULL_TRACER", "NullTracer", "Span", "Tracer", "load_trace",
        "render_trace",
    ),
})

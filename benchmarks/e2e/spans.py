"""In-memory spans recorded from outside the program, plus layer accounting.

Every span is one call into a layer's public function, made by the
benchmark itself or by a subclass defined here that times the call and
then hands it to ``super()``, or by a wrapper :func:`traced_cli` puts in
place of a name the CLI calls.  Nothing under ``src/`` is edited: the
storage, versioning and engine subclasses below are what the benchmark
passes to the repository's own constructors.

A span is ``(id, parent, op, name, start, end, attrs)``.  Spans of one
benchmark operation share ``op``.  A layer's *self time* is its span
minus the time its direct children cover.  The self times of the layer
spans (every span but the ``op.*`` root of each operation) plus the
residual add up to the measured window.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

import repro.cli
from repro.core import diff_with_stats
from repro.engine.engines import BuldEngine
from repro.storage.sqlite_store import SQLiteBackend
from repro.versioning.repository import BackendRepository

#: The BULD stages; each has an ``engine.<stage>_share`` metric.
ENGINE_STAGES = ("annotate", "id-attributes", "match-subtrees", "propagate",
                 "build-delta")


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs", "_tracer")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tracer = self._tracer
        local = tracer._local
        stack = local.__dict__.setdefault("stack", [])
        self.id = next(tracer._ids)
        self.parent = stack[-1].id if stack else None
        self.op = getattr(local, "op", None)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.end = time.perf_counter()
        self._tracer._local.stack.pop()
        self._tracer.spans.append(self)
        return False


class _NoSpan:
    @property
    def attrs(self) -> dict:
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


NO_SPAN = _NoSpan()


class Tracer:
    """Collects spans in memory; thread-safe for the serve-mixed senders.

    A disabled tracer (the untraced pass) hands out a shared no-op span,
    so the benchmark loop is the same code either way.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, **attrs):
        return Span(self, name, attrs) if self.enabled else NO_SPAN

    def op(self, op_id: int, kind: str):
        """The root span of one benchmark operation."""
        if not self.enabled:
            return NO_SPAN
        self._local.op = op_id
        return Span(self, "op." + kind, {})

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside (correctness checks in a traced loop)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "parent": span.parent,
                            "op": span.op,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "attrs": span.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def span_cost_seconds(samples: int = 20_000) -> float:
    """Measured cost of opening and closing one span, in seconds."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - started) / samples


def self_times(spans) -> dict[str, float]:
    """Self seconds summed per span name."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.end - span.start
            )
    totals: dict[str, float] = {}
    for span in spans:
        own = span.end - span.start - child_time.get(span.id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def total_times(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
    return totals


def layer_table(self_seconds: dict[str, float], window: float) -> str:
    """Self-time table, largest first, with the residual as its last row."""
    rows = [f"{'span':<34}{'self s':>10}{'share':>9}"]
    for name, seconds in sorted(self_seconds.items(), key=lambda kv: -kv[1]):
        if name.startswith("op."):
            continue
        rows.append(f"{name:<34}{seconds:>10.4f}{seconds / window:>9.2%}")
    attributed = sum(
        s for name, s in self_seconds.items() if not name.startswith("op.")
    )
    residual = window - attributed
    rows.append(f"{'(residual)':<34}{residual:>10.4f}{residual / window:>9.2%}")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# instrumented subclasses
# ---------------------------------------------------------------------------


class TracedSQLiteBackend(SQLiteBackend):
    """``sqlite://`` backend whose primitives are timed and byte-counted."""

    def __init__(self, root, tracer: Tracer, **kwargs):
        super().__init__(root, **kwargs)
        self.spans = tracer

    def put(self, key, data, *, label=None):
        with self.spans.span("storage.put", bytes=len(data)):
            return super().put(key, data, label=label)

    def get(self, key):
        with self.spans.span("storage.get") as span:
            data = super().get(key)
            span.attrs["bytes"] = len(data)
            return data

    def delete(self, key, *, label=None):
        with self.spans.span("storage.delete"):
            return super().delete(key, label=label)

    def exists(self, key):
        with self.spans.span("storage.exists"):
            return super().exists(key)

    def batch(self):
        return _BatchSpan(self.spans.span("storage.batch"), super().batch())


class _BatchSpan:
    def __init__(self, span: Span, scope):
        self.span = span
        self.scope = scope

    def __enter__(self):
        self.span.__enter__()
        return self.scope.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self.scope.__exit__(*exc_info)
        finally:
            self.span.__exit__(*exc_info)


class TracedRepository(BackendRepository):
    """Backend repository whose storage-bound entry points are timed."""

    def __init__(self, backend, tracer: Tracer):
        self.spans = tracer
        super().__init__(backend)

    def load_current(self, doc_id, readonly=False):
        with self.spans.span("versioning.load_current"):
            return super().load_current(doc_id, readonly=readonly)

    def append(self, doc_id, delta, new_document, allocator, commit_record=None):
        with self.spans.span("versioning.append"):
            return super().append(
                doc_id, delta, new_document, allocator,
                commit_record=commit_record,
            )

    def load_delta(self, doc_id, base_version):
        with self.spans.span("versioning.load_delta"):
            return super().load_delta(doc_id, base_version)

    def load_snapshot(self, doc_id, version):
        with self.spans.span("versioning.load_snapshot"):
            return super().load_snapshot(doc_id, version)

    def current_version(self, doc_id):
        with self.spans.span("versioning.current_version"):
            return super().current_version(doc_id)


def record_diff_stats(span: Span, stats) -> None:
    """Attach what ``DiffStats`` already measured to an engine span."""
    span.attrs.update(
        stages=dict(stats.stage_seconds),
        old_nodes=stats.old_nodes,
        new_nodes=stats.new_nodes,
        matched_nodes=stats.matched_nodes,
        annotation_hits=stats.counters.get("annotation_cache_hits", 0),
        annotation_misses=stats.counters.get("annotation_cache_misses", 0),
    )


class TracedBuldEngine(BuldEngine):
    """The BULD engine with each ``diff_with_stats`` call timed."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer

    def diff_with_stats(self, old_document, new_document, config=None, *,
                        allocator=None, context=None):
        with self.spans.span("engine.diff_with_stats") as span:
            delta, stats = super().diff_with_stats(
                old_document, new_document, config,
                allocator=allocator, context=context,
            )
            record_diff_stats(span, stats)
        return delta, stats


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """Time the library calls ``xydiff diff`` makes, from outside.

    The CLI looks ``parse``, ``diff`` and ``serialize_delta`` up in its
    own module, so swapping those names for timed wrappers puts a span
    around each call while the command itself runs unchanged.  ``diff``
    is replaced by the ``diff_with_stats`` call it makes, so the span
    also gets the engine's stage split.
    """

    real_parse = repro.cli.parse
    real_serialize = repro.cli.serialize_delta

    def parse(*args, **kwargs):
        with tracer.span("xmlkit.parse"):
            return real_parse(*args, **kwargs)

    def diff(old_document, new_document, config=None, *, allocator=None,
             engine="buld"):
        with tracer.span("engine.diff_with_stats") as span:
            delta, stats = diff_with_stats(
                old_document, new_document, config,
                allocator=allocator, engine=engine,
            )
            record_diff_stats(span, stats)
        return delta

    def serialize_delta(delta):
        with tracer.span("core.serialize_delta"):
            return real_serialize(delta)

    saved = {name: getattr(repro.cli, name)
             for name in ("parse", "diff", "serialize_delta")}
    if tracer.enabled:
        repro.cli.parse = parse
        repro.cli.diff = diff
        repro.cli.serialize_delta = serialize_delta
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(repro.cli, name, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, window: float, ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass.

    Shares are seconds over the measured window; counts are per
    benchmark operation.  ``layers.residual_ratio`` is the part of the
    window no layer span covers (benchmark loop and file I/O).
    """
    own = self_times(spans)
    whole = total_times(spans)
    ops = max(ops, 1)

    def share(seconds: float) -> float:
        return seconds / window

    stage_seconds = dict.fromkeys(ENGINE_STAGES, 0.0)
    unstaged = 0.0
    nodes = old_nodes = matched = hits = misses = calls = 0
    load_deltas = 0
    storage = {"storage.put": [0, 0], "storage.get": [0, 0]}
    for span in spans:
        if span.name == "engine.diff_with_stats":
            calls += 1
            staged = 0.0
            for stage, seconds in span.attrs["stages"].items():
                stage_seconds[stage] += seconds
                staged += seconds
            unstaged += span.end - span.start - staged
            nodes += span.attrs["old_nodes"] + span.attrs["new_nodes"]
            old_nodes += span.attrs["old_nodes"]
            matched += span.attrs["matched_nodes"]
            hits += span.attrs["annotation_hits"]
            misses += span.attrs["annotation_misses"]
        elif span.name == "versioning.load_delta":
            load_deltas += 1
        elif span.name in storage:
            entry = storage[span.name]
            entry[0] += 1
            entry[1] += span.attrs["bytes"]
    reads = sum(
        1 for span in spans
        if span.name in ("versioning.get_version", "versioning.changes_between")
    )
    attributed = sum(s for name, s in own.items() if not name.startswith("op."))
    metrics = {
        "xmlkit.parse_share": share(own.get("xmlkit.parse", 0.0)),
        "core.delta_serialize_share": share(own.get("core.serialize_delta", 0.0)),
        "core.apply_share": share(
            own.get("versioning.get_version", 0.0)
            + own.get("versioning.changes_between", 0.0)
        ),
        "engine.unstaged_share": share(unstaged),
        "engine.nodes": nodes / max(calls, 1),
        "engine.matched_ratio": matched / old_nodes if old_nodes else 0.0,
        "engine.annotation_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "versioning.commit_self_share": share(own.get("versioning.commit", 0.0)),
        "versioning.load_current_share": share(
            whole.get("versioning.load_current", 0.0)
        ),
        "versioning.append_share": share(whole.get("versioning.append", 0.0)),
        "versioning.append_self_share": share(own.get("versioning.append", 0.0)),
        "versioning.load_delta_share": share(
            whole.get("versioning.load_delta", 0.0)
        ),
        "versioning.deltas_per_read": load_deltas / reads if reads else 0.0,
        "storage.put_share": share(own.get("storage.put", 0.0)),
        "storage.get_share": share(own.get("storage.get", 0.0)),
        "storage.batch_share": share(own.get("storage.batch", 0.0)),
        "storage.puts_per_op": storage["storage.put"][0] / ops,
        "storage.gets_per_op": storage["storage.get"][0] / ops,
        "storage.bytes_written_per_op": storage["storage.put"][1] / ops,
        "storage.bytes_read_per_op": storage["storage.get"][1] / ops,
        "layers.residual_ratio": share(window - attributed),
    }
    for stage, seconds in stage_seconds.items():
        metrics[f"engine.{stage.replace('-', '_')}_share"] = share(seconds)
    return metrics

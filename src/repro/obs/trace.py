"""Tracing: nested spans over one process, exported as JSON lines.

The paper's evaluation is an exercise in *knowing where time goes*
(Figure 4 plots seconds per BULD phase against document size; §6.2 times
a 5 MB site snapshot end to end).  A :class:`Tracer` makes that kind of
measurement a first-class artifact instead of ad-hoc ``perf_counter``
arithmetic: every span records its name, free-form attributes, wall and
CPU time, and (optionally) the ``tracemalloc`` peak while it was open;
spans nest, so a version-store commit contains the engine run, which
contains the five pipeline stages.

Three rules keep the subsystem honest:

- **stdlib only** — ``time``, ``json``, ``tracemalloc``; nothing to
  install, nothing to mock out in CI.
- **zero overhead when absent** — callers hold a tracer that is either a
  real :class:`Tracer` or ``None``/:data:`NULL_TRACER`; the hot paths
  guard with ``if tracer is not None`` or call the no-op singleton,
  whose ``span`` returns a shared do-nothing context manager.
- **measure once** — a span's duration can be *assigned* at close time
  (``end_span(span, duration=...)``) so that a component that already
  timed an operation (the engine pipeline's single ``perf_counter``
  measurement per stage) publishes that same number instead of a second,
  slightly different one.  See :mod:`repro.engine.base`.

Exported traces are JSON lines — one object per span, children before
the root is written (postorder), each carrying ``span_id``/``parent_id``
so any tool can rebuild the tree.  :func:`load_trace` rebuilds it here,
and :func:`render_trace` prints the human-readable tree behind the CLI's
``obs render``.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "load_trace",
    "render_trace",
]


@dataclass
class Span:
    """One traced operation.

    Attributes:
        name: Span name (dotted/colon convention, e.g. ``stage:annotate``).
        attrs: Free-form JSON-serializable attributes.
        start_time: Wall-clock epoch seconds at open (``time.time()``).
        duration: Wall seconds from open to close — either measured by
            the tracer or assigned by the caller at close time.
        cpu_time: Process-wide CPU seconds consumed while open.
        memory_peak: ``tracemalloc`` peak (bytes) while open, or ``None``
            when memory tracing was off.
        span_id / parent_id: Sequential ids linking the exported tree
            (``parent_id`` is ``None`` for roots).
        children: Nested spans, in open order.
    """

    name: str
    attrs: dict = field(default_factory=dict)
    start_time: float = 0.0
    duration: float = 0.0
    cpu_time: float = 0.0
    memory_peak: Optional[int] = None
    span_id: int = 0
    parent_id: Optional[int] = None
    children: list["Span"] = field(default_factory=list)
    # internal clock anchors (not exported)
    _t0: float = field(default=0.0, repr=False, compare=False)
    _cpu0: float = field(default=0.0, repr=False, compare=False)

    def to_dict(self) -> dict:
        payload = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration": self.duration,
            "cpu_time": self.cpu_time,
        }
        if self.memory_peak is not None:
            payload["memory_peak"] = self.memory_peak
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            attrs=dict(payload.get("attrs", {})),
            start_time=float(payload.get("start_time", 0.0)),
            duration=float(payload.get("duration", 0.0)),
            cpu_time=float(payload.get("cpu_time", 0.0)),
            memory_peak=payload.get("memory_peak"),
            span_id=int(payload["span_id"]),
            parent_id=payload.get("parent_id"),
        )


class Tracer:
    """Collects nested spans; one tracer per run/request.

    Like the rest of the library, a tracer is thread-compatible, not
    thread-safe: one tracer belongs to one logical run.

    Args:
        trace_memory: When true, ``tracemalloc`` runs while the *first*
            (outermost) span is open and every span records the peak
            observed during its lifetime.  Memory tracing slows
            allocation-heavy code noticeably; it is opt-in.
    """

    def __init__(self, trace_memory: bool = False):
        self.trace_memory = trace_memory
        #: Completed top-level spans, in completion order.
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self._started_tracemalloc = False

    # -- span lifecycle ----------------------------------------------------

    def start_span(self, name: str, **attrs) -> Span:
        """Open a span as a child of the currently open span (if any)."""
        span = Span(
            name=name,
            attrs=attrs,
            start_time=time.time(),
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            _t0=time.perf_counter(),
            _cpu0=time.process_time(),
        )
        self._next_id += 1
        if self.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        if self.trace_memory:
            # restart peak accounting for this span's window
            tracemalloc.reset_peak()
        self._stack.append(span)
        return span

    def end_span(self, span: Span, duration: Optional[float] = None) -> Span:
        """Close ``span`` (must be the innermost open one).

        Args:
            span: The span returned by :meth:`start_span`.
            duration: When given, recorded verbatim instead of the
                tracer's own wall-clock measurement — the hook for
                components that already timed the operation and must not
                report a second number (see module docstring).
        """
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()
        measured = time.perf_counter() - span._t0
        span.duration = measured if duration is None else duration
        span.cpu_time = time.process_time() - span._cpu0
        if self.trace_memory and tracemalloc.is_tracing():
            span.memory_peak = tracemalloc.get_traced_memory()[1]
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
            if self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """Context manager form of :meth:`start_span`/:meth:`end_span`."""
        opened = self.start_span(name, **attrs)
        try:
            yield opened
        finally:
            self.end_span(opened)

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    # -- export ------------------------------------------------------------

    def iter_spans(self) -> Iterable[Span]:
        """All completed spans, children before their parent (postorder)."""
        for root in self.roots:
            yield from _postorder(root)

    def write_jsonl(self, stream: IO[str]) -> int:
        """Write one JSON object per completed span; returns span count."""
        count = 0
        for span in self.iter_spans():
            stream.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
            count += 1
        return count

    def to_jsonl(self) -> str:
        """The JSON-lines export as a string."""
        import io

        buffer = io.StringIO()
        self.write_jsonl(buffer)
        return buffer.getvalue()

    def render(self, **kwargs) -> str:
        """Human-readable tree of the completed spans."""
        return render_trace(self.roots, **kwargs)

    def __repr__(self):
        return (
            f"<Tracer roots={len(self.roots)} open={len(self._stack)} "
            f"memory={self.trace_memory}>"
        )


class _NullSpanContext:
    """Reusable do-nothing context manager (the no-op ``span`` result)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """A tracer that records nothing — the zero-overhead default.

    ``span`` hands back one shared context manager; ``start_span`` /
    ``end_span`` return immediately.  Code can therefore be written
    against the tracer interface unconditionally (``with tracer.span(...)``)
    on paths that run a handful of times per operation; per-node hot
    loops should keep an ``if tracer is not None`` guard instead.
    """

    trace_memory = False
    roots: list = []

    def span(self, name: str, **attrs):
        return _NULL_CONTEXT

    def start_span(self, name: str, **attrs):
        return None

    def end_span(self, span, duration=None):
        return None

    @property
    def current_span(self):
        return None

    def iter_spans(self):
        return iter(())

    def write_jsonl(self, stream) -> int:
        return 0

    def to_jsonl(self) -> str:
        return ""

    def render(self, **kwargs) -> str:
        return ""

    def __repr__(self):
        return "<NullTracer>"


#: Shared no-op tracer; safe to use as a default everywhere.
NULL_TRACER = NullTracer()


def _postorder(span: Span) -> Iterable[Span]:
    for child in span.children:
        yield from _postorder(child)
    yield span


def load_trace(stream: IO[str] | str) -> list[Span]:
    """Rebuild span trees from a JSON-lines export.

    Accepts a file-like object or the JSONL text itself; returns the
    root spans with ``children`` re-linked (in ``span_id`` order, which
    is open order).  Lines that are blank are skipped; a malformed line
    raises ``ValueError`` with its line number.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream.read().splitlines()
    spans: dict[int, Span] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            span = Span.from_dict(payload)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"bad trace line {number}: {exc}") from exc
        spans[span.span_id] = span
    roots: list[Span] = []
    for span in sorted(spans.values(), key=lambda item: item.span_id):
        parent = spans.get(span.parent_id) if span.parent_id else None
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots


def _format_bytes(count: int) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if count < 1024 or unit == "GB":
            return (
                f"{count}{unit}" if unit == "B" else f"{count / 1024:.1f}{unit}"
            )
        count /= 1024
    return f"{count}GB"  # pragma: no cover


def render_trace(roots: list[Span], show_attrs: bool = True) -> str:
    """ASCII tree of spans with durations (and CPU/memory when present).

    Each root's descendants print a percentage of the root's duration,
    so the Figure-4 question — *which stage dominates?* — is answered at
    a glance.
    """
    lines: list[str] = []

    def visit(span: Span, prefix: str, is_last: bool, total: float) -> None:
        connector = "" if not prefix and is_last is None else (
            "└─ " if is_last else "├─ "
        )
        parts = [f"{span.duration * 1000:.3f} ms"]
        if total > 0 and is_last is not None:
            parts.append(f"{span.duration / total:.1%}")
        if span.cpu_time:
            parts.append(f"cpu {span.cpu_time * 1000:.3f} ms")
        if span.memory_peak is not None:
            parts.append(f"peak {_format_bytes(span.memory_peak)}")
        if show_attrs and span.attrs:
            parts.append(
                " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            )
        lines.append(f"{prefix}{connector}{span.name}  [{'  '.join(parts)}]")
        child_prefix = prefix + (
            "" if is_last is None else ("   " if is_last else "│  ")
        )
        for index, child in enumerate(span.children):
            visit(
                child,
                child_prefix,
                index == len(span.children) - 1,
                total,
            )

    for root in roots:
        visit(root, "", None, root.duration)
    return "\n".join(lines)

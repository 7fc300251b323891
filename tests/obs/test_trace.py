"""Tracer: span nesting, exporters, renderer, the no-op default."""

import io
import json

import pytest

from repro.obs import NULL_TRACER, Span, Tracer, load_trace, render_trace


class TestSpanNesting:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert outer.attrs == {"kind": "test"}
        assert [child.name for child in outer.children] == [
            "inner-1",
            "inner-2",
        ]
        assert [leaf.name for leaf in outer.children[1].children] == ["leaf"]

    def test_parent_ids_link_the_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_durations_measured_and_nested_leq_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10000))
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.duration > 0
        assert 0 < inner.duration <= outer.duration

    def test_cpu_time_recorded(self):
        import time

        tracer = Tracer()
        with tracer.span("busy"):
            # spin until the process_time clock has visibly advanced —
            # a fixed workload can finish within one clock tick.
            start = time.process_time()
            while time.process_time() == start:
                sum(range(100000))
        assert tracer.roots[0].cpu_time > 0

    def test_end_span_out_of_order_raises(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(ValueError, match="innermost"):
            tracer.end_span(outer)

    def test_duration_override_is_verbatim(self):
        tracer = Tracer()
        span = tracer.start_span("stage")
        tracer.end_span(span, duration=1.5)
        assert span.duration == 1.5

    def test_current_span(self):
        # The innermost open span is the parent of the next one opened.
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        with tracer.span("root") as root:
            pass
        assert outer.children == [inner, sibling]
        assert [span.name for span in tracer.roots] == ["outer", "root"]
        assert root.children == []

    def test_exception_inside_span_still_closes_it(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [root.name for root in tracer.roots] == ["doomed"]


class TestMemoryTracing:
    def test_memory_peak_recorded_when_enabled(self):
        tracer = Tracer(trace_memory=True)
        with tracer.span("alloc"):
            _ = [bytearray(1024) for _ in range(100)]
        peak = tracer.roots[0].memory_peak
        assert peak is not None and peak > 100 * 1024

    def test_memory_off_by_default(self):
        tracer = Tracer()
        with tracer.span("alloc"):
            pass
        assert tracer.roots[0].memory_peak is None


class TestJsonlExport:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("outer", workload="fig4"):
            with tracer.span("inner"):
                pass
        return tracer

    def test_one_json_object_per_span(self):
        tracer = self._trace()
        lines = tracer.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        # postorder: children precede their parent
        assert [p["name"] for p in payloads] == ["inner", "outer"]
        for payload in payloads:
            assert {"span_id", "parent_id", "name", "start_time", "duration",
                    "cpu_time"} <= set(payload)

    def test_write_jsonl_returns_count(self):
        buffer = io.StringIO()
        assert self._trace().write_jsonl(buffer) == 2

    def test_round_trip_rebuilds_tree(self):
        tracer = self._trace()
        roots = load_trace(tracer.to_jsonl())
        assert len(roots) == 1
        assert roots[0].name == "outer"
        assert roots[0].attrs == {"workload": "fig4"}
        assert [child.name for child in roots[0].children] == ["inner"]
        assert roots[0].duration == tracer.roots[0].duration

    def test_load_trace_accepts_file_object(self):
        roots = load_trace(io.StringIO(self._trace().to_jsonl()))
        assert roots[0].name == "outer"

    def test_load_trace_skips_blank_lines(self):
        text = self._trace().to_jsonl() + "\n\n"
        assert len(load_trace(text)) == 1

    def test_load_trace_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            load_trace("not json\n")


class TestRenderer:
    def test_tree_shape_and_timings(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                pass
        text = tracer.render()
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("├─ inner-1")
        assert lines[2].startswith("└─ inner-2")
        assert "ms" in lines[0]
        assert "%" in lines[1]  # children show share of the root

    def test_attrs_rendered_and_suppressible(self):
        tracer = Tracer()
        with tracer.span("op", doc_id="report.xml"):
            pass
        assert "doc_id=report.xml" in render_trace(tracer.roots)
        assert "doc_id" not in render_trace(tracer.roots, show_attrs=False)

    def test_render_of_loaded_trace_matches_live_render(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert render_trace(load_trace(tracer.to_jsonl())) == tracer.render()


class TestNullTracer:
    def test_span_is_noop(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            assert span is None
        assert NULL_TRACER.start_span("x") is None
        assert NULL_TRACER.end_span(None) is None
        assert NULL_TRACER.to_jsonl() == ""
        assert NULL_TRACER.render() == ""
        assert list(NULL_TRACER.iter_spans()) == []

    def test_span_context_reused(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestSpanDict:
    def test_memory_and_attrs_only_when_present(self):
        bare = Span(name="x", span_id=1).to_dict()
        assert "memory_peak" not in bare and "attrs" not in bare
        full = Span(
            name="y", span_id=2, memory_peak=10, attrs={"k": "v"}
        ).to_dict()
        assert full["memory_peak"] == 10 and full["attrs"] == {"k": "v"}

"""Tests for request tracing (repro.telemetry.trace)."""

import json
import threading

import pytest

from repro.telemetry import Span, SpanContext, Tracer, format_trace, load_traces
from repro.telemetry.trace import get_tracer, set_tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSpanLifecycle:
    def test_root_span_gets_trace_and_span_ids(self):
        tracer = Tracer(seed=0)
        span = tracer.start_span("root")
        assert len(span.trace_id) == 32  # 128-bit hex
        assert len(span.span_id) == 16  # 64-bit hex
        assert span.parent_id is None
        tracer.end_span(span)
        assert tracer.finished_spans() == [span]

    def test_nested_spans_parent_via_contextvar(self):
        tracer = Tracer(seed=0)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_explicit_parent_crosses_threads(self):
        """The engine pattern: capture context, hand it to another thread."""
        tracer = Tracer(seed=0)
        captured = {}
        with tracer.span("request") as request:
            ctx = request.context

            def worker():
                span = tracer.start_span("batch", parent=ctx)
                tracer.end_span(span)
                captured["span"] = span

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert captured["span"].trace_id == request.trace_id
        assert captured["span"].parent_id == request.span_id

    def test_threads_do_not_inherit_contextvars_silently(self):
        """Without explicit propagation a new thread starts a new trace."""
        tracer = Tracer(seed=0)
        captured = {}
        with tracer.span("request") as request:
            def worker():
                span = tracer.start_span("orphan")
                tracer.end_span(span)
                captured["span"] = span

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert captured["span"].trace_id != request.trace_id

    def test_duration_uses_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, seed=0)
        span = tracer.start_span("op")
        clock.advance(0.25)
        tracer.end_span(span)
        assert span.duration_ms == pytest.approx(250.0)

    def test_end_span_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, seed=0)
        span = tracer.start_span("op")
        clock.advance(0.1)
        tracer.end_span(span)
        clock.advance(5.0)
        tracer.end_span(span)  # keeps the first end time
        assert span.duration_ms == pytest.approx(100.0)

    def test_exception_marks_error_status_and_reraises(self):
        tracer = Tracer(seed=0)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.finished_spans()
        assert span.status == "error"
        assert span.attributes["exception"] == "RuntimeError"

    def test_links_reference_other_traces(self):
        tracer = Tracer(seed=0)
        with tracer.span("a") as a:
            a_ctx = a.context
        batch = tracer.start_span("batch", links=[a_ctx])
        batch.add_link(SpanContext(trace_id="t", span_id="s", sampled=True))
        tracer.end_span(batch)
        payload = batch.to_json_dict()
        assert payload["links"][0]["trace_id"] == a_ctx.trace_id
        assert len(payload["links"]) == 2


class TestSampling:
    def test_zero_rate_records_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("op"):
            pass
        assert tracer.finished_spans() == []

    def test_children_inherit_the_root_decision(self):
        """Traces are complete or absent, never ragged."""
        tracer = Tracer(sample_rate=0.5, seed=7)
        for _ in range(50):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        by_trace: dict[str, list[Span]] = {}
        for span in tracer.finished_spans():
            by_trace.setdefault(span.trace_id, []).append(span)
        assert by_trace, "seed 7 should sample at least one of 50 traces"
        for spans in by_trace.values():
            assert sorted(s.name for s in spans) == ["child", "root"]

    def test_sampling_rate_roughly_respected(self):
        tracer = Tracer(sample_rate=0.2, seed=3)
        for _ in range(400):
            with tracer.span("op"):
                pass
        rate = len(tracer.finished_spans()) / 400
        assert 0.1 < rate < 0.35

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Tracer(sample_rate=1.5)


class TestBufferAndExport:
    def test_buffer_is_bounded_oldest_evicted(self):
        tracer = Tracer(max_spans=4, seed=0)
        for index in range(10):
            with tracer.span(f"op{index}"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["op6", "op7", "op8", "op9"]

    def test_traces_groups_by_trace_most_recent_first(self):
        tracer = Tracer(seed=0)
        with tracer.span("first"):
            with tracer.span("first-child"):
                pass
        with tracer.span("second"):
            pass
        traces = tracer.traces()
        assert len(traces) == 2
        assert [s["name"] for s in traces[0]["spans"]] == ["second"]
        assert {s["name"] for s in traces[1]["spans"]} == {"first", "first-child"}
        assert tracer.traces(limit=1) == traces[:1]

    def test_export_path_round_trips_through_load_traces(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(export_path=str(path), seed=0)
        with tracer.span("op", attributes={"k": 1}):
            with tracer.span("child"):
                pass
        assert load_traces(str(path)) == tracer.traces()
        (trace,) = load_traces(str(path))
        assert [s["name"] for s in trace["spans"]] == ["op", "child"]
        assert trace["spans"][0]["attributes"] == {"k": 1}

    def test_load_traces_skips_a_truncated_last_line(self, tmp_path):
        # A file read while a server appends to it, or after a crash,
        # can end in a partial span line.
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(export_path=str(path), seed=0)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        whole = path.read_text()
        path.write_text(whole + whole.splitlines()[0][:40])
        traces = load_traces(str(path))
        assert [t["spans"][0]["name"] for t in traces] == ["c", "b", "a"]
        assert load_traces(str(path), limit=1) == traces[:1]
        # a line holding JSON that is not a span object is skipped too
        path.write_text(whole + "[1, 2]\n")
        assert load_traces(str(path)) == traces

    def test_export_path_streams_on_end(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer(export_path=str(path), seed=0)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in lines] == ["a", "b"]

    def test_clear_empties_the_buffer(self):
        tracer = Tracer(seed=0)
        with tracer.span("op"):
            pass
        tracer.clear()
        assert tracer.finished_spans() == []


class TestDefaultTracer:
    def test_default_tracer_is_off_and_swappable(self):
        original = get_tracer()
        try:
            assert original.sample_rate == 0.0
            replacement = Tracer(seed=0)
            assert set_tracer(replacement) is original
            assert get_tracer() is replacement
        finally:
            set_tracer(original)


class TestFormatTrace:
    def test_renders_indented_tree_with_attributes_and_links(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, seed=0)
        with tracer.span("http", attributes={"route": "/forecast"}):
            clock.advance(0.001)
            with tracer.span("engine") as engine:
                clock.advance(0.002)
                batch = tracer.start_span(
                    "batch_forward", parent=engine.context,
                    links=[SpanContext("other", "o", True)],
                )
                tracer.end_span(batch)
        text = format_trace(tracer.traces()[0])
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert lines[1].lstrip().startswith("http")
        assert "route=/forecast" in lines[1]
        # children indent one level deeper than their parents
        assert lines[2].startswith("    engine")
        assert lines[3].startswith("      batch_forward")
        # the link's target span is not in this trace, so the label
        # falls back to the raw span id with a "?" marker
        assert "links=[o?]" in lines[3]

    def test_orphan_spans_render_as_roots(self):
        tracer = Tracer(seed=0)
        orphan = Span(
            name="late",
            context=SpanContext("t1", "s1", True),
            parent_id="evicted",
            start=0.0,
            end=0.001,
        )
        text = format_trace({"trace_id": "t1", "spans": [orphan.to_json_dict()]})
        assert "late" in text

"""Tests for cross-process trace propagation and merged-trace analysis.

Covers the distributed half of the observability plane:

* ``traceparent`` round-trip through the W3C wire format, including the
  forgiving-extraction contract — absent, malformed, version-``ff`` and
  all-zero-id headers all yield ``None`` so the callee roots a fresh
  trace (property-tested against arbitrary junk);
* trace stitching: :func:`merge_trace_payloads` dedup semantics and the
  :class:`TraceCollector` failure isolation the router's merged
  ``GET /traces`` relies on;
* critical-path analysis: self-time accounting, phase classification
  (queue / batch / model / network / halo_failover), and the rendered
  text block.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import (
    SpanContext,
    TraceCollector,
    Tracer,
    critical_path,
    extract_trace_context,
    format_critical_path,
    format_traceparent,
    inject_trace_context,
    merge_trace_payloads,
    parse_traceparent,
)


class TestTraceparentRoundTrip:
    def test_sampled_context_round_trips(self):
        context = SpanContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=True)
        value = format_traceparent(context)
        assert value == f"00-{'ab' * 16}-{'cd' * 8}-01"
        parsed = parse_traceparent(value)
        assert parsed == context

    def test_unsampled_flag_survives(self):
        context = SpanContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=False)
        parsed = parse_traceparent(format_traceparent(context))
        assert parsed is not None and parsed.sampled is False

    def test_uppercase_and_whitespace_tolerated(self):
        value = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
        parsed = parse_traceparent(value)
        assert parsed is not None and parsed.trace_id == "ab" * 16

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "not-a-traceparent",
            "00-" + "ab" * 16,  # missing fields
            f"00-{'ab' * 16}-{'cd' * 8}",  # no flags
            f"00-{'zz' * 16}-{'cd' * 8}-01",  # non-hex trace id
            f"ff-{'ab' * 16}-{'cd' * 8}-01",  # reserved version
            f"00-{'0' * 32}-{'cd' * 8}-01",  # all-zero trace id
            f"00-{'ab' * 16}-{'0' * 16}-01",  # all-zero span id
            f"00-{'ab' * 17}-{'cd' * 8}-01",  # overlong trace id
        ],
    )
    def test_malformed_values_yield_none(self, value):
        assert parse_traceparent(value) is None

    @given(st.text(max_size=64))
    def test_arbitrary_junk_never_raises(self, junk):
        result = parse_traceparent(junk)
        if result is not None:
            # anything accepted must round-trip exactly
            assert parse_traceparent(format_traceparent(result)) == result

    @given(st.booleans(), st.integers(0, 2**128 - 1), st.integers(1, 2**64 - 1))
    def test_valid_ids_round_trip(self, sampled, trace_int, span_int):
        trace_id = f"{max(trace_int, 1):032x}"
        context = SpanContext(
            trace_id=trace_id, span_id=f"{span_int:016x}", sampled=sampled
        )
        assert parse_traceparent(format_traceparent(context)) == context


class TestInjectExtract:
    def test_inject_stamps_and_extract_reads(self):
        context = SpanContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=True)
        headers = inject_trace_context({}, context=context)
        assert extract_trace_context(headers) == context

    def test_absent_header_yields_none(self):
        assert extract_trace_context({}) is None
        assert extract_trace_context(None) is None
        assert extract_trace_context({"content-type": "application/json"}) is None

    def test_inject_without_context_or_current_span_is_noop(self):
        headers = inject_trace_context({"a": "b"})
        assert headers == {"a": "b"}

    def test_inject_defaults_to_current_span(self):
        tracer = Tracer(seed=0)
        with tracer.span("root") as span:
            headers = inject_trace_context()
        assert extract_trace_context(headers) == span.context

    def test_tracestate_rides_along_only_with_a_context(self):
        context = SpanContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=True)
        headers = inject_trace_context({}, context=context, tracestate="k=v")
        assert headers["tracestate"] == "k=v"
        assert inject_trace_context({}, tracestate="k=v") == {}

    def test_server_joins_client_trace_via_headers(self):
        """The cluster hop: client span → headers → server child span."""
        client, server = Tracer(seed=0), Tracer(seed=1)
        with client.span("shard_call") as call:
            headers = inject_trace_context(context=call.context)
        parent = extract_trace_context(headers)
        with server.span("shard", parent=parent) as child:
            assert child.trace_id == call.trace_id
            assert child.parent_id == call.span_id


class TestMergeAndCollect:
    def _trace(self, trace_id, *span_ids, service=None):
        return {
            "trace_id": trace_id,
            "spans": [
                {"trace_id": trace_id, "span_id": sid, "service": service,
                 "start": i * 1.0}
                for i, sid in enumerate(span_ids)
            ],
        }

    def test_spans_merge_across_payloads_and_dedup(self):
        merged = merge_trace_payloads([
            [self._trace("t1", "a", "b", service="router")],
            [self._trace("t1", "b", "c", service="s0")],
        ])
        assert len(merged) == 1
        ids = [span["span_id"] for span in merged[0]["spans"]]
        assert sorted(ids) == ["a", "b", "c"]

    def test_limit_truncates_by_first_appearance(self):
        merged = merge_trace_payloads(
            [[self._trace("t1", "a")], [self._trace("t2", "b")]], limit=1
        )
        assert [t["trace_id"] for t in merged] == ["t1"]

    def test_collector_survives_a_failing_source(self):
        collector = TraceCollector()
        collector.add_source("ok", lambda: [self._trace("t1", "a")])

        def down():
            raise ConnectionError("worker restarting")

        collector.add_source("s1", down)
        merged = collector.collect()
        assert [t["trace_id"] for t in merged] == ["t1"]
        assert collector.failures == ["s1"]
        # a recovered source clears the failure list on the next collect
        collector._sources[1] = ("s1", lambda: [])
        collector.collect()
        assert collector.failures == []

    def test_collector_wraps_tracers(self):
        tracer = Tracer(seed=0, service="router")
        with tracer.span("cluster"):
            pass
        collector = TraceCollector()
        collector.add_tracer("router", tracer)
        merged = collector.collect()
        assert merged and merged[0]["spans"][0]["service"] == "router"


def _span(span_id, name, start, end, parent=None, service=None, attrs=None):
    return {
        "trace_id": "t1",
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "service": service,
        "start": start,
        "end": end,
        "duration_ms": (end - start) * 1e3,
        "attributes": attrs or {},
    }


class TestCriticalPath:
    def _cluster_trace(self, failover=False):
        """router: cluster → shard_call → (shard clock) shard → engine."""
        return {
            "trace_id": "t1",
            "spans": [
                _span("r1", "cluster", 0.0, 0.010, service="router"),
                _span("r2", "shard_call", 0.001, 0.009, parent="r1",
                      service="router",
                      attrs={"failover": True} if failover else {}),
                # shard process: a different clock origin entirely
                _span("s1", "shard", 100.0, 100.007, parent="r2", service="s2"),
                _span("s2", "engine.forecast", 100.001, 100.006, parent="s1",
                      service="s2"),
                _span("s3", "queue", 100.001, 100.002, parent="s2", service="s2"),
                _span("s4", "batch_forward", 100.002, 100.006, parent="s2",
                      service="s2"),
                _span("s5", "model_forward", 100.003, 100.006, parent="s4",
                      service="s2"),
            ],
        }

    def test_path_descends_latest_ending_child_across_processes(self):
        analysis = critical_path(self._cluster_trace())
        names = [segment["name"] for segment in analysis["path"]]
        assert names == [
            "cluster", "shard_call", "shard", "engine.forecast",
            "batch_forward", "model_forward",
        ]
        assert analysis["total_ms"] == pytest.approx(10.0)

    def test_self_time_sums_to_phases(self):
        analysis = critical_path(self._cluster_trace())
        assert sum(analysis["phases"].values()) == pytest.approx(
            sum(segment["self_ms"] for segment in analysis["path"])
        )
        # the 8ms shard_call minus the 7ms shard span → 1ms of network
        assert analysis["phases"]["network"] == pytest.approx(1.0)
        assert analysis["phases"]["model"] == pytest.approx(3.0)

    def test_failover_attribute_reclassifies_the_hop(self):
        analysis = critical_path(self._cluster_trace(failover=True))
        assert "halo_failover" in analysis["phases"]
        assert "network" not in analysis["phases"]

    def test_dominant_phase_identified(self):
        analysis = critical_path(self._cluster_trace())
        assert analysis["dominant_phase"] in analysis["phases"]
        assert analysis["dominant_ms"] == max(analysis["phases"].values())

    def test_empty_trace_yields_empty_analysis(self):
        analysis = critical_path({"trace_id": "t0", "spans": []})
        assert analysis["path"] == [] and analysis["dominant_phase"] is None

    def test_open_span_ranked_by_duration_not_end(self):
        trace = {
            "trace_id": "t1",
            "spans": [
                _span("a", "cluster", 0.0, 0.010),
                {**_span("b", "queue", 0.001, 0.009, parent="a"), "end": None,
                 "duration_ms": 8.0},
            ],
        }
        analysis = critical_path(trace)
        assert [s["name"] for s in analysis["path"]] == ["cluster", "queue"]

    def test_format_mentions_services_and_dominant_phase(self):
        text = format_critical_path(self._cluster_trace(failover=True))
        assert "critical path" in text
        assert "[router]" in text and "[s2]" in text
        assert "phase=halo_failover" in text
        assert "dominant phase:" in text

"""Telemetry: metrics, tracing, data quality, profiling, callbacks.

Layers, usable independently:

* :mod:`repro.telemetry.registry` — counters, gauges and histograms
  aggregated in a :class:`MetricRegistry` (:func:`get_registry` returns
  a process-wide default); all primitives are thread-safe;
* :mod:`repro.telemetry.trace` — request tracing, the one timing
  mechanism: trace/span IDs with parent links and cross-trace links,
  contextvar propagation, sampling, a bounded in-memory buffer and a
  JSONL exporter (:class:`Tracer`) that :func:`load_traces` reads back;
* :mod:`repro.telemetry.distributed` — cross-process propagation:
  W3C-style ``traceparent`` inject/extract, merged-trace stitching
  (:class:`TraceCollector`) and the critical-path latency analyzer;
* :mod:`repro.telemetry.slo` — declarative objectives with
  multi-window multi-burn-rate evaluation and error-budget accounting
  (:class:`SLOTracker` / :class:`SLOEngine`);
* :mod:`repro.telemetry.contprof` — an always-on thread stack sampler
  aggregating collapsed-stack flame data per serving phase
  (:class:`ContinuousProfiler`);
* :mod:`repro.telemetry.quality` — per-sensor data-quality monitoring
  for live feeds: missing-rate EWMA, staleness, feature drift vs the
  training scaler statistics, and a degradation verdict
  (:class:`QualityMonitor`);
* :mod:`repro.telemetry.prometheus` — text exposition of a registry in
  the Prometheus scrape format (:func:`render_prometheus`);
* :mod:`repro.telemetry.profiler` — an autodiff op profiler that wraps
  the one op choke point, ``Tensor._make``, and reports per-op counts,
  forward time (a per-thread lap between ops), backward time and
  allocation sizes (:meth:`OpProfiler.report`);
* :mod:`repro.telemetry.callbacks` — the ``Trainer`` event bus
  (:class:`Callback`) with built-in :class:`EpochLogger`,
  :class:`JSONLRunRecorder` and :class:`Profiler` observers.
"""

from .callbacks import (
    Callback,
    CallbackList,
    EpochLogger,
    JSONLRunRecorder,
    Profiler,
)
from .contprof import ContinuousProfiler, merge_collapsed, parse_collapsed
from .distributed import (
    TraceCollector,
    critical_path,
    extract_trace_context,
    format_critical_path,
    format_traceparent,
    inject_trace_context,
    merge_trace_payloads,
    parse_traceparent,
)
from .profiler import OpProfiler
from .prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .prometheus import escape_label_value, label_block, render_prometheus
from .quality import QualityMonitor, QualityThresholds
from .registry import MetricRegistry, get_registry
from .slo import (
    BurnRule,
    Objective,
    SLOEngine,
    SLOTracker,
    default_serving_objectives,
)
from .trace import Span, SpanContext, Tracer, format_trace, get_tracer, load_traces, set_tracer

__all__ = [
    "MetricRegistry",
    "get_registry",
    "Tracer",
    "Span",
    "SpanContext",
    "get_tracer",
    "set_tracer",
    "format_trace",
    "load_traces",
    "format_traceparent",
    "parse_traceparent",
    "inject_trace_context",
    "extract_trace_context",
    "merge_trace_payloads",
    "TraceCollector",
    "critical_path",
    "format_critical_path",
    "Objective",
    "BurnRule",
    "SLOTracker",
    "SLOEngine",
    "default_serving_objectives",
    "ContinuousProfiler",
    "parse_collapsed",
    "merge_collapsed",
    "QualityMonitor",
    "QualityThresholds",
    "render_prometheus",
    "escape_label_value",
    "label_block",
    "PROMETHEUS_CONTENT_TYPE",
    "OpProfiler",
    "Callback",
    "CallbackList",
    "EpochLogger",
    "JSONLRunRecorder",
    "Profiler",
]

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

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".registry": ("MetricRegistry", "get_registry"),
    ".trace": (
        "Tracer", "Span", "SpanContext", "get_tracer", "set_tracer", "format_trace",
        "load_traces",
    ),
    ".distributed": (
        "format_traceparent", "parse_traceparent", "inject_trace_context",
        "extract_trace_context", "merge_trace_payloads", "TraceCollector", "critical_path",
        "format_critical_path",
    ),
    ".slo": ("Objective", "BurnRule", "SLOTracker", "SLOEngine", "default_serving_objectives"),
    ".contprof": ("ContinuousProfiler", "parse_collapsed", "merge_collapsed"),
    ".quality": ("QualityMonitor", "QualityThresholds"),
    ".prometheus": (
        "render_prometheus", "escape_label_value", "label_block",
        "CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE",
    ),
    ".profiler": ("OpProfiler",),
    ".callbacks": ("Callback", "CallbackList", "EpochLogger", "JSONLRunRecorder", "Profiler"),
})

"""Cross-process trace propagation and merged-trace analysis.

PR 3's tracer stops at a process boundary: the cluster router and each
shard worker buffer their own spans, so the requests that most need
explaining (halo failovers, partial reads) shatter into per-process
fragments. This module is the glue that keeps them one trace:

* **W3C-style context headers** — :func:`format_traceparent` /
  :func:`parse_traceparent` speak the ``traceparent`` wire format
  (``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``, flags bit 0
  = sampled); :func:`inject_trace_context` / :func:`extract_trace_context`
  move a :class:`~repro.telemetry.trace.SpanContext` in and out of a
  plain header dict. Extraction is forgiving by design: a malformed or
  absent header yields ``None`` and the callee roots a fresh trace —
  a bad client can never poison server-side tracing.
* **Trace stitching** — :func:`merge_trace_payloads` and
  :class:`TraceCollector` merge per-process ``traces`` lists (a
  :meth:`~repro.telemetry.trace.Tracer.traces` result or a ``/traces``
  response) into unified traces keyed by trace id, the router's
  ``GET /traces`` backend.
* **Critical-path analysis** — :func:`critical_path` walks a merged
  trace from its root, at every level descending into the child that
  finished last, and attributes each path span's *self time* to a
  serving phase: ``queue`` (micro-batch wait), ``batch`` (fused forward
  overhead), ``model`` (the forward itself), ``network`` (router→shard
  hop), ``halo_failover`` (a non-owner answering from its halo), or
  ``other``. Span timestamps are process-local monotonic clocks, so the
  analyzer only ever compares times between same-process siblings and
  otherwise reasons in durations, which are clock-free.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Iterable

from .trace import SpanContext, Tracer, _group_traces

__all__ = [
    "TRACEPARENT_HEADER",
    "TRACESTATE_HEADER",
    "format_traceparent",
    "parse_traceparent",
    "inject_trace_context",
    "extract_trace_context",
    "merge_trace_payloads",
    "TraceCollector",
    "critical_path",
    "format_critical_path",
]

TRACEPARENT_HEADER = "traceparent"
TRACESTATE_HEADER = "tracestate"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


# ----------------------------------------------------------------------
# W3C-style context headers
# ----------------------------------------------------------------------
def format_traceparent(context: SpanContext) -> str:
    """Serialize a span context to a ``traceparent`` header value."""
    flags = "01" if context.sampled else "00"
    return f"00-{context.trace_id}-{context.span_id}-{flags}"


def parse_traceparent(value: str | None) -> SpanContext | None:
    """Parse a ``traceparent`` value; malformed input returns ``None``.

    Rejections follow the W3C rules that matter here: wrong shape or
    non-hex characters, the reserved version ``ff``, and all-zero trace
    or span ids (the spec's "invalid id" sentinel).
    """
    if not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff":
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return SpanContext(trace_id=trace_id, span_id=span_id, sampled=sampled)


def inject_trace_context(
    headers: dict | None = None,
    context: SpanContext | None = None,
    tracestate: str | None = None,
) -> dict:
    """Stamp ``traceparent`` (and optional ``tracestate``) onto headers.

    ``context`` defaults to the calling thread's current span context;
    with neither, the headers pass through untouched. Returns the dict
    (a new one when ``headers`` is ``None``) for call-site chaining.
    """
    headers = {} if headers is None else headers
    if context is None:
        context = Tracer.current_context()
    if context is not None:
        headers[TRACEPARENT_HEADER] = format_traceparent(context)
        if tracestate:
            headers[TRACESTATE_HEADER] = tracestate
    return headers


def extract_trace_context(headers: dict | None) -> SpanContext | None:
    """Pull a span context out of a header dict with lowercase names.

    :func:`~repro.serve.http.dispatch` lowercases every request's header
    names. Absent or malformed ``traceparent`` → ``None``; the caller
    should then root a fresh trace (never fail the request over tracing).
    """
    if not headers:
        return None
    return parse_traceparent(headers.get(TRACEPARENT_HEADER))


# ----------------------------------------------------------------------
# Trace stitching
# ----------------------------------------------------------------------
def merge_trace_payloads(
    payloads: Iterable[list[dict]], limit: int | None = None
) -> list[dict]:
    """Merge several processes' ``traces`` lists into unified traces.

    Each payload is a list of ``{"trace_id", "spans": [...]}`` entries
    (the shape both :meth:`Tracer.traces` and a ``/traces`` response
    carry). Spans are deduplicated by span id within a trace — a span
    exported by two sources counts once — and traces keep their order
    of first appearance across payloads. ``limit`` truncates the result
    to the first ``limit`` merged traces.
    """
    spans = (
        span for payload in payloads for trace in payload or ()
        for span in trace.get("spans", ())
    )
    return _group_traces(spans, limit)


class TraceCollector:
    """Stitches spans from several sources into merged traces.

    Sources are callables returning a ``traces`` list (the
    :meth:`Tracer.traces` shape); :meth:`add_tracer` wraps a local
    tracer. A source that raises is skipped for that collection — its
    name lands in :attr:`failures` — so one mid-restart worker never
    takes down the merged view.
    """

    def __init__(self) -> None:
        self._sources: list[tuple[str, Callable[[], list[dict]]]] = []
        self._lock = threading.Lock()
        self.failures: list[str] = []

    def add_source(self, name: str, source: Callable[[], list[dict]]) -> None:
        with self._lock:
            self._sources.append((name, source))

    def add_tracer(self, name: str, tracer: Tracer) -> None:
        self.add_source(name, tracer.traces)

    def collect(self, limit: int | None = None) -> list[dict]:
        with self._lock:
            sources = list(self._sources)
        payloads: list[list[dict]] = []
        failures: list[str] = []
        for name, source in sources:
            try:
                payloads.append(source())
            except Exception:
                failures.append(name)
        self.failures = failures
        return merge_trace_payloads(payloads, limit=limit)


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------
def _phase_of(span: dict) -> str:
    name = span.get("name")
    if name == "queue":
        return "queue"
    if name == "batch_forward":
        return "batch"
    if name == "model_forward":
        return "model"
    if name == "shard_call":
        attrs = span.get("attributes") or {}
        return "halo_failover" if attrs.get("failover") else "network"
    return "other"


def _duration_ms(span: dict) -> float:
    value = span.get("duration_ms")
    if value is not None:
        return float(value)
    start, end = span.get("start"), span.get("end")
    if start is None or end is None:
        return 0.0
    return (end - start) * 1e3


def critical_path(trace: dict) -> dict:
    """Attribute one merged trace's latency along its critical path.

    Starting from the root (the longest parentless span), repeatedly
    descend into the child that finished last — the one that determined
    its parent's completion. Ends are only compared between siblings,
    which share a process clock; across the process hop there is exactly
    one child per call span, so no cross-clock comparison ever happens
    (spans missing an end are ranked by duration instead). Each path
    span contributes ``self_ms`` — its duration minus the descended
    child's — to its phase; the phase totals answer "where did the
    p99 go": queue vs. batch vs. model vs. network hop vs.
    halo-failover.
    """
    spans = [span for span in trace.get("spans", []) if span.get("span_id")]
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    empty = {
        "trace_id": trace.get("trace_id"),
        "total_ms": 0.0,
        "path": [],
        "phases": {},
        "dominant_phase": None,
        "dominant_ms": 0.0,
    }
    if not roots:
        return empty
    root = max(roots, key=_duration_ms)

    path: list[dict] = []
    cursor = root
    seen: set[str] = set()
    while cursor is not None and cursor["span_id"] not in seen:
        seen.add(cursor["span_id"])
        kids = children.get(cursor["span_id"], [])
        ended = [k for k in kids if k.get("end") is not None]
        if ended:
            nxt = max(ended, key=lambda s: (s["end"], _duration_ms(s)))
        elif kids:
            nxt = max(kids, key=_duration_ms)
        else:
            nxt = None
        child_ms = _duration_ms(nxt) if nxt is not None else 0.0
        self_ms = max(0.0, _duration_ms(cursor) - child_ms)
        path.append(
            {
                "name": cursor.get("name"),
                "service": cursor.get("service"),
                "span_id": cursor["span_id"],
                "duration_ms": _duration_ms(cursor),
                "self_ms": self_ms,
                "phase": _phase_of(cursor),
            }
        )
        cursor = nxt

    phases: dict[str, float] = {}
    for segment in path:
        phases[segment["phase"]] = phases.get(segment["phase"], 0.0) + segment["self_ms"]
    dominant = max(phases.items(), key=lambda kv: kv[1]) if phases else (None, 0.0)
    return {
        "trace_id": trace.get("trace_id"),
        "total_ms": _duration_ms(root),
        "path": path,
        "phases": phases,
        "dominant_phase": dominant[0],
        "dominant_ms": dominant[1],
    }


def format_critical_path(trace: dict) -> str:
    """Render :func:`critical_path` as the text block the CLI prints."""
    analysis = critical_path(trace)
    total = analysis["total_ms"]
    lines = [f"critical path  {total:.3f}ms total"]
    for segment in analysis["path"]:
        service = f" [{segment['service']}]" if segment["service"] else ""
        share = (segment["self_ms"] / total * 100.0) if total > 0 else 0.0
        lines.append(
            f"  {segment['name']}{service}  {segment['duration_ms']:.3f}ms"
            f"  self {segment['self_ms']:.3f}ms ({share:.1f}%)"
            f"  phase={segment['phase']}"
        )
    if analysis["dominant_phase"] is not None:
        share = (analysis["dominant_ms"] / total * 100.0) if total > 0 else 0.0
        phases = " ".join(
            f"{phase}={ms:.3f}ms"
            for phase, ms in sorted(
                analysis["phases"].items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(f"  phases: {phases}")
        lines.append(
            f"  dominant phase: {analysis['dominant_phase']}"
            f" ({analysis['dominant_ms']:.3f}ms, {share:.1f}%)"
        )
    return "\n".join(lines)

"""Request tracing: trace/span IDs, parent links, and a bounded buffer.

The metric registry answers "how much / how often"; traces answer *where
one particular request's latency went*. The model follows the usual
distributed-tracing shape, scaled down to one process:

* a **trace** is the tree of spans serving one request, identified by a
  random 128-bit ``trace_id``;
* a **span** is one timed operation inside it (``http GET /forecast``,
  ``queue``, ``batch_forward``, ``model_forward``), with a ``parent_id``
  link to its enclosing span;
* **links** connect a span to *other* traces it serves — the
  micro-batcher's one ``batch_forward`` span is linked from every
  request trace that rode that batch.

Propagation is ``contextvars``-based within a thread (nested
``tracer.span(...)`` blocks parent automatically); crossing a thread
boundary is explicit — capture ``span.context`` on one side, pass it as
``parent=`` on the other (the serve engine does exactly this across its
request queue).

Sampling is decided once per trace at root-span creation with a seeded
RNG, so a 1% rate costs non-sampled requests only an ID allocation and
two clock reads. Finished sampled spans land in a bounded in-memory
deque (oldest evicted first) and, optionally, an append-only JSONL
export file that :func:`load_traces` groups back into traces.

A module-level default tracer backs :func:`get_tracer`/:func:`set_tracer`
mirroring the metric registry's pattern; it starts with ``sample_rate=0``
so untraced library use is free until something opts in.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = [
    "SpanContext",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "format_trace",
    "load_traces",
]


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: everything propagation needs."""

    trace_id: str
    span_id: str
    sampled: bool

    def to_json_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


@dataclass
class Span:
    """One timed operation within a trace.

    ``service`` names the process (or shard) that produced the span —
    ``None`` for a plain single-process tracer, ``"router"`` / ``"s0"``
    etc. in the cluster — so spans merged across processes stay
    attributable to their origin.
    """

    name: str
    context: SpanContext
    parent_id: str | None
    start: float
    end: float | None = None
    attributes: dict = field(default_factory=dict)
    links: list[SpanContext] = field(default_factory=list)
    status: str = "ok"
    service: str | None = None

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1e3

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def add_link(self, context: SpanContext) -> None:
        self.links.append(context)

    def to_json_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
            "links": [link.to_json_dict() for link in self.links],
            "status": self.status,
            "service": self.service,
        }


_CURRENT: contextvars.ContextVar[SpanContext | None] = contextvars.ContextVar(
    "repro_trace_current", default=None
)


class Tracer:
    """Creates spans, decides sampling, and buffers finished traces.

    Parameters
    ----------
    sample_rate:
        Probability (0..1) that a *new trace* is recorded. The decision
        is made once at root-span creation and inherited by every child
        and link, so traces are always complete or absent, never ragged.
    max_spans:
        Bound on the finished-span buffer; the oldest spans fall off
        first. Keyed per span, not per trace, so one pathological trace
        cannot pin the whole buffer.
    export_path:
        Optional JSONL file; every finished sampled span is appended as
        one JSON object (the :meth:`Span.to_json_dict` schema), which
        :func:`load_traces` reads back.
    clock:
        Injectable monotonic clock (tests use a fake).
    seed:
        Seeds both ID generation and the sampling decision, making trace
        output deterministic for a fixed request order.
    service:
        Name stamped on every span this tracer creates (``"router"``,
        ``"s0"``...). Identifies the owning process once spans from
        several processes are merged into one trace.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        max_spans: int = 2048,
        export_path: str | None = None,
        clock: Callable[[], float] = time.perf_counter,
        seed: int | None = None,
        service: str | None = None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.sample_rate = sample_rate
        self.export_path = export_path
        self.service = service
        self._clock = clock
        self._rng = random.Random(seed)
        self._finished: "deque[Span]" = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._export_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def _new_id(self, bits: int = 64) -> str:
        with self._lock:
            return f"{self._rng.getrandbits(bits):0{bits // 4}x}"

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.sample_rate

    def start_span(
        self,
        name: str,
        parent: SpanContext | None = None,
        attributes: dict | None = None,
        links: list[SpanContext] | None = None,
    ) -> Span:
        """Begin a span; the caller must pass it to :meth:`end_span`.

        ``parent`` defaults to the thread's current span context; with
        neither, the span roots a new trace and the sampling decision is
        made here.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            context = SpanContext(
                trace_id=self._new_id(128), span_id=self._new_id(), sampled=self._sample()
            )
            parent_id = None
        else:
            context = SpanContext(
                trace_id=parent.trace_id, span_id=self._new_id(), sampled=parent.sampled
            )
            parent_id = parent.span_id
        return Span(
            name=name,
            context=context,
            parent_id=parent_id,
            start=self._clock(),
            attributes=dict(attributes or {}),
            links=list(links or []),
            service=self.service,
        )

    def end_span(self, span: Span, status: str | None = None) -> Span:
        """Finish a span and, if its trace is sampled, record it."""
        if span.end is None:  # idempotent: double-end keeps the first time
            span.end = self._clock()
        if status is not None:
            span.status = status
        if span.context.sampled:
            with self._lock:
                self._finished.append(span)
            if self.export_path is not None:
                self._export_span(span)
        return span

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        parent: SpanContext | None = None,
        attributes: dict | None = None,
        links: list[SpanContext] | None = None,
    ) -> Iterator[Span]:
        """Context-managed span; becomes the current context for its body.

        Exceptions mark the span ``status="error"`` (with the exception
        type attached) and re-raise.
        """
        span = self.start_span(name, parent=parent, attributes=attributes, links=links)
        token = _CURRENT.set(span.context)
        try:
            yield span
        except BaseException as error:
            span.set_attribute("exception", type(error).__name__)
            self.end_span(span, status="error")
            raise
        else:
            self.end_span(span)
        finally:
            _CURRENT.reset(token)

    @staticmethod
    def current_context() -> SpanContext | None:
        """The calling thread's innermost open span context, if any."""
        return _CURRENT.get()

    # ------------------------------------------------------------------
    # Buffer access
    # ------------------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        """Finished sampled spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def traces(self, limit: int | None = None) -> list[dict]:
        """Finished spans grouped per trace, most recently finished first.

        Each entry is ``{"trace_id", "spans": [span dicts sorted by
        start]}``; ``limit`` truncates to the most recent traces.
        """
        spans = (span.to_json_dict() for span in self.finished_spans())
        return _group_traces(spans, limit, newest_first=True)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _export_span(self, span: Span) -> None:
        directory = os.path.dirname(self.export_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        line = json.dumps(span.to_json_dict()) + "\n"
        with self._export_lock, open(self.export_path, "a") as handle:
            handle.write(line)


# ----------------------------------------------------------------------
# Default tracer + rendering
# ----------------------------------------------------------------------
_DEFAULT_TRACER = Tracer(sample_rate=0.0)


def get_tracer() -> Tracer:
    """Return the process-wide default tracer (sampling off until set)."""
    return _DEFAULT_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer; returns the previous one."""
    global _DEFAULT_TRACER
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer
    return previous


def _group_traces(
    spans: Iterable[dict], limit: int | None = None, newest_first: bool = False
) -> list[dict]:
    """Group span dicts into ``{"trace_id", "spans"}`` entries.

    Traces keep the order in which their first span arrives, reversed
    with ``newest_first``; ``limit`` keeps the first ``limit`` of them.
    A span seen twice (same ``span_id``, e.g. exported by two sources)
    counts once, and spans without a trace or span id are dropped.
    Within a trace, spans sort by ``(service, start)``: start times come
    from each process's own clock, so they are only ordered within one
    service.
    """
    grouped: dict[str, dict[str, dict]] = {}
    for span in spans:
        trace_id, span_id = span.get("trace_id"), span.get("span_id")
        if trace_id is not None and span_id is not None:
            grouped.setdefault(trace_id, {}).setdefault(span_id, span)
    order = list(grouped)
    if newest_first:
        order.reverse()
    if limit is not None:
        order = order[: max(limit, 0)]
    return [
        {"trace_id": trace_id,
         "spans": sorted(grouped[trace_id].values(),
                         key=lambda s: (s.get("service") or "", s.get("start") or 0.0))}
        for trace_id in order
    ]


def _read_spans(path: str) -> Iterator[dict]:
    """The span objects of a JSONL export, skipping any other line.

    The tracer appends one line per finished span, so a file read while
    a server writes it, or after a crash, can end in a partial line.
    """
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                span = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(span, dict):
                yield span


def load_traces(source: str, limit: int | None = None) -> list[dict]:
    """Fetch traces from a server's ``/traces`` or regroup a JSONL span export.

    ``source`` is an ``http(s)://host:port`` base URL or a span file
    written by ``export_path``; either way the most recently started
    trace comes first, at most ``limit`` of them. A file line that is
    not a span object (a partial last line, say) is skipped.
    """
    if source.startswith("http://") or source.startswith("https://"):
        from urllib.request import urlopen

        url = source.rstrip("/") + "/traces"
        if limit is not None:
            url += f"?limit={limit}"
        with urlopen(url) as response:
            return json.load(response)["traces"]
    return _group_traces(_read_spans(source), limit, newest_first=True)


def _span_label(span: dict) -> str:
    """``name@service`` when the owning process is known, else the name."""
    service = span.get("service")
    return f"{span['name']}@{service}" if service else span["name"]


def format_trace(trace: dict, critical_path: bool = False) -> str:
    """Pretty-print one :meth:`Tracer.traces` entry as an indented tree.

    Orphan spans (parent evicted from the buffer or still open) are
    rendered as extra roots rather than dropped, so a truncated trace
    still shows everything it has. Cross-thread and cross-process links
    are resolved against the trace itself: a link to a span present in
    the merge renders as ``name@service`` (the owning process/shard),
    and only links whose target is missing fall back to the raw span id.
    With ``critical_path=True`` the latency-attribution summary from
    :func:`repro.telemetry.distributed.format_critical_path` is appended.
    """
    spans = trace["spans"]
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        parent = span["parent_id"] if span["parent_id"] in by_id else None
        children.setdefault(parent, []).append(span)

    lines = [f"trace {trace['trace_id']}"]

    def link_label(link: dict) -> str:
        target = by_id.get(link.get("span_id"))
        if target is not None:
            return _span_label(target)
        return f"{link.get('span_id', '?')}?"

    def walk(span: dict, depth: int) -> None:
        indent = "  " * depth
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span["attributes"].items()))
        link_text = ""
        if span["links"]:
            labels = ", ".join(link_label(link) for link in span["links"])
            link_text = f" links=[{labels}]"
        status = "" if span["status"] == "ok" else f" [{span['status']}]"
        service = span.get("service")
        tag = f" [{service}]" if service else ""
        lines.append(
            f"{indent}{span['name']}{tag}  {span['duration_ms']:.3f}ms"
            f"{status}{' ' + attrs if attrs else ''}{link_text}"
        )
        for child in sorted(children.get(span["span_id"], []), key=lambda s: s["start"]):
            walk(child, depth + 1)

    for root in sorted(children.get(None, []), key=lambda s: s["start"]):
        walk(root, 1)
    if critical_path:
        # Local import: distributed.py imports SpanContext from here.
        from .distributed import format_critical_path

        lines.append(format_critical_path(trace))
    return "\n".join(lines)

"""Metric primitives: counters, gauges and histograms.

The registry is the in-process aggregation point for run-time signals.
It is deliberately dependency-free and cheap: every primitive is a tiny
mutable object looked up once by name, so hot loops can hold a direct
reference (``h = registry.histogram("serve/latency_ms")``) and pay only
an attribute update per event. Timing lives in
:class:`~repro.telemetry.trace.Tracer` spans; a histogram records a
duration the caller has already measured.

:func:`get_registry` returns a process-wide default registry for code
that has no registry handle of its own.

Primitives are mutated concurrently — HTTP handler threads, the
micro-batching dispatcher and the observation feed all share one
registry — so every update takes a per-primitive lock. The lock guards
a handful of float updates; contention is negligible next to a model
forward.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricRegistry",
    "get_registry",
]

#: Fixed latency buckets (milliseconds) for Prometheus histogram
#: exposition; chosen to straddle the serve path's cache-hit (<1ms)
#: through cold-batch (~100ms) regimes.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class Counter:
    """Monotonically increasing count of events (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-written value of a quantity that can go up or down (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming summary (count/sum/min/max/mean) over fixed buckets.

    ``buckets`` are fixed upper bounds (default: the serve-latency
    milliseconds ladder) counted cumulatively for Prometheus histogram
    exposition; an implicit ``+Inf`` bucket catches the overflow.
    """

    __slots__ = ("name", "count", "sum", "min", "max",
                 "buckets", "bucket_counts", "bucket_exemplars", "_lock")

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
    ):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = tuple(sorted(float(b) for b in buckets))
        # one count per finite bucket + a final overflow (+Inf) slot
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        # last (trace_id, value) landing in each bucket, None until one does
        self.bucket_exemplars: list[tuple[str, float] | None] = [None] * (
            len(self.buckets) + 1
        )
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation.

        ``exemplar`` is an optional trace id to pin to the bucket the
        value lands in (kept last-writer-wins per bucket); the
        Prometheus renderer can attach it to the matching ``_bucket``
        line so a slow bucket links straight to a trace.
        """
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for idx, bound in enumerate(self.buckets):
                if value <= bound:
                    break
            else:
                idx = len(self.buckets)
            self.bucket_counts[idx] += 1
            if exemplar is not None:
                self.bucket_exemplars[idx] = (exemplar, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``.

        This is the Prometheus histogram convention: each bucket counts
        every observation less than or equal to its bound.
        """
        with self._lock:
            counts = list(self.bucket_counts)
        pairs = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + counts[-1]))
        return pairs

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class MetricRegistry:
    """Named collection of metric primitives.

    Metrics are created on first access and shared thereafter, so
    ``registry.counter("batches").inc()`` from two call sites updates one
    counter.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # Guards first-access creation when two threads race on a name.
        self._create_lock = threading.Lock()

    # -- primitive accessors ------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._histograms.setdefault(name, Histogram(name, buckets=buckets))
        return metric

    # -- lifecycle -----------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serialisable view of every metric."""
        with self._create_lock:  # freeze membership, not values
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {n: c.snapshot() for n, c in counters},
            "gauges": {n: g.snapshot() for n, g in gauges},
            "histograms": {n: h.snapshot() for n, h in histograms},
        }

    def reset(self) -> None:
        """Drop all metrics."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_DEFAULT_REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    """Return the process-wide default registry."""
    return _DEFAULT_REGISTRY

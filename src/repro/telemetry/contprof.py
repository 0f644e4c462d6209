"""Always-on sampling profiler for the serving processes.

The op profiler (PR 1) times autodiff ops inside a forward — precise
but scoped. This profiler answers the complementary question for a
long-running server: *where do the threads actually spend their time*,
including lock waits, JSON, sockets and everything the op timer never
sees. A daemon thread wakes every ``interval_s``, walks
``sys._current_frames()``, and aggregates each thread's stack into:

* **collapsed stacks** — ``frame;frame;frame count`` lines, the
  flamegraph interchange format, exportable per worker and mergeable at
  the router with a per-shard prefix;
* **phase counts** — each sample classified by the innermost known
  serving frame (model forward, batch dispatch, HTTP routing, shadow
  mirror, router fan-out), the cheap always-on complement to the
  critical-path analyzer;
* **its own overhead** — mean sampling sweep cost vs. the interval, so
  "<2% at the default rate" is a measured number (sweeps are a few
  dozen microseconds; at the 100ms default interval the duty cycle is
  well under 0.1%).

Sampling reads other threads' frames without suspending them, so stacks
are instantaneous snapshots — statistically representative, never a
blocking act. The sampler skips its own thread.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Callable

from .registry import MetricRegistry

__all__ = [
    "ContinuousProfiler",
    "parse_collapsed",
    "merge_collapsed",
    "DEFAULT_INTERVAL_S",
]

DEFAULT_INTERVAL_S = 0.1

#: Innermost-first frame → serving phase classification. Ordered: the
#: first marker found walking leaf → root decides the sample's phase.
_PHASE_OF_FRAME = {
    "forward_batch": "model",
    "forward": "model",
    "_predict": "model",
    "_guarded_predict": "model",
    "_answer": "batch",
    "_finish": "batch",
    "_dispatch_loop": "dispatch",
    "_shadow_loop": "shadow",
    "_mirror_one": "shadow",
    "_fan": "fanout",
    "_call": "fanout",
    "request": "network",
    "handle": "http",
}


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = os.path.basename(code.co_filename)
    if filename.endswith(".py"):
        filename = filename[:-3]
    return f"{filename}:{code.co_name}"


class ContinuousProfiler:
    """Thread stack sampler with collapsed-stack aggregation.

    Parameters
    ----------
    interval_s:
        Sleep between sweeps. The default (100ms) keeps overhead far
        below 2%; profiling-heavy sessions can drop to 10ms.
    max_depth:
        Frames kept per stack (leaf end preserved).
    max_stacks:
        Distinct collapsed stacks retained; further new stacks fold
        into an ``<overflow>`` bucket so memory stays bounded.
    registry:
        Optional metric registry; ``contprof/*`` gauges refresh on
        every :meth:`snapshot`.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        max_depth: int = 48,
        max_stacks: int = 4096,
        registry: MetricRegistry | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if max_depth < 1 or max_stacks < 1:
            raise ValueError("max_depth and max_stacks must be >= 1")
        self.interval_s = float(interval_s)
        self.max_depth = max_depth
        self.max_stacks = max_stacks
        self.registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: Counter[str] = Counter()
        self._threads: Counter[str] = Counter()
        self._phases: Counter[str] = Counter()
        self._samples = 0
        self._sweeps = 0
        self._sweep_cost_s = 0.0
        self._started_at: float | None = None
        self._elapsed_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ContinuousProfiler":
        if self.running:
            return self
        self._stop.clear()
        self._started_at = self._clock()
        self._thread = threading.Thread(
            target=self._loop, name="contprof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, 10 * self.interval_s))
        self._thread = None
        if self._started_at is not None:
            self._elapsed_s += self._clock() - self._started_at
            self._started_at = None

    def __enter__(self) -> "ContinuousProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            began = self._clock()
            try:
                self.sample_once()
            except Exception:
                pass  # never let the sampler kill the process
            cost = self._clock() - began
            self._stop.wait(max(0.0, self.interval_s - cost))

    def sample_once(self) -> int:
        """One sweep over all live threads; returns threads sampled."""
        began = self._clock()
        own = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        sampled = 0
        with self._lock:
            for ident, frame in frames.items():
                if ident == own:
                    continue
                labels: list[str] = []
                cursor = frame
                phase = "other"
                decided = False
                while cursor is not None and len(labels) < self.max_depth:
                    labels.append(_frame_label(cursor))
                    if not decided:
                        found = _PHASE_OF_FRAME.get(cursor.f_code.co_name)
                        if found is not None:
                            phase = found
                            decided = True
                    cursor = cursor.f_back
                stack = ";".join(reversed(labels))
                if stack not in self._stacks and len(self._stacks) >= self.max_stacks:
                    stack = "<overflow>"
                self._stacks[stack] += 1
                self._threads[names.get(ident, f"tid-{ident}")] += 1
                self._phases[phase] += 1
                sampled += 1
            self._samples += sampled
            self._sweeps += 1
            self._sweep_cost_s += self._clock() - began
        return sampled

    # ------------------------------------------------------------------
    # Exposure
    # ------------------------------------------------------------------
    def _duration_s(self) -> float:
        elapsed = self._elapsed_s
        if self._started_at is not None:
            elapsed += self._clock() - self._started_at
        return elapsed

    def overhead_ratio(self) -> float:
        """Measured sweep time as a share of wall time (the duty cycle)."""
        duration = self._duration_s()
        if duration <= 0:
            return 0.0
        return self._sweep_cost_s / duration

    def snapshot(self) -> dict:
        with self._lock:
            stacks = dict(self._stacks)
            threads = dict(self._threads)
            phases = dict(self._phases)
            samples = self._samples
            sweeps = self._sweeps
            cost = self._sweep_cost_s
        snap = {
            "running": self.running,
            "interval_s": self.interval_s,
            "duration_s": self._duration_s(),
            "sweeps": sweeps,
            "samples": samples,
            "mean_sweep_ms": (cost / sweeps * 1e3) if sweeps else 0.0,
            "overhead_ratio": self.overhead_ratio(),
            "threads": threads,
            "phases": phases,
            "stacks": stacks,
        }
        if self.registry is not None:
            self.registry.gauge("contprof/samples").set(float(samples))
            self.registry.gauge("contprof/overhead_ratio").set(
                self.overhead_ratio()
            )
        return snap

    def collapsed(self, prefix: str | None = None) -> str:
        """Collapsed-stack text, heaviest stacks first.

        ``prefix`` prepends a frame to every stack (the router labels
        each worker's stacks with its shard name before merging).
        """
        with self._lock:
            items = self._stacks.most_common()
        head = f"{prefix};" if prefix else ""
        return "\n".join(f"{head}{stack} {count}" for stack, count in items)

    def clear(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._threads.clear()
            self._phases.clear()
            self._samples = 0
            self._sweeps = 0
            self._sweep_cost_s = 0.0
            self._elapsed_s = 0.0
            if self._started_at is not None:
                self._started_at = self._clock()


def parse_collapsed(text: str) -> Counter:
    """Parse collapsed-stack text back into ``{stack: count}``."""
    counts: Counter[str] = Counter()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack:
            continue
        try:
            counts[stack] += int(count)
        except ValueError:
            continue
    return counts


def merge_collapsed(sources: dict[str, str]) -> str:
    """Merge per-process collapsed text under per-source stack prefixes.

    ``sources`` maps a label (``"router"``, ``"s0"``...) to that
    process's collapsed output; every stack gains the label as its root
    frame, so one flamegraph shows the whole cluster side by side.
    """
    merged: Counter[str] = Counter()
    for label, text in sources.items():
        for stack, count in parse_collapsed(text).items():
            merged[f"{label};{stack}"] += count
    return "\n".join(f"{stack} {count}" for stack, count in merged.most_common())

"""Autodiff op profiler: per-op counts, wall time, and allocation sizes.

Every grad-mode op funnels through :meth:`Tensor._make`, and that one
hook is all a profiler installs. While it is active the hook

* counts the op, sums the bytes of each result array and tracks the
  largest single allocation per op;
* charges the op its forward time by a per-thread *lap*: the time since
  the previous op on the same thread was made, or since the window
  opened on the thread that opened it. The hook's own work falls
  between laps, so it is charged to no op;
* wraps the op's backward closure so backward wall time is attributed
  to the op that created the node. A backward closure ends its thread's
  lap: the next op made there starts a fresh lap and charges nothing,
  so clipping, the optimizer step and the loader between training steps
  land on no op.

No-grad ops take a dispatch path that never reaches ``_make``, so they
record neither calls nor time. Composite ops (``min``, ``swapaxes``,
``softmax``...) are not ops of their own: their cost shows up in the
primitives they decompose into. Nothing is installed when no profiler
is active — the hot path pays zero overhead outside a profiling window.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..autodiff.tensor import Tensor

__all__ = ["OpStats", "OpProfiler"]


@dataclass
class OpStats:
    """Aggregate cost of one autodiff op over a profiling window."""

    op: str
    calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    alloc_bytes: int = 0
    peak_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "calls": self.calls,
            "forward_seconds": self.forward_seconds,
            "backward_calls": self.backward_calls,
            "backward_seconds": self.backward_seconds,
            "total_seconds": self.total_seconds,
            "alloc_bytes": self.alloc_bytes,
            "peak_bytes": self.peak_bytes,
        }


_ACTIVE: "OpProfiler | None" = None


class OpProfiler:
    """Records per-op autodiff cost while installed.

    Use as a context manager (``with OpProfiler() as prof: ...``) or via
    explicit :meth:`activate`/:meth:`deactivate`. Only one profiler can
    be installed at a time; stats accumulate across repeated activations
    of the same instance until :meth:`reset`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.stats: dict[str, OpStats] = {}
        self._laps = threading.local()
        self._saved_make = None

    # -- recording -----------------------------------------------------
    def _stat(self, op: str) -> OpStats:
        stat = self.stats.get(op)
        if stat is None:
            stat = self.stats[op] = OpStats(op)
        return stat

    # -- installation --------------------------------------------------
    def activate(self) -> "OpProfiler":
        global _ACTIVE
        if _ACTIVE is self:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another OpProfiler is already active")
        _ACTIVE = self
        self._laps = threading.local()
        self._install_make_hook()
        self._laps.start = self._clock()
        return self

    def deactivate(self) -> None:
        global _ACTIVE
        if _ACTIVE is not self:
            return
        Tensor._make = self._saved_make
        self._saved_make = None
        _ACTIVE = None

    def __enter__(self) -> "OpProfiler":
        return self.activate()

    def __exit__(self, *exc) -> None:
        self.deactivate()

    def _install_make_hook(self) -> None:
        self._saved_make = Tensor.__dict__["_make"]
        original = self._saved_make.__func__
        profiler = self
        clock = self._clock

        def profiled_make(data, parents, backward, op):
            now = clock()
            laps = profiler._laps
            stat = profiler._stat(op)
            stat.calls += 1
            start = getattr(laps, "start", None)
            if start is not None:
                stat.forward_seconds += now - start
            nbytes = getattr(data, "nbytes", 0)
            stat.alloc_bytes += nbytes
            if nbytes > stat.peak_bytes:
                stat.peak_bytes = nbytes

            def timed_backward(g, _orig=backward, _stat=stat):
                start = clock()
                grads = _orig(g)
                _stat.backward_seconds += clock() - start
                _stat.backward_calls += 1
                profiler._laps.start = None
                return grads

            out = original(data, parents, timed_backward, op)
            laps.start = clock()
            return out

        Tensor._make = staticmethod(profiled_make)

    # -- reporting -----------------------------------------------------
    def reset(self) -> None:
        self.stats.clear()

    def sorted_stats(self) -> list[OpStats]:
        """Every recorded op, by total seconds (descending)."""
        return sorted(self.stats.values(), key=lambda s: s.total_seconds, reverse=True)

    def as_dict(self, top: int | None = None) -> list[dict]:
        """JSON-serialisable hotspot list, most expensive first."""
        return [s.as_dict() for s in self.sorted_stats()[:top]]

    def report(self, top: int | None = None) -> str:
        """Fixed-width hotspot table, most expensive first.

        ``top`` bounds the rows printed; the ``TOTAL`` row always sums
        every recorded op.
        """
        stats = self.sorted_stats()
        header = (
            f"{'op':<14} {'calls':>8} {'fwd s':>9} {'bwd s':>9} "
            f"{'total s':>9} {'alloc MB':>10} {'peak MB':>9}"
        )
        totals = OpStats(
            "TOTAL",
            calls=sum(s.calls for s in stats),
            forward_seconds=sum(s.forward_seconds for s in stats),
            backward_calls=sum(s.backward_calls for s in stats),
            backward_seconds=sum(s.backward_seconds for s in stats),
            alloc_bytes=sum(s.alloc_bytes for s in stats),
            peak_bytes=max((s.peak_bytes for s in stats), default=0),
        )
        lines = [header, "-" * len(header)]
        for s in stats[:top]:
            lines.append(_row(s))
        if not stats:
            lines.append("(no ops recorded)")
        lines.append("-" * len(header))
        lines.append(_row(totals))
        return "\n".join(lines)


def _row(s: OpStats) -> str:
    return (
        f"{s.op:<14} {s.calls:>8d} {s.forward_seconds:>9.4f} "
        f"{s.backward_seconds:>9.4f} {s.total_seconds:>9.4f} "
        f"{s.alloc_bytes / 1e6:>10.2f} {s.peak_bytes / 1e6:>9.2f}"
    )

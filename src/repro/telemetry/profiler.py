"""Autodiff op profiler: per-op counts, wall time, and allocation sizes.

The engine's ops all funnel through :meth:`Tensor._make`, which makes it
a natural interception point. While a profiler is active it

* wraps ``Tensor._make`` to count every op, sum the bytes of each result
  array, track the largest single allocation per op, and wrap the op's
  backward closure so backward wall time is attributed to the op that
  created the node;
* patches the public ``Tensor`` methods (and the module-level free
  functions ``concat``/``stack``/``where``/``maximum``/``minimum``) with
  timing shims so forward wall time is recorded per op.

Nothing is installed when no profiler is active — the hot path pays zero
overhead outside a profiling window. Composite ops (``min``,
``swapaxes``, ``softmax``...) are intentionally not timed as themselves;
their cost shows up in the primitives they decompose into. Code that
bound the free functions before activation (``from repro.autodiff import
concat``) bypasses the forward-timing shim but is still counted and
backward-timed via the ``_make`` hook.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from ..autodiff import tensor as _tensor_mod
from ..autodiff.tensor import Tensor

__all__ = ["OpStats", "OpProfiler", "profile"]


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


#: Tensor methods whose body IS one primitive op, mapped to the op name
#: recorded by ``Tensor._make`` (composites like ``min`` are excluded so
#: time is never double-attributed).
_METHOD_OPS: dict[str, str] = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__neg__": "neg",
    "__pow__": "pow",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "abs": "abs",
    "clip": "clip",
    "sum": "sum",
    "mean": "mean",
    "max": "max",
    "matmul": "matmul",
    "__matmul__": "matmul",
    "reshape": "reshape",
    "transpose": "transpose",
    "squeeze": "squeeze",
    "unsqueeze": "unsqueeze",
    "broadcast_to": "broadcast_to",
    "pad": "pad",
    "__getitem__": "getitem",
}

#: module-level free functions in ``repro.autodiff.tensor``
_FREE_FUNCTION_OPS: dict[str, str] = {
    "concat": "concat",
    "split": "split",
    "stack": "stack",
    "where": "where",
    "maximum": "maximum",
    "minimum": "minimum",
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
        self._saved_methods: dict[str, object] = {}
        self._saved_functions: dict[str, object] = {}
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
        self._install_make_hook()
        self._install_forward_shims()
        return self

    def deactivate(self) -> None:
        global _ACTIVE
        if _ACTIVE is not self:
            return
        Tensor._make = self._saved_make
        self._saved_make = None
        for name, fn in self._saved_methods.items():
            setattr(Tensor, name, fn)
        self._saved_methods.clear()
        for name, fn in self._saved_functions.items():
            setattr(_tensor_mod, name, fn)
        # Re-export the restored functions on the package namespace too.
        from .. import autodiff as _autodiff_pkg

        for name in self._saved_functions:
            setattr(_autodiff_pkg, name, getattr(_tensor_mod, name))
        self._saved_functions.clear()
        _ACTIVE = None

    def __enter__(self) -> "OpProfiler":
        return self.activate()

    def __exit__(self, *exc) -> None:
        self.deactivate()

    def _install_make_hook(self) -> None:
        original = Tensor.__dict__["_make"].__func__
        self._saved_make = staticmethod(original)
        profiler = self
        clock = self._clock

        def profiled_make(data, parents, backward, op):
            stat = profiler._stat(op)
            stat.calls += 1
            nbytes = getattr(data, "nbytes", 0)
            stat.alloc_bytes += nbytes
            if nbytes > stat.peak_bytes:
                stat.peak_bytes = nbytes

            def timed_backward(g, _orig=backward, _stat=stat):
                start = clock()
                grads = _orig(g)
                _stat.backward_seconds += clock() - start
                _stat.backward_calls += 1
                return grads

            return original(data, parents, timed_backward, op)

        Tensor._make = staticmethod(profiled_make)

    def _install_forward_shims(self) -> None:
        profiler = self
        clock = self._clock

        def make_shim(fn, op):
            def shim(*args, **kwargs):
                start = clock()
                out = fn(*args, **kwargs)
                profiler._stat(op).forward_seconds += clock() - start
                return out

            shim.__name__ = getattr(fn, "__name__", op)
            return shim

        for name, op in _METHOD_OPS.items():
            fn = Tensor.__dict__.get(name)
            if fn is None:
                continue
            self._saved_methods[name] = fn
            setattr(Tensor, name, make_shim(fn, op))
        from .. import autodiff as _autodiff_pkg

        for name, op in _FREE_FUNCTION_OPS.items():
            fn = getattr(_tensor_mod, name)
            self._saved_functions[name] = fn
            shim = make_shim(fn, op)
            setattr(_tensor_mod, name, shim)
            setattr(_autodiff_pkg, name, shim)

    # -- reporting -----------------------------------------------------
    def reset(self) -> None:
        self.stats.clear()

    def sorted_stats(self, sort_by: str = "total_seconds") -> list[OpStats]:
        if sort_by not in ("total_seconds", "forward_seconds", "backward_seconds",
                           "calls", "alloc_bytes", "peak_bytes"):
            raise ValueError(f"unknown sort key {sort_by!r}")
        return sorted(
            self.stats.values(), key=lambda s: getattr(s, sort_by), reverse=True
        )

    def as_dict(self, top: int | None = None) -> list[dict]:
        """JSON-serialisable hotspot list, most expensive first."""
        rows = self.sorted_stats()
        if top is not None:
            rows = rows[:top]
        return [s.as_dict() for s in rows]

    def report(self, top: int | None = None, sort_by: str = "total_seconds") -> str:
        """Fixed-width hotspot table sorted by ``sort_by`` (descending)."""
        rows = self.sorted_stats(sort_by)
        if top is not None:
            rows = rows[:top]
        header = (
            f"{'op':<14} {'calls':>8} {'fwd s':>9} {'bwd s':>9} "
            f"{'total s':>9} {'alloc MB':>10} {'peak MB':>9}"
        )
        lines = [header, "-" * len(header)]
        for s in rows:
            lines.append(
                f"{s.op:<14} {s.calls:>8d} {s.forward_seconds:>9.4f} "
                f"{s.backward_seconds:>9.4f} {s.total_seconds:>9.4f} "
                f"{s.alloc_bytes / 1e6:>10.2f} {s.peak_bytes / 1e6:>9.2f}"
            )
        if not rows:
            lines.append("(no ops recorded)")
        totals = OpStats(
            "TOTAL",
            calls=sum(s.calls for s in rows),
            forward_seconds=sum(s.forward_seconds for s in rows),
            backward_calls=sum(s.backward_calls for s in rows),
            backward_seconds=sum(s.backward_seconds for s in rows),
            alloc_bytes=sum(s.alloc_bytes for s in rows),
            peak_bytes=max((s.peak_bytes for s in rows), default=0),
        )
        lines.append("-" * len(header))
        lines.append(
            f"{totals.op:<14} {totals.calls:>8d} {totals.forward_seconds:>9.4f} "
            f"{totals.backward_seconds:>9.4f} {totals.total_seconds:>9.4f} "
            f"{totals.alloc_bytes / 1e6:>10.2f} {totals.peak_bytes / 1e6:>9.2f}"
        )
        return "\n".join(lines)


@contextlib.contextmanager
def profile(clock: Callable[[], float] = time.perf_counter) -> Iterator[OpProfiler]:
    """Profile the ops executed in the body; yields the profiler."""
    prof = OpProfiler(clock=clock)
    prof.activate()
    try:
        yield prof
    finally:
        prof.deactivate()


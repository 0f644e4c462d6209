"""Fallback ladders.

:class:`Fallback` expresses "try these answers in order of preference"
as data instead of nested try/except: each rung is named, and the
result says which rung answered — the serving layer uses the name to
tag degraded responses (``X-Degraded`` header / ``degraded`` field).

:func:`window_mean_forecast` is the serving stack's rung of last
resort: a HistoricalAverage-style constant forecast computed purely
from the live :class:`~repro.serve.state.StateWindow` contents, so it
works even when the model (and its weights) are unusable.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["Fallback", "FallbackResult", "window_mean_forecast"]

T = TypeVar("T")


class FallbackResult:
    """The answer plus the name of the rung that produced it."""

    __slots__ = ("value", "rung", "errors")

    def __init__(self, value, rung: str, errors: list[BaseException]):
        self.value = value
        self.rung = rung
        self.errors = errors

    @property
    def degraded(self) -> bool:
        """True when any rung above the answering one failed."""
        return bool(self.errors)


class Fallback:
    """An ordered ladder of ``(name, callable)`` rungs.

    ``call()`` walks the rungs top-down; a rung failing with one of
    ``catch`` moves to the next. The last rung's error propagates —
    there is nothing left to degrade to.
    """

    def __init__(
        self,
        rungs: Sequence[tuple[str, Callable[..., T]]],
        catch: tuple[type[BaseException], ...] = (Exception,),
    ):
        if not rungs:
            raise ValueError("fallback ladder needs at least one rung")
        names = [name for name, _fn in rungs]
        if len(set(names)) != len(names):
            raise ValueError(f"fallback rung names must be unique, got {names}")
        self.rungs = list(rungs)
        self.catch = tuple(catch)

    def call(self, *args, **kwargs) -> FallbackResult:
        errors: list[BaseException] = []
        for index, (name, fn) in enumerate(self.rungs):
            try:
                return FallbackResult(fn(*args, **kwargs), name, errors)
            except self.catch as error:
                if index == len(self.rungs) - 1:
                    raise
                errors.append(error)
        raise AssertionError("unreachable: loop returns or raises")


def window_mean_forecast(window, horizon: int) -> np.ndarray:
    """Constant forecast from live state only (the ladder's last rung).

    Per ``(node, feature)``: the mean of that entry's *observed* values
    across the window (the paper's HistoricalAverage, computed on the
    ring buffer instead of training data); entries with zero
    observations fall back to the network-wide observed mean. A window
    with no observations at all cannot be forecast from — the caller
    maps that to 503.
    """
    x = np.asarray(window.x, dtype=np.float64)
    m = np.asarray(window.m, dtype=np.float64)
    observed = m.sum(axis=0)  # (N, D)
    if not observed.any():
        from ..errors import ServeError

        raise ServeError(
            "state window holds no observations; nothing to fall back on"
        )
    entry_mean = (x * m).sum(axis=0) / np.maximum(observed, 1.0)
    global_mean = (x * m).sum() / m.sum()
    mean = np.where(observed > 0, entry_mean, global_mean)  # (N, D)
    return np.repeat(mean[None], horizon, axis=0)

"""Monotonic-clock deadlines threaded through the serving path.

A :class:`Deadline` is an absolute expiry on a monotonic clock. It is
created once at the edge (one per forecast request), carried with the
request through the engine's batching queue, and *checked at batch
boundaries* — enqueue, batch formation, pre-forward — so a request that
has already blown its budget never pays for a model forward it cannot
use. Deadlines are passed explicitly, because the request crosses
into the dispatcher thread.
"""

from __future__ import annotations

import time
from typing import Callable

from ..errors import DeadlineExceeded

__all__ = ["Deadline"]


class Deadline:
    """An absolute time budget on a monotonic clock."""

    __slots__ = ("budget_s", "_expires", "_clock")

    def __init__(self, budget_s: float, clock: Callable[[], float] = time.monotonic):
        if budget_s <= 0:
            raise ValueError(f"deadline budget must be > 0 seconds, got {budget_s}")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._expires = clock() + self.budget_s

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now (alias of the constructor)."""
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._expires - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.budget_s:.3f}s deadline "
                f"({-remaining * 1e3:.1f}ms over)"
            )

    def clamp(self, timeout: float | None) -> float:
        """The tighter of ``timeout`` and the remaining budget (>= 0)."""
        remaining = max(self.remaining(), 0.0)
        if timeout is None:
            return remaining
        return min(float(timeout), remaining)

    def __repr__(self) -> str:
        return f"Deadline(budget_s={self.budget_s}, remaining={self.remaining():.3f}s)"

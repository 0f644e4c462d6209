"""One declarative knob-set for the serving stack's resilience behavior.

:class:`ResiliencePolicy` is the ``api_redesign`` surface: instead of
threading deadline/retry/breaker parameters through engine, HTTP layer
and CLI as loose kwargs, the whole policy is a single validated frozen
dataclass that rides inside :class:`~repro.serve.config.ServeConfig`
and crosses JSON with it through :mod:`repro.codec`. Factories
(:meth:`make_breaker`, :meth:`make_retry`, :meth:`make_deadline`) turn
the numbers into live primitives.

``ResiliencePolicy.disabled()`` switches every mechanism off — that is
the bitwise-identical-to-pre-policy baseline the overhead benchmark
compares against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError
from ..telemetry import MetricRegistry
from .breaker import CircuitBreaker
from .deadline import Deadline
from .retry import Retry

__all__ = ["ResiliencePolicy"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Deadlines, retries, breaker, fallback and shedding in one place.

    Semantics of the off-switches: ``deadline_s=None`` disables
    deadlines, ``retry_attempts=1`` disables retrying, ``breaker=False``
    disables the circuit breaker, ``fallback=False`` turns degradation
    into plain errors, ``max_queue_depth=0`` unbounds the request queue
    (no load shedding).
    """

    deadline_s: float | None = 10.0
    retry_attempts: int = 2
    retry_base_delay_s: float = 0.005
    retry_max_delay_s: float = 0.1
    breaker: bool = True
    breaker_window: int = 32
    breaker_failure_ratio: float = 0.5
    breaker_min_calls: int = 8
    breaker_open_s: float = 5.0
    breaker_half_open_calls: int = 2
    fallback: bool = True
    max_queue_depth: int = 128
    retry_after_s: float = 1.0

    def __post_init__(self):
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be > 0 or None, got {self.deadline_s}"
            )
        if self.retry_attempts < 1:
            raise ConfigError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        if not 0 <= self.retry_base_delay_s <= self.retry_max_delay_s:
            raise ConfigError(
                "need 0 <= retry_base_delay_s <= retry_max_delay_s, got "
                f"{self.retry_base_delay_s}/{self.retry_max_delay_s}"
            )
        if not 0.0 < self.breaker_failure_ratio <= 1.0:
            raise ConfigError(
                f"breaker_failure_ratio must be in (0, 1], "
                f"got {self.breaker_failure_ratio}"
            )
        if self.breaker_window < 1 or not (
            1 <= self.breaker_min_calls <= self.breaker_window
        ):
            raise ConfigError(
                f"breaker_min_calls must be in 1..breaker_window "
                f"({self.breaker_window}), got {self.breaker_min_calls}"
            )
        if self.breaker_open_s <= 0:
            raise ConfigError(f"breaker_open_s must be > 0, got {self.breaker_open_s}")
        if self.breaker_half_open_calls < 1:
            raise ConfigError(
                f"breaker_half_open_calls must be >= 1, "
                f"got {self.breaker_half_open_calls}"
            )
        if self.max_queue_depth < 0:
            raise ConfigError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.retry_after_s <= 0:
            raise ConfigError(f"retry_after_s must be > 0, got {self.retry_after_s}")

    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "ResiliencePolicy":
        """Every mechanism off: the pre-policy serving behavior."""
        return cls(
            deadline_s=None,
            retry_attempts=1,
            breaker=False,
            fallback=False,
            max_queue_depth=0,
        )

    # ------------------------------------------------------------------
    def make_deadline(
        self, clock: Callable[[], float] = time.monotonic
    ) -> Deadline | None:
        if self.deadline_s is None:
            return None
        return Deadline(self.deadline_s, clock=clock)

    def make_retry(self, seed: int = 0) -> Retry | None:
        if self.retry_attempts <= 1:
            return None
        return Retry(
            max_attempts=self.retry_attempts,
            base_delay_s=self.retry_base_delay_s,
            max_delay_s=self.retry_max_delay_s,
            seed=seed,
        )

    def make_breaker(
        self,
        name: str = "model",
        registry: MetricRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> CircuitBreaker | None:
        if not self.breaker:
            return None
        return CircuitBreaker(
            window=self.breaker_window,
            failure_ratio=self.breaker_failure_ratio,
            min_calls=self.breaker_min_calls,
            open_s=self.breaker_open_s,
            half_open_calls=self.breaker_half_open_calls,
            name=name,
            registry=registry,
            clock=clock,
        )

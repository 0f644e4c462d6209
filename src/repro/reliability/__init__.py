"""Resilience primitives for the serving stack.

The paper's model degrades gracefully when *data* goes missing; this
package makes the *system* degrade gracefully when anything else does:

* :mod:`repro.reliability.deadline` — monotonic time budgets threaded
  through the request path (:class:`Deadline`);
* :mod:`repro.reliability.retry` — decorrelated-jitter backoff with a
  shared retry budget (:class:`Retry`, :class:`RetryBudget`);
* :mod:`repro.reliability.breaker` — closed/open/half-open circuit
  breaker over a failure window (:class:`CircuitBreaker`);
* :mod:`repro.reliability.fallback` — the state-only forecast of last
  resort (:func:`window_mean_forecast`), the bottom rung of the serving
  engine's fallback ladder;
* :mod:`repro.reliability.policy` — every knob in one validated frozen
  dataclass (:class:`ResiliencePolicy`);
* :mod:`repro.reliability.chaos` — seeded fault injection at the model
  and state-store seams (:class:`FaultPlan`).

See ``docs/RELIABILITY.md`` for the serving fallback ladder and chaos
workflow.
"""

from ..errors import CircuitOpen, DeadlineExceeded, InjectedFault, Overloaded
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .chaos import ChaosModel, ChaosStore, FaultPlan
from .deadline import Deadline
from .fallback import window_mean_forecast
from .policy import ResiliencePolicy
from .retry import Retry, RetryBudget

__all__ = [
    "Deadline",
    "Retry",
    "RetryBudget",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "window_mean_forecast",
    "ResiliencePolicy",
    "FaultPlan",
    "ChaosModel",
    "ChaosStore",
    "DeadlineExceeded",
    "CircuitOpen",
    "Overloaded",
    "InjectedFault",
]

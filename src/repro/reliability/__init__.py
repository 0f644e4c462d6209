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

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".deadline": ("Deadline",),
    ".retry": ("Retry", "RetryBudget"),
    ".breaker": ("CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"),
    ".fallback": ("window_mean_forecast",),
    ".policy": ("ResiliencePolicy",),
    ".chaos": ("FaultPlan", "ChaosModel", "ChaosStore"),
    "..errors": ("DeadlineExceeded", "CircuitOpen", "Overloaded", "InjectedFault"),
})

"""Traced-plan runtime for the forecast engine's hot path.

:class:`PlanRuntime` sits between :class:`~repro.serve.engine.
ForecastEngine` and :mod:`repro.autodiff.plan`. For every distinct
set of input ``(name, shape, dtype)`` the model's forward can take, it
walks one key through three states:

1. **compile** — the first request traces ``model.plan_forward`` and
   compiles an :class:`~repro.autodiff.ExecutionPlan`. The traced run
   computes on the base arrays, so its output *is* the answer: compiling
   costs one ordinary forward plus lowering.
2. **validate** — the second request runs both the replay and the eager
   forward and requires bitwise equality. A mismatch (data-dependent
   control flow the trace baked in) permanently demotes the key to
   eager.
3. **ready** — every later request replays the plan: zero Tensor
   allocation, zero graph construction.

Anything that goes wrong — the model does not implement planning,
tracing raises (:class:`~repro.autodiff.PlanUnsupported` or any other
error), validation fails — parks that key on the eager path forever and
bumps ``serve/plan_fallbacks``; serving never degrades, it only stops
accelerating, and a failed trace is never retried.

Every plan of one runtime is compiled into the runtime's one
:class:`~repro.autodiff.PlanArena`: plans replay one at a time, so they
share buffers and the arena holds what the largest plan needs per
``(shape, dtype)``, not the sum over plans. Past ``_MAX_PLANS`` keys
the least recently used one is evicted; its buffers stay in the arena
for the next plan.

Metrics (labelled like every other serve series): counters
``serve/plan_cache_hits`` / ``serve/plan_cache_misses`` /
``serve/plan_fallbacks``, histogram ``serve/plan_compile_seconds`` (a
plan's whole cold cost: the traced forward plus lowering, i.e.
``PlanStats.trace_seconds + compile_seconds``) and the per-mode forward
counter ``serve/engine_exec_mode`` with a ``mode`` label. Compilation
runs inside a ``plan.compile`` span.

:func:`check_plan` is the offline form of the same compile-and-validate
walk for one bundle; ``repro plan`` and the serve smoke both run it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..autodiff import (
    PlanArena,
    PlanUnsupported,
    default_dtype,
    inference_mode,
    trace,
)
from ..models.base import NeuralForecaster
from ..telemetry import MetricRegistry, Tracer, label_block

__all__ = ["PlanRuntime", "check_plan"]

#: plans cached per engine; keys beyond this evict the least recently used
_MAX_PLANS = 8


class _Entry:
    """State machine for one plan key."""

    __slots__ = ("state", "plan")

    def __init__(self):
        self.state = "compile"  # "compile" | "validate" | "ready" | "eager"
        self.plan = None


class PlanRuntime:
    """Per-engine cache of compiled execution plans.

    Not thread-safe on its own: the engine calls :meth:`predict` under
    its forward lock, which also keeps the zero-copy replay output alive
    until it is consumed.
    """

    def __init__(
        self,
        model: NeuralForecaster,
        registry: MetricRegistry,
        tracer: Tracer,
        labels: dict[str, str] | None = None,
    ):
        self.model = model
        self.registry = registry
        self.tracer = tracer
        self.labels = dict(labels) if labels else {}
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.arena = PlanArena()
        # Set permanently once plan_inputs returns None: the model does
        # not support planning, so skip the prologue on every request.
        # Plan support must be declared on the model's *class*: wrapper
        # models (chaos injectors, canary fault shims) intercept
        # ``__call__`` but delegate attribute access to the wrapped
        # model, and planning through the delegated ``plan_forward``
        # would silently route around the wrapper.
        self._unsupported = (
            getattr(type(model), "plan_inputs", None) is None
            or getattr(type(model), "plan_forward", None) is None
        )

    def _m(self, base: str, **extra: str) -> str:
        if not self.labels and not extra:
            return base
        return base + label_block({**self.labels, **extra})

    def _count(self, base: str, **extra: str) -> None:
        self.registry.counter(self._m(base, **extra)).inc()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready plan-cache state for operators."""
        with self._lock:
            states = [entry.state for entry in self._entries.values()]
        return {
            "supported": not self._unsupported,
            "plans": len(states),
            "ready": states.count("ready"),
            "eager_keys": states.count("eager"),
            "arena_bytes": self.arena.nbytes,
        }

    # ------------------------------------------------------------------
    def predict(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> np.ndarray | None:
        """The scaled prediction via the plan path, or ``None`` for eager.

        Must be called under the engine's forward lock: with a ready
        plan the returned array aliases the arena (``copy=False``) and
        is only valid until the next replay.
        """
        if self._unsupported:
            self._count("serve/engine_exec_mode", mode="eager")
            return None
        inputs = self.model.plan_inputs(x, m, steps_of_day)
        if inputs is None:
            self._unsupported = True
            self._count("serve/engine_exec_mode", mode="eager")
            return None
        key = tuple(
            (name, value.shape, str(value.dtype))
            for name, value in sorted(inputs.items())
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry()
                if len(self._entries) >= _MAX_PLANS:
                    self._entries.popitem(last=False)
                self._entries[key] = entry
            else:
                self._entries.move_to_end(key)

        if entry.state == "eager":
            self._count("serve/engine_exec_mode", mode="eager")
            return None
        if entry.state == "compile":
            self._count("serve/plan_cache_misses")
            return self._compile(entry, inputs)
        self._count("serve/plan_cache_hits")
        if entry.state == "validate":
            return self._validate(entry, inputs)
        self._count("serve/engine_exec_mode", mode="planned")
        return entry.plan.replay(inputs, copy=False)

    # ------------------------------------------------------------------
    def _compile(self, entry: _Entry, inputs: dict[str, np.ndarray]):
        """Trace + compile; the traced run's output is this answer."""
        with self.tracer.span(
            "plan.compile", attributes={"model": type(self.model).__name__}
        ) as span:
            try:
                plan, output = trace(self.model.plan_forward, inputs, self.arena)
            except Exception as error:
                # Park the key: a retrace would fail again, at the cost of
                # a traced forward, on every request.
                span.set_attribute("error", f"{type(error).__name__}: {error}")
                span.status = "error"
                entry.state = "eager"
                self._count("serve/plan_fallbacks")
                self._count("serve/engine_exec_mode", mode="eager")
                return None
            span.set_attribute("steps", plan.stats.steps)
            span.set_attribute("arena_bytes", plan.stats.arena_bytes)
        self.registry.histogram(self._m("serve/plan_compile_seconds")).observe(
            plan.stats.trace_seconds + plan.stats.compile_seconds
        )
        entry.plan = plan
        entry.state = "validate"
        self._count("serve/engine_exec_mode", mode="traced")
        return output

    def _validate(self, entry: _Entry, inputs: dict[str, np.ndarray]):
        """Warm check: one replay must match the eager forward bitwise.

        This is the guard against data-dependent control flow in the
        model's ``plan_forward`` — the one hazard no tracer can see.
        """
        replayed = entry.plan.replay(inputs, copy=True)
        with inference_mode():
            eager = np.asarray(self.model.plan_forward(**inputs))
        if replayed.dtype == eager.dtype and np.array_equal(
            replayed, eager, equal_nan=True
        ):
            entry.state = "ready"
            self._count("serve/engine_exec_mode", mode="planned")
            return replayed
        entry.plan = None
        entry.state = "eager"
        self._count("serve/plan_fallbacks")
        self._count("serve/engine_exec_mode", mode="eager")
        return eager


def check_plan(bundle, batch: int = 1, seed: int = 0, verify: bool = True) -> dict:
    """Trace ``bundle``'s forward for ``batch`` rows on seeded inputs.

    The plan is compiled on a window starting at a seeded step of the
    day. With ``verify`` it is replayed on a fresh draw at a *different*
    seeded start step, and the replay must be bitwise-equal to the eager
    forward, as a server's validate step requires. Moving the start
    moves any interval boundary inside the window, so control flow the
    trace baked in shows up as a mismatch. Returns ``{"compiled",
    "verified", "reason"}`` plus, as far as the check got, the plan's
    ``"stats"``, its ``"trace_seconds"`` and ``"compile_seconds"`` (the
    two parts of the cold-start cost a server pays once per batch
    shape), ``"arena_bytes"``, the buffers of the arena it is compiled
    into, and ``"max_abs_diff"`` between replay and eager; ``reason``
    explains an uncompiled plan or names both start steps of a
    mismatch, and ``verified`` is ``None`` without ``verify``.
    """
    model = bundle.model
    rng = np.random.default_rng(seed)
    length = bundle.input_length
    shape = (batch, length, bundle.num_nodes, bundle.num_features)
    steps_per_day = bundle.data_config.steps_per_day

    def draw(start: int):
        day_steps = (start + np.arange(length)) % steps_per_day
        steps = np.broadcast_to(day_steps, (batch, length)).copy()
        m = (rng.random(shape) >= 0.2).astype(default_dtype())
        x = rng.standard_normal(shape).astype(default_dtype()) * m
        return model.plan_inputs(x, m, steps)

    result = {"compiled": False, "verified": None, "reason": None}
    compiled_at = int(rng.integers(0, steps_per_day))
    inputs = draw(compiled_at)
    if inputs is None:
        result["reason"] = f"{bundle.model_name} does not implement traced plans"
        return result
    arena = PlanArena()
    try:
        plan, _ = trace(model.plan_forward, inputs, arena)
    except PlanUnsupported as error:
        result["reason"] = f"plan unsupported: {error}"
        return result
    result.update(compiled=True, stats=plan.stats.as_dict(),
                  trace_seconds=plan.stats.trace_seconds,
                  compile_seconds=plan.stats.compile_seconds,
                  arena_bytes=arena.nbytes)
    if not verify:
        return result

    # Any other step of the day (the same one only if the day has one).
    shift = int(rng.integers(1, steps_per_day)) if steps_per_day > 1 else 0
    replayed_at = (compiled_at + shift) % steps_per_day
    inputs = draw(replayed_at)
    replayed = plan.replay(inputs)
    with inference_mode():
        eager = np.asarray(model.plan_forward(**inputs))
    diff = float(np.max(np.abs(
        replayed.astype(np.float64) - eager.astype(np.float64)
    )))
    result["max_abs_diff"] = diff
    if replayed.dtype != eager.dtype or not np.array_equal(
        replayed, eager, equal_nan=True
    ):
        result.update(verified=False, reason=(
            f"plan compiled at step {compiled_at} diverges from the eager "
            f"forward at step {replayed_at} (max |diff| {diff:.3e})"
        ))
        return result
    result["verified"] = True
    return result

"""Deterministic fault injection for the serving seams.

A :class:`FaultPlan` is a declarative description of what should go
wrong — latency spikes, thrown exceptions, corrupted model output,
skewed observation clocks, dropped sensors — and a seed that makes the
fault stream reproducible. :class:`FaultInjector` turns the plan into
per-event decisions; :class:`ChaosModel` and :class:`ChaosStore` wrap
the two seams the serving stack trusts most (the model forward and the
state store's observation path) without either class knowing it is
being tested.

This module deliberately imports nothing from :mod:`repro.serve`: the
wrappers are duck-typed, so reliability stays below serving in the
layering (serving imports chaos for its soak harness, never the other
way around).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..datasets.missing import MissingPattern
from ..errors import ConfigError, InjectedFault

__all__ = ["FaultPlan", "FaultInjector", "ChaosModel", "ChaosStore"]


@dataclass(frozen=True)
class FaultPlan:
    """What to break, how often, from which seed.

    Rates are per-event probabilities: ``latency_rate``, ``error_rate``
    and ``corrupt_rate`` apply per model forward. ``dropped_sensors``
    lose every reading; ``clock_skew_steps`` shifts observation
    timestamps (positive = readings claim to be from the future).

    ``dropped_sensors`` accepts either a plain tuple of sensor ids or a
    named :class:`~repro.datasets.MissingPattern` scenario (the object or
    its ``to_json_dict`` form) — the same vocabulary offline evaluation
    and the gauntlet bench use, so a chaos run is reproducible by
    scenario name + seed. Pattern-valued drops resolve to concrete
    sensor ids against the store's node count via
    :meth:`FaultInjector.resolve_dropped`.
    """

    seed: int = 0
    latency_rate: float = 0.0
    latency_s: float = 0.05
    error_rate: float = 0.0
    corrupt_rate: float = 0.0
    clock_skew_steps: int = 0
    dropped_sensors: tuple[int, ...] | MissingPattern = ()

    def __post_init__(self):
        for name in ("latency_rate", "error_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.latency_s < 0:
            raise ConfigError(f"latency_s must be >= 0, got {self.latency_s}")
        dropped = self.dropped_sensors
        if isinstance(dropped, MissingPattern):
            pass  # already the shared vocabulary
        elif isinstance(dropped, dict):
            dropped = MissingPattern.from_json_dict(dropped)
        else:
            dropped = tuple(int(n) for n in dropped)
        object.__setattr__(self, "dropped_sensors", dropped)

    @property
    def drop_pattern(self) -> MissingPattern | None:
        """The sensor-drop scenario, when one is configured."""
        dropped = self.dropped_sensors
        return dropped if isinstance(dropped, MissingPattern) else None

    @property
    def scenario(self) -> dict | None:
        """Scenario JSON of the sensor-drop pattern (None for plain ids)."""
        pattern = self.drop_pattern
        return pattern.to_json_dict() if pattern is not None else None

    @property
    def active(self) -> bool:
        return bool(
            self.latency_rate
            or self.error_rate
            or self.corrupt_rate
            or self.clock_skew_steps
            or self.dropped_sensors
        )

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Seeded per-event fault decisions plus injection counters."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        # Plain-id plans resolve immediately; pattern plans wait for the
        # node count (resolve_dropped, called by ChaosStore on wrap).
        self._dropped: frozenset[int] | None = (
            None
            if plan.drop_pattern is not None
            else frozenset(plan.dropped_sensors)
        )
        self.counts = {
            "latency": 0,
            "errors": 0,
            "corruptions": 0,
            "dropped_observations": 0,
            "skewed_observations": 0,
        }

    def resolve_dropped(
        self,
        num_nodes: int,
        adjacency: np.ndarray | None = None,
    ) -> tuple[int, ...]:
        """Concrete dropped sensor ids for a network of ``num_nodes``.

        For pattern-valued plans this runs the scenario's own
        :meth:`~repro.datasets.MissingPattern.dropped_nodes` — the exact
        node-selection code offline masks use — and caches the result.
        Ids outside ``[0, num_nodes)`` are filtered.
        """
        with self._lock:
            if self._dropped is None:
                pattern = self.plan.drop_pattern
                self._dropped = frozenset(
                    pattern.dropped_nodes(num_nodes, adjacency=adjacency)
                )
            return tuple(
                sorted(n for n in self._dropped if 0 <= n < int(num_nodes))
            )

    def _count(self, key: str) -> None:
        self.counts[key] += 1  # caller holds the lock

    def forward_decision(self) -> tuple[float, bool, bool]:
        """(extra latency seconds, raise?, corrupt?) for one model forward."""
        with self._lock:
            latency = (
                self.plan.latency_s
                if self._rng.random() < self.plan.latency_rate
                else 0.0
            )
            error = self._rng.random() < self.plan.error_rate
            corrupt = self._rng.random() < self.plan.corrupt_rate
            if latency:
                self._count("latency")
            if error:
                self._count("errors")
            if corrupt:
                self._count("corruptions")
        return latency, error, corrupt

    def observation_dropped(self, node: int) -> bool:
        # Unresolved pattern plans drop nothing yet: the node count is
        # unknown until a store is wrapped (ChaosStore resolves eagerly).
        if self._dropped is not None and node in self._dropped:
            with self._lock:
                self._count("dropped_observations")
            return True
        return False

    def skew(self, step: int) -> int:
        if self.plan.clock_skew_steps:
            with self._lock:
                self._count("skewed_observations")
            return step + self.plan.clock_skew_steps
        return step

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)


class ChaosModel:
    """A forecaster whose forwards misbehave according to a plan.

    Wraps any model the engine accepts; attribute access (shapes,
    parameters) passes through, only ``__call__`` injects
    latency, :class:`~repro.errors.InjectedFault` throws, and NaN
    poisoning of the prediction (which the engine's output validation
    must catch and degrade on).
    """

    def __init__(self, model, injector: FaultInjector, sleep=time.sleep):
        self._model = model
        self._injector = injector
        self._sleep = sleep

    def __getattr__(self, name):
        return getattr(self._model, name)

    def plan_inputs(self, x, m, steps_of_day):
        # A compiled plan would replay the bare forward and route around
        # the ``__call__`` injection seam below, so chaos-wrapped models
        # never plan: the engine stays on the eager path where faults
        # actually fire.
        return None

    def __call__(self, *args, **kwargs):
        latency, error, corrupt = self._injector.forward_decision()
        if latency:
            self._sleep(latency)
        if error:
            raise InjectedFault("chaos: injected model failure")
        out = self._model(*args, **kwargs)
        if corrupt:
            data = out.prediction.data
            data = data.copy()
            data.flat[0] = np.nan
            out.prediction.data = data
        return out


class ChaosStore:
    """A state store whose feed loses, delays and skews readings."""

    def __init__(self, store, injector: FaultInjector, adjacency=None):
        self._store = store
        self._injector = injector
        # Resolve pattern-valued drops against this store's network now,
        # so per-sensor drops fire from the first observation.
        self._dropped = injector.resolve_dropped(store.num_nodes, adjacency)

    def __getattr__(self, name):
        return getattr(self._store, name)

    def observe(self, step, values, mask=None):
        step = self._injector.skew(int(step))
        dropped = list(self._dropped)
        if dropped:
            values = np.array(values, copy=True)
            if mask is None:
                mask = np.ones_like(values)
            else:
                mask = np.array(mask, copy=True)
            mask[dropped] = 0.0
            for node in dropped:
                self._injector.observation_dropped(node)
        return self._store.observe(step, values, mask)

    def observe_sensor(self, step, node, features):
        if self._injector.observation_dropped(int(node)):
            # The reading vanishes in flight; the producer sees success.
            return True
        return self._store.observe_sensor(self._injector.skew(int(step)), node, features)

"""Per-sensor streaming state for online forecasting.

Offline experiments slice complete arrays into windows; a live deployment
instead receives sensor readings one at a time, *with gaps*. The
:class:`StateStore` is the bridge: a ring buffer over the last
``input_length`` time slots of the whole network that

* accepts full-network or per-sensor observations keyed by an absolute
  integer time step (e.g. the 5-minute slot index since the feed epoch);
* tolerates out-of-order arrivals within the retained window and rejects
  (and counts) anything older;
* marks never-observed entries missing exactly like the offline pipeline
  (:mod:`repro.datasets.missing` semantics: value 0, mask 0), so a model
  trained on corrupted windows sees the same input distribution online.

Values are stored in **original units**; scaling is the engine's job
(the fitted scaler travels with the model bundle).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..autodiff import default_dtype
from ..errors import StateError
from ..telemetry import MetricRegistry, get_registry

__all__ = ["StateStore", "StateWindow"]


@dataclass(frozen=True)
class StateWindow:
    """An immutable snapshot of the store, model-ready.

    ``x`` is zero-filled at missing entries, ``m`` is the observation
    mask and ``steps_of_day`` the time-of-day index per slot.
    ``version`` identifies the store state the snapshot was taken at — it
    keys the engine's forecast cache.
    """

    x: np.ndarray  # (L, N, D) observed history, zeros where missing
    m: np.ndarray  # (L, N, D) observation mask
    steps_of_day: np.ndarray  # (L,)
    newest_step: int  # absolute step of the last (most recent) slot
    version: int

    @property
    def input_length(self) -> int:
        return self.x.shape[0]


class StateStore:
    """Ring buffer of the last ``input_length`` network observations.

    Parameters
    ----------
    num_nodes, num_features:
        Network dimensions, matching the trained model.
    input_length:
        Window length ``L`` the model consumes (the paper's 12 steps).
    steps_per_day:
        Calendar resolution (drives the temporal-graph interval weights).
    start_step:
        Absolute step the feed starts at; slots before the first
        observation are missing (cold start).
    registry:
        Metric registry the ``serve/observe_duplicates`` counter lands
        in (default: the process-wide registry).
    """

    def __init__(
        self,
        num_nodes: int,
        num_features: int,
        input_length: int,
        steps_per_day: int = 288,
        start_step: int = 0,
        registry: MetricRegistry | None = None,
    ):
        if input_length < 1:
            raise StateError(f"input_length must be >= 1, got {input_length}")
        if steps_per_day < 1:
            raise StateError(f"steps_per_day must be >= 1, got {steps_per_day}")
        self.num_nodes = num_nodes
        self.num_features = num_features
        self.input_length = input_length
        self.steps_per_day = steps_per_day
        # Ring storage: slot for absolute step t lives at row t % L.
        self._values = np.zeros((input_length, num_nodes, num_features),
                                dtype=default_dtype())
        self._mask = np.zeros((input_length, num_nodes, num_features),
                              dtype=default_dtype())
        # Newest absolute step currently represented in the ring. Slots
        # (newest-L, newest] are live; anything older has been evicted.
        self._newest = start_step - 1
        self._start_step = start_step
        self._version = 0
        self._observations = 0
        self._stale_dropped = 0
        self._cold_resets = 0
        self._duplicates = 0
        self._registry = registry if registry is not None else get_registry()
        # Per-sensor recency for the quality monitors: the absolute step
        # of each sensor's newest accepted reading (None until first).
        self._last_seen = np.full(num_nodes, start_step - 1, dtype=np.int64)
        self._seen_ever = np.zeros(num_nodes, dtype=bool)
        # Observation feed and forecast dispatcher run on different
        # threads; the lock keeps snapshots consistent with updates.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter, bumped once per accepted observation."""
        return self._version

    @property
    def newest_step(self) -> int:
        """Absolute step of the most recent ring slot (-1 offset start)."""
        return self._newest

    @property
    def observations(self) -> int:
        """Accepted observation count (full-network and per-sensor alike)."""
        return self._observations

    @property
    def stale_dropped(self) -> int:
        """Observations rejected for falling behind the retained window."""
        return self._stale_dropped

    @property
    def cold_resets(self) -> int:
        """Times a feed gap wiped the whole ring (restart-sized outage)."""
        return self._cold_resets

    @property
    def duplicates(self) -> int:
        """Exact (step, entries, values) re-deliveries absorbed idempotently."""
        return self._duplicates

    @property
    def warm(self) -> bool:
        """True once every slot of the window has been advanced past.

        A cold store still serves forecasts — the leading slots are
        simply masked missing, which the missing-value models handle by
        design — but callers may prefer to gate traffic on warm-up.
        """
        return self._newest - self._start_step + 1 >= self.input_length

    # ------------------------------------------------------------------
    def _advance_to(self, step: int) -> None:
        """Roll the ring forward so ``step`` is the newest slot.

        Every slot entering the window starts fully missing — a silent
        sensor is a gap, exactly like the offline corruption masks.
        """
        gap = step - self._newest
        if gap >= self.input_length:
            if self._observations > 0:
                self._cold_resets += 1
            self._values[:] = 0.0
            self._mask[:] = 0.0
        else:
            for s in range(self._newest + 1, step + 1):
                row = s % self.input_length
                self._values[row] = 0.0
                self._mask[row] = 0.0
        self._newest = step

    def observe(
        self,
        step: int,
        values: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> bool:
        """Ingest a full-network reading for absolute ``step``.

        ``values`` is ``(N, D)``; ``mask`` (same shape, default all-ones)
        marks which entries are real observations — unmasked entries are
        left untouched, so partial readings merge with earlier arrivals
        for the same step. Returns ``False`` (and counts the drop) when
        ``step`` has already left the retained window.

        Re-delivery of an observation whose entries are all already
        recorded *with identical values* is idempotent: it is accepted
        (``True``) but bumps neither the version nor the observation
        count, and lands in the ``serve/observe_duplicates`` counter —
        so at-least-once producers cannot thrash the forecast cache.
        """
        values = np.asarray(values, dtype=default_dtype())
        if values.shape != (self.num_nodes, self.num_features):
            raise StateError(
                f"values must be {(self.num_nodes, self.num_features)}, "
                f"got {values.shape}"
            )
        if mask is None:
            mask = np.ones_like(values)
        else:
            mask = np.asarray(mask, dtype=default_dtype())
            if mask.shape != values.shape:
                raise StateError(
                    f"mask shape {mask.shape} != values shape {values.shape}"
                )
        with self._lock:
            if step <= self._newest - self.input_length:
                self._stale_dropped += 1
                return False
            row = step % self.input_length
            observed = mask > 0
            if (
                step <= self._newest
                and observed.any()
                and not (observed & (self._mask[row] == 0)).any()
                and np.array_equal(self._values[row][observed], values[observed])
            ):
                self._duplicates += 1
                self._registry.counter("serve/observe_duplicates").inc()
                return True
            if step > self._newest:
                self._advance_to(step)
            self._values[row][observed] = values[observed]
            self._mask[row][observed] = 1.0
            nodes_observed = observed.any(axis=1)
            self._last_seen[nodes_observed] = np.maximum(
                self._last_seen[nodes_observed], step
            )
            self._seen_ever |= nodes_observed
            self._version += 1
            self._observations += 1
            return True

    def observe_sensor(
        self, step: int, node: int, features: np.ndarray | float
    ) -> bool:
        """Ingest one sensor's reading (the streaming per-sensor path)."""
        if not 0 <= node < self.num_nodes:
            raise StateError(f"node {node} out of range 0..{self.num_nodes - 1}")
        values = np.zeros((self.num_nodes, self.num_features),
                          dtype=default_dtype())
        mask = np.zeros_like(values)
        features = np.asarray(features, dtype=default_dtype()).reshape(-1)
        if features.shape != (self.num_features,):
            raise StateError(
                f"expected {self.num_features} features, got {features.shape[0]}"
            )
        values[node] = features
        mask[node] = 1.0
        return self.observe(step, values, mask)

    # ------------------------------------------------------------------
    def window(self) -> StateWindow:
        """Snapshot the ring as a chronologically ordered model window."""
        with self._lock:
            newest = self._newest
            steps = np.arange(newest - self.input_length + 1, newest + 1)
            rows = steps % self.input_length
            x = self._values[rows].copy()
            m = self._mask[rows].copy()
            version = self._version
        return StateWindow(
            x=x,
            m=m,
            steps_of_day=steps % self.steps_per_day,
            newest_step=int(newest),
            version=version,
        )

    def sensor_lag(self) -> np.ndarray:
        """Steps since each sensor's last accepted reading ``(N,)``.

        Never-observed sensors report the time since the feed started,
        so a cold sensor and a freshly dead one rank the same way.
        """
        with self._lock:
            lag = self._newest - self._last_seen
            lag = np.where(self._seen_ever, lag, self._newest - self._start_step + 1)
        return np.maximum(lag, 0).astype(np.int64)

    def sensor_summary(self) -> dict:
        """JSON-ready per-sensor recency plus the drop/reset counters."""
        lag = self.sensor_lag()
        with self._lock:
            summary = {
                "last_seen_step": [
                    int(s) if ever else None
                    for s, ever in zip(self._last_seen, self._seen_ever)
                ],
                "stale_dropped": self._stale_dropped,
                "cold_resets": self._cold_resets,
                "observations": self._observations,
                "duplicates": self._duplicates,
            }
        summary["lag_steps"] = [int(v) for v in lag]
        return summary

    # ------------------------------------------------------------------
    #: snapshot payload format; bump when the schema changes.
    SNAPSHOT_FORMAT = 1

    def snapshot(self) -> dict:
        """JSON-ready dump of the full ring state (failover primitive).

        The payload is versioned and dtype-policy aware: values are
        serialized as plain lists along with the dtype they were held
        in, and :meth:`restore` casts them into the receiving process's
        policy dtype — a float64 snapshot restores cleanly into a
        float32 store (with the usual precision loss) and vice versa.
        Rows are ordered oldest → newest.
        """
        with self._lock:
            steps = np.arange(self._newest - self.input_length + 1, self._newest + 1)
            rows = steps % self.input_length
            return {
                "format_version": self.SNAPSHOT_FORMAT,
                "dtype": str(np.dtype(default_dtype())),
                "num_nodes": self.num_nodes,
                "num_features": self.num_features,
                "input_length": self.input_length,
                "steps_per_day": self.steps_per_day,
                "start_step": int(self._start_step),
                "newest_step": int(self._newest),
                "version": int(self._version),
                "counters": {
                    "observations": self._observations,
                    "stale_dropped": self._stale_dropped,
                    "cold_resets": self._cold_resets,
                    "duplicates": self._duplicates,
                },
                "values": self._values[rows].tolist(),
                "mask": self._mask[rows].tolist(),
                "last_seen": [int(s) for s in self._last_seen],
                "seen_ever": [bool(b) for b in self._seen_ever],
            }

    def restore(self, payload: dict) -> None:
        """Load a :meth:`snapshot` payload, replacing the ring in place.

        Dimensions must match the store exactly; the payload dtype may
        differ from the active policy (values are cast). The store
        version after a restore is strictly greater than both its own
        previous version and the snapshot's, so every forecast-cache
        entry keyed on older state is invalidated. Out-of-order
        observations for steps still inside the restored window merge
        normally afterwards.
        """
        fmt = payload.get("format_version")
        if fmt != self.SNAPSHOT_FORMAT:
            raise StateError(
                f"unsupported snapshot format {fmt!r} (expected {self.SNAPSHOT_FORMAT})"
            )
        for field in ("num_nodes", "num_features", "input_length", "steps_per_day"):
            if int(payload[field]) != getattr(self, field):
                raise StateError(
                    f"snapshot {field}={payload[field]} does not match "
                    f"store {field}={getattr(self, field)}"
                )
        values = np.asarray(payload["values"], dtype=default_dtype())
        mask = np.asarray(payload["mask"], dtype=default_dtype())
        shape = (self.input_length, self.num_nodes, self.num_features)
        if values.shape != shape or mask.shape != shape:
            raise StateError(
                f"snapshot arrays must be {shape}, got {values.shape}/{mask.shape}"
            )
        newest = int(payload["newest_step"])
        with self._lock:
            steps = np.arange(newest - self.input_length + 1, newest + 1)
            rows = steps % self.input_length
            self._values[rows] = values
            self._mask[rows] = mask
            self._newest = newest
            self._start_step = int(payload["start_step"])
            counters = payload.get("counters", {})
            self._observations = int(counters.get("observations", 0))
            self._stale_dropped = int(counters.get("stale_dropped", 0))
            self._cold_resets = int(counters.get("cold_resets", 0))
            self._duplicates = int(counters.get("duplicates", 0))
            self._last_seen = np.asarray(payload["last_seen"], dtype=np.int64)
            self._seen_ever = np.asarray(payload["seen_ever"], dtype=bool)
            self._version = max(self._version, int(payload["version"])) + 1

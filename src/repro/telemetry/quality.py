"""Data-quality monitoring for live sensor feeds.

The paper's operating regime is a feed whose *missing-value structure
changes over time* — sensors fail, roam (Stampede), or fall behind. A
model trained at one missing rate degrades quietly as the live rate
drifts away from it, so the serving stack tracks, per sensor:

* **missing-rate EWMA** — exponentially weighted share of unobserved
  entries across the model window, updated on every inspection;
* **staleness** — steps since the sensor last reported anything
  (window-relative, so a sensor silent for a whole window saturates at
  the window length);
* **feature drift** — z-score of the sensor's observed mean against the
  *training* scaler statistics that travel with the model bundle; a
  sensor whose live distribution has walked away from what the model
  was fit on is suspect even when it reports reliably.

The monitor is pull-based: :meth:`QualityMonitor.update` consumes a
:class:`~repro.serve.state.StateWindow` snapshot (and optionally the
store's drop counters), refreshes the gauges in a metric registry, and
returns a :class:`QualityReport`. ``/healthz`` and ``/metrics`` update
on demand, so a feed with zero traffic costs zero monitoring work.

Per-sensor series use the ``name{node="i"}`` label convention the
Prometheus renderer understands (see :mod:`repro.telemetry.prometheus`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prometheus import label_block
from .registry import MetricRegistry, get_registry

__all__ = ["QualityThresholds", "QualityReport", "QualityMonitor"]


@dataclass(frozen=True)
class QualityThresholds:
    """Degradation trip levels; cross any one and the verdict flips.

    ``missing_rate``: EWMA missing share above which a sensor counts as
    degraded (1.0 disables). ``staleness_steps``: window-relative silent
    steps (``None`` → the full window length, i.e. totally silent).
    ``drift_z``: absolute z-score of observed means vs training stats.
    ``min_updates``: verdicts stay healthy until this many updates have
    seeded the EWMA, avoiding cold-start false alarms.
    """

    missing_rate: float = 0.9
    staleness_steps: int | None = None
    drift_z: float = 6.0
    min_updates: int = 2


@dataclass
class QualityReport:
    """One inspection's per-sensor signals plus the network verdict."""

    degraded: bool
    reasons: list[str] = field(default_factory=list)
    missing_rate_ewma: list[float] = field(default_factory=list)
    window_missing_rate: list[float] = field(default_factory=list)
    staleness_steps: list[int] = field(default_factory=list)
    drift_z: list[float] = field(default_factory=list)
    updates: int = 0
    stale_dropped: int = 0
    cold_resets: int = 0

    def to_json_dict(self) -> dict:
        return {
            "degraded": self.degraded,
            "reasons": list(self.reasons),
            "missing_rate_ewma": [float(v) for v in self.missing_rate_ewma],
            "window_missing_rate": [float(v) for v in self.window_missing_rate],
            "staleness_steps": [int(v) for v in self.staleness_steps],
            "drift_z": [float(v) for v in self.drift_z],
            "updates": self.updates,
            "stale_dropped": self.stale_dropped,
            "cold_resets": self.cold_resets,
        }


class QualityMonitor:
    """Tracks per-sensor feed health against training-time expectations.

    Parameters
    ----------
    num_nodes:
        Sensor count ``N``.
    train_mean, train_std:
        The bundle scaler's fitted statistics, broadcastable against a
        ``(N, D)`` per-sensor feature block — ``(D,)`` for pooled
        scaling, ``(N, D)`` for per-node. ``None`` disables drift.
    alpha:
        EWMA weight of the newest window (0..1]; higher reacts faster.
    thresholds:
        Trip levels for :meth:`verdict`.
    registry:
        Metric registry the gauges land in (default: process registry).
    labels:
        Extra Prometheus labels stamped on every published series (the
        fleet passes ``{"tenant": name}``); values are escaped. Empty
        keeps the original unlabelled/``node``-only series names.
    """

    def __init__(
        self,
        num_nodes: int,
        train_mean: np.ndarray | None = None,
        train_std: np.ndarray | None = None,
        alpha: float = 0.3,
        thresholds: QualityThresholds | None = None,
        registry: MetricRegistry | None = None,
        labels: dict[str, str] | None = None,
    ):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.num_nodes = num_nodes
        self.alpha = alpha
        self.thresholds = thresholds or QualityThresholds()
        self.registry = registry if registry is not None else get_registry()
        self.labels = dict(labels) if labels else {}
        self.train_mean = None if train_mean is None else np.asarray(train_mean, dtype=np.float64)
        self.train_std = None if train_std is None else np.asarray(train_std, dtype=np.float64)
        self._ewma = np.zeros(num_nodes)
        self._updates = 0
        self._last: QualityReport | None = None

    # ------------------------------------------------------------------
    def update(self, window, store=None) -> QualityReport:
        """Inspect one state snapshot; refresh gauges, return the report.

        ``window`` is any object with ``(L, N, D)`` arrays ``x`` and
        ``m`` (a :class:`~repro.serve.state.StateWindow`); ``store``
        optionally contributes its ``stale_dropped`` / ``cold_resets`` /
        ``observations`` counters.
        """
        m = np.asarray(window.m, dtype=np.float64)
        x = np.asarray(window.x, dtype=np.float64)
        if m.ndim != 3 or m.shape[1] != self.num_nodes:
            raise ValueError(
                f"window mask must be (L, {self.num_nodes}, D), got {m.shape}"
            )
        length = m.shape[0]

        # Per-sensor missing share over the window, all features pooled.
        observed_share = m.mean(axis=(0, 2))  # (N,)
        window_missing = 1.0 - observed_share
        if self._updates == 0:
            self._ewma = window_missing.copy()
        else:
            self._ewma = (1.0 - self.alpha) * self._ewma + self.alpha * window_missing
        self._updates += 1

        # Staleness: slots since the sensor last reported any feature.
        any_obs = m.any(axis=2)  # (L, N)
        has_any = any_obs.any(axis=0)
        # Index of the newest observed slot per sensor (L-1 = freshest).
        newest_idx = length - 1 - np.argmax(any_obs[::-1], axis=0)
        staleness = np.where(has_any, length - 1 - newest_idx, length).astype(int)

        # Drift: observed-mean z-score vs the training distribution.
        drift = np.zeros(self.num_nodes)
        if self.train_mean is not None and self.train_std is not None:
            counts = m.sum(axis=0)  # (N, D)
            sums = (x * m).sum(axis=0)  # (N, D)
            with np.errstate(invalid="ignore", divide="ignore"):
                means = np.where(counts > 0, sums / np.maximum(counts, 1.0), np.nan)
                z = np.abs(means - self.train_mean) / np.where(
                    self.train_std > 0, self.train_std, 1.0
                )
            z = np.where(np.isfinite(z), z, 0.0)
            drift = z.max(axis=-1)  # worst feature per sensor

        report = QualityReport(
            degraded=False,
            missing_rate_ewma=list(self._ewma),
            window_missing_rate=list(window_missing),
            staleness_steps=list(staleness),
            drift_z=list(drift),
            updates=self._updates,
            stale_dropped=int(getattr(store, "stale_dropped", 0)),
            cold_resets=int(getattr(store, "cold_resets", 0)),
        )
        report.degraded, report.reasons = self._judge(report, length)
        self._publish(report)
        self._last = report
        return report

    # ------------------------------------------------------------------
    def _judge(self, report: QualityReport, length: int) -> tuple[bool, list[str]]:
        reasons: list[str] = []
        if report.updates < self.thresholds.min_updates:
            return False, reasons
        stale_limit = (
            self.thresholds.staleness_steps
            if self.thresholds.staleness_steps is not None
            else length
        )
        for node in range(self.num_nodes):
            ewma = report.missing_rate_ewma[node]
            if ewma > self.thresholds.missing_rate:
                reasons.append(
                    f"node {node}: missing-rate EWMA {ewma:.2f} > "
                    f"{self.thresholds.missing_rate:.2f}"
                )
            if report.staleness_steps[node] >= stale_limit:
                reasons.append(
                    f"node {node}: silent for {report.staleness_steps[node]} steps "
                    f"(limit {stale_limit})"
                )
            if report.drift_z[node] > self.thresholds.drift_z:
                reasons.append(
                    f"node {node}: drift z {report.drift_z[node]:.1f} > "
                    f"{self.thresholds.drift_z:.1f} vs training stats"
                )
        return bool(reasons), reasons

    def _name(self, base: str, **extra: str) -> str:
        return base + label_block({**self.labels, **extra})

    def _publish(self, report: QualityReport) -> None:
        reg = self.registry
        for node in range(self.num_nodes):
            label = self._name("quality/missing_rate", node=str(node))
            reg.gauge(label).set(report.missing_rate_ewma[node])
            reg.gauge(self._name("quality/staleness_steps", node=str(node))).set(
                report.staleness_steps[node]
            )
            reg.gauge(self._name("quality/drift_z", node=str(node))).set(
                report.drift_z[node]
            )
        reg.gauge(self._name("quality/missing_rate_mean")).set(
            float(np.mean(report.missing_rate_ewma))
        )
        reg.gauge(self._name("quality/staleness_steps_max")).set(
            float(np.max(report.staleness_steps))
        )
        reg.gauge(self._name("quality/drift_z_max")).set(float(np.max(report.drift_z)))
        reg.gauge(self._name("quality/degraded")).set(1.0 if report.degraded else 0.0)
        reg.gauge(self._name("quality/stale_dropped")).set(report.stale_dropped)
        reg.gauge(self._name("quality/cold_resets")).set(report.cold_resets)

    # ------------------------------------------------------------------
    def verdict(self) -> dict:
        """JSON-ready summary of the latest report (healthy before any)."""
        if self._last is None:
            return {"degraded": False, "reasons": [], "updates": 0}
        return self._last.to_json_dict()

"""Multi-tenant engine pool with shadow and canary rollouts.

The single-model serving stack (one :class:`~repro.serve.engine.
ForecastEngine` over one :class:`~repro.serve.state.StateStore`) grows
into a **fleet**: an :class:`EnginePool` holds one isolated runtime per
tenant — store, engine, quality monitor, token-bucket quota — keyed in
a registry by ``(tenant, bundle-id, version)``, and two rollout
mechanisms move a tenant from one bundle to the next without a restart:

* **shadow** — a candidate bundle receives a mirrored fraction of live
  forecast traffic *off the request path* (a background worker replays
  the request against the candidate and records the absolute divergence
  between the two answers in a per-tenant histogram). Live latency is
  unaffected: the live answer is returned before the mirror is even
  enqueued, and a full mirror queue drops the sample rather than block.
* **canary** — a candidate bundle takes a staged fraction of live
  traffic (1% → 10% → 50% → 100% by default). Each stage must serve
  ``stage_requests`` clean answers to advance; surviving the last stage
  promotes the candidate to primary (bumping the tenant's version).
  Rollback is automatic when the candidate's circuit breaker opens,
  its :class:`~repro.telemetry.QualityMonitor` verdict degrades, or its
  failure ratio crosses the configured ceiling — live traffic is never
  failed by a sick candidate: the stable engine answers instead.

Quotas reuse the :class:`~repro.reliability.retry.RetryBudget` token-
bucket mechanics: ``quota_rps`` refills, ``quota_burst`` caps, and an
empty bucket raises :class:`~repro.errors.QuotaExceeded`, which the
HTTP layer maps to ``429`` with ``Retry-After``.

Candidate runtimes share the primary tenant's store when the bundle
shapes agree (same nodes/features/window), so live and candidate
answer from byte-identical state; a shape-changing candidate gets its
own store fed by mirrored observations.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, QuotaExceeded, ServeError
from ..reliability.retry import RetryBudget
from ..telemetry import (
    BurnRule,
    MetricRegistry,
    Objective,
    QualityMonitor,
    SLOTracker,
    Tracer,
    get_registry,
    get_tracer,
    label_block,
)
from .artifact import ModelBundle, load_bundle
from .config import (
    CanaryConfig,
    FleetConfig,
    ServeConfig,
    ShadowConfig,
)
from .engine import Forecast, ForecastEngine
from .state import StateStore

__all__ = ["EnginePool", "TenantQuota", "build_pool"]

#: divergence histogram buckets (absolute units of the forecast target)
DIVERGENCE_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0)


class _NullMetric:
    """Sink for fleet metrics of legacy unlabeled tenants (no series)."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class TenantQuota:
    """A per-tenant request rate limit on token-bucket mechanics.

    Thin wrapper over :class:`~repro.reliability.retry.RetryBudget`:
    ``rate_per_s`` tokens refill per second up to ``burst``; each
    forecast request spends one. An empty bucket means the tenant is
    over quota.
    """

    def __init__(self, rate_per_s: float, burst: float, clock=None):
        kwargs = {} if clock is None else {"clock": clock}
        self._budget = RetryBudget(rate_per_s=rate_per_s, burst=burst, **kwargs)

    def try_acquire(self) -> bool:
        return self._budget.try_spend()

    @property
    def retry_after_s(self) -> float:
        """Seconds until one token refills — the 429 Retry-After hint."""
        return max(1.0 / self._budget.rate_per_s, 0.001)

    def snapshot(self) -> dict:
        return {
            "rate_per_s": self._budget.rate_per_s,
            "burst": self._budget.burst,
            "tokens": round(self._budget.tokens, 3),
            "granted": self._budget.spent,
            "rejected": self._budget.denied,
        }


@dataclass
class _CandidateRuntime:
    """A candidate bundle attached to a tenant (shadow or canary)."""

    bundle: ModelBundle
    store: StateStore
    engine: ForecastEngine
    shares_store: bool
    monitor: QualityMonitor | None = None


@dataclass
class _ShadowState:
    config: ShadowConfig
    runtime: _CandidateRuntime
    rng: np.random.Generator
    lock: threading.Lock = field(default_factory=threading.Lock)
    mirrored: int = 0
    dropped: int = 0
    errors: int = 0
    compared: int = 0
    divergence_sum: float = 0.0
    divergence_max: float = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            mean = self.divergence_sum / self.compared if self.compared else 0.0
            return {
                "bundle": self.config.bundle,
                "mirror_fraction": self.config.mirror_fraction,
                "mirrored": self.mirrored,
                "dropped": self.dropped,
                "errors": self.errors,
                "compared": self.compared,
                "divergence_mean_abs": mean,
                "divergence_max_abs": self.divergence_max,
            }


#: canary lifecycle states
CANARY_RUNNING = "running"
CANARY_PROMOTED = "promoted"
CANARY_ROLLED_BACK = "rolled_back"


@dataclass
class _CanaryState:
    config: CanaryConfig
    runtime: _CandidateRuntime
    rng: np.random.Generator
    lock: threading.Lock = field(default_factory=threading.Lock)
    state: str = CANARY_RUNNING
    stage_index: int = 0
    stage_successes: int = 0
    stage_failures: int = 0
    total_successes: int = 0
    total_failures: int = 0
    reason: str | None = None
    slo: SLOTracker | None = None

    @property
    def weight(self) -> float:
        if self.state == CANARY_PROMOTED:
            return 1.0
        if self.state == CANARY_ROLLED_BACK:
            return 0.0
        return self.config.stages[self.stage_index]

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "bundle": self.config.bundle,
                "state": self.state,
                "stage_index": self.stage_index,
                "stages": list(self.config.stages),
                "weight": self.weight,
                "stage_successes": self.stage_successes,
                "stage_failures": self.stage_failures,
                "total_successes": self.total_successes,
                "total_failures": self.total_failures,
                "reason": self.reason,
                "slo": self.slo.snapshot() if self.slo is not None else None,
            }


@dataclass
class _TenantRuntime:
    """Everything one tenant owns inside the pool."""

    name: str
    bundle: ModelBundle
    bundle_ref: str
    config: ServeConfig
    store: StateStore
    engine: ForecastEngine
    monitor: QualityMonitor
    quota: TenantQuota | None
    labels: dict[str, str]
    version: int = 1
    shadow: _ShadowState | None = None
    canary: _CanaryState | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def bundle_id(self) -> str:
        return self.bundle.model_name

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.name, self.bundle_id, self.version)


class EnginePool:
    """A registry of per-tenant forecast engines with rollout mechanics.

    Each tenant added via :meth:`add_tenant` gets an isolated
    :class:`StateStore`, :class:`ForecastEngine` and
    :class:`QualityMonitor`; engines are registered under
    ``(tenant, bundle-id, version)``. :meth:`observe` and
    :meth:`forecast` are the tenant-routed equivalents of the single-
    engine calls, adding quota enforcement, canary routing and shadow
    mirroring. The pool is a context manager: entering starts every
    engine's micro-batch dispatcher plus the shadow worker.
    """

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._tenants: dict[str, _TenantRuntime] = {}
        self._engines: dict[tuple[str, str, int], ForecastEngine] = {}
        self._lock = threading.Lock()
        self._shadow_queue: "queue.Queue[tuple[str, int, Forecast] | None]" = (
            queue.Queue(maxsize=64)
        )
        self._shadow_worker: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Metric helpers (always tenant-labelled; values escaped)
    # ------------------------------------------------------------------
    def _fleet_labels(self, tenant: str) -> dict | None:
        """``{"tenant": name}`` — or ``None`` for a legacy unlabeled tenant.

        Single-tenant compat pools register their one tenant with empty
        labels; their scrape output must stay byte-identical to the
        pre-fleet stack, so no ``fleet/*`` series are emitted for them.
        """
        runtime = self._tenants.get(tenant)
        if runtime is not None and not runtime.labels:
            return None
        return {"tenant": tenant}

    def _counter(self, base: str, tenant: str):
        labels = self._fleet_labels(tenant)
        if labels is None:
            return _NULL_METRIC
        return self.registry.counter(base + label_block(labels))

    def _gauge(self, base: str, tenant: str):
        labels = self._fleet_labels(tenant)
        if labels is None:
            return _NULL_METRIC
        return self.registry.gauge(base + label_block(labels))

    def _divergence_histogram(self, tenant: str):
        labels = self._fleet_labels(tenant)
        if labels is None:
            return _NULL_METRIC
        return self.registry.histogram(
            "fleet/shadow_divergence" + label_block(labels),
            buckets=DIVERGENCE_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def add_tenant(
        self,
        name: str,
        bundle: ModelBundle,
        config: ServeConfig | None = None,
        quota_rps: float = 0.0,
        quota_burst: float = 10.0,
        bundle_ref: str = "<in-memory>",
        labels: dict[str, str] | None = None,
        engine_name: str | None = None,
        store: StateStore | None = None,
        engine: ForecastEngine | None = None,
        monitor: QualityMonitor | None = None,
        quota_clock=None,
    ) -> "_TenantRuntime":
        """Register a tenant and build (or adopt) its runtime.

        ``labels`` defaults to ``{"tenant": name}``; pass ``{}`` to keep
        the unlabelled single-engine metric names (the legacy
        ``ServeApp`` compatibility path). ``store``/``engine``/
        ``monitor`` allow adopting pre-built components; anything not
        supplied is created from the bundle and ``config``.
        """
        with self._lock:
            if name in self._tenants:
                raise ConfigError(f"tenant {name!r} already registered")
        config = config if config is not None else ServeConfig()
        labels = {"tenant": name} if labels is None else dict(labels)
        if engine_name is None:
            engine_name = f"model:{name}" if labels else "model"
        if store is None:
            store = bundle.make_store(registry=self.registry)
        if engine is None:
            engine = ForecastEngine(
                model=bundle.model,
                scaler=bundle.scaler,
                store=store,
                max_batch_size=config.max_batch_size,
                max_wait_s=config.max_wait_s,
                cache_size=config.cache_size,
                registry=self.registry,
                tracer=self.tracer,
                policy=config.resilience,
                labels=labels,
                name=engine_name,
                plan=config.plan_enabled,
                cache_token=bundle.fingerprint,
            )
        if monitor is None:
            monitor = QualityMonitor(
                num_nodes=bundle.num_nodes,
                train_mean=bundle.scaler.mean_,
                train_std=bundle.scaler.std_,
                thresholds=config.quality,
                registry=self.registry,
                labels=labels,
            )
        quota = (
            TenantQuota(quota_rps, quota_burst, clock=quota_clock)
            if quota_rps > 0
            else None
        )
        runtime = _TenantRuntime(
            name=name,
            bundle=bundle,
            bundle_ref=bundle_ref,
            config=config,
            store=store,
            engine=engine,
            monitor=monitor,
            quota=quota,
            labels=labels,
        )
        with self._lock:
            if name in self._tenants:
                raise ConfigError(f"tenant {name!r} already registered")
            self._tenants[name] = runtime
            self._engines[runtime.key] = engine
        return runtime

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def runtime(self, name: str) -> _TenantRuntime:
        try:
            return self._tenants[name]
        except KeyError:
            raise ConfigError(f"no tenant named {name!r} in the pool") from None

    def engines(self) -> dict[tuple[str, str, int], ForecastEngine]:
        """The live registry view: ``(tenant, bundle-id, version) → engine``."""
        with self._lock:
            return dict(self._engines)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EnginePool":
        for runtime in list(self._tenants.values()):
            runtime.engine.start()
        if self._shadow_worker is None or not self._shadow_worker.is_alive():
            self._shadow_worker = threading.Thread(
                target=self._shadow_loop, name="fleet-shadow", daemon=True
            )
            self._shadow_worker.start()
        return self

    def stop(self) -> None:
        if self._shadow_worker is not None and self._shadow_worker.is_alive():
            self._shadow_queue.put(None)
            self._shadow_worker.join()
        self._shadow_worker = None
        for runtime in list(self._tenants.values()):
            runtime.engine.stop()
            for candidate in (runtime.shadow, runtime.canary):
                if candidate is not None:
                    candidate.runtime.engine.stop()

    def __enter__(self) -> "EnginePool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Observation path
    # ------------------------------------------------------------------
    def observe(self, tenant: str, step: int, values, mask=None) -> bool:
        """Feed one full reading into the tenant's store (and mirrors)."""
        runtime = self.runtime(tenant)
        accepted = runtime.store.observe(step, values, mask)
        self._mirror_observe(runtime, "observe", step, values, mask)
        return accepted

    def observe_sensor(self, tenant: str, step: int, node: int, features) -> bool:
        """Feed one per-sensor reading into the tenant's store (and mirrors)."""
        runtime = self.runtime(tenant)
        accepted = runtime.store.observe_sensor(step, node, features)
        self._mirror_observe(runtime, "observe_sensor", step, node, features)
        return accepted

    def _mirror_observe(self, runtime: _TenantRuntime, method: str, *args) -> None:
        """Keep candidate stores warm when they cannot share the primary."""
        for candidate in (runtime.shadow, runtime.canary):
            if candidate is None or candidate.runtime.shares_store:
                continue
            try:
                getattr(candidate.runtime.store, method)(*args)
            except ServeError:
                pass  # a candidate with incompatible shapes skips the reading

    # ------------------------------------------------------------------
    # Forecast path
    # ------------------------------------------------------------------
    def forecast(
        self, tenant: str, horizon: int | None = None, timeout: float | None = 30.0
    ) -> Forecast:
        """Answer one tenant request: quota → canary routing → shadow mirror."""
        runtime = self.runtime(tenant)
        self._counter("fleet/requests", tenant).inc()
        if runtime.quota is not None and not runtime.quota.try_acquire():
            self._counter("fleet/quota_rejected", tenant).inc()
            raise QuotaExceeded(
                f"tenant {tenant!r} is over its request quota "
                f"({runtime.quota.snapshot()['rate_per_s']:g} req/s)"
            )

        canary = runtime.canary
        routed_to_candidate = False
        if canary is not None and canary.state == CANARY_RUNNING:
            with canary.lock:
                routed_to_candidate = (
                    canary.state == CANARY_RUNNING
                    and canary.rng.random() < canary.weight
                )

        if routed_to_candidate:
            result = self._forecast_candidate(runtime, canary, horizon, timeout)
        else:
            result = runtime.engine.forecast(horizon=horizon, timeout=timeout)
            if canary is not None and canary.state == CANARY_RUNNING:
                self._check_canary_health(runtime, canary)

        shadow = runtime.shadow
        if shadow is not None:
            with shadow.lock:
                mirror = shadow.rng.random() < shadow.config.mirror_fraction
            if mirror:
                self._enqueue_shadow(runtime, result)
        return result

    def _forecast_candidate(
        self,
        runtime: _TenantRuntime,
        canary: _CanaryState,
        horizon: int | None,
        timeout: float | None,
    ) -> Forecast:
        """Serve one canary-routed request; the stable engine backstops.

        A candidate failure (or degraded answer) is recorded against the
        rollout and the request is re-answered by the stable engine, so
        a sick canary can never fail live traffic.
        """
        self._counter("fleet/canary_requests", runtime.name).inc()
        try:
            result = canary.runtime.engine.forecast(horizon=horizon, timeout=timeout)
            ok = result.degraded is None
        except QuotaExceeded:
            raise
        except Exception:
            ok = False
            result = None
        self._record_canary(runtime, canary, ok)
        self._check_canary_health(runtime, canary)
        if result is None or result.degraded is not None:
            return runtime.engine.forecast(horizon=horizon, timeout=timeout)
        return result

    # ------------------------------------------------------------------
    # Canary rollout
    # ------------------------------------------------------------------
    def start_canary(
        self,
        tenant: str,
        config: CanaryConfig,
        bundle: ModelBundle | None = None,
        model=None,
        store: StateStore | None = None,
    ) -> dict:
        """Begin a staged rollout of a candidate bundle for ``tenant``.

        ``bundle`` defaults to loading ``config.bundle`` from disk.
        ``model``/``store`` override the candidate's components (tests
        and the chaos harness wrap them in fault injectors).
        """
        runtime = self.runtime(tenant)
        with runtime.lock:
            if runtime.canary is not None and runtime.canary.state == CANARY_RUNNING:
                raise ConfigError(f"tenant {tenant!r} already has a running canary")
            if runtime.shadow is not None:
                raise ConfigError(
                    f"tenant {tenant!r} has a shadow deployment; stop it before "
                    "starting a canary"
                )
            candidate = self._make_candidate(
                runtime, config.bundle, bundle, model, store, role="canary",
                with_monitor=True,
            )
            slo = None
            if config.slo_target is not None:
                # Canary-scale windows (seconds, not hours): a rollout
                # decision cannot wait for the serving SLO's 1h window.
                slo = SLOTracker(
                    Objective(
                        name=f"canary:{tenant}",
                        target=config.slo_target,
                        kind="availability",
                        description="canary candidate availability",
                    ),
                    rules=(
                        BurnRule(
                            "canary",
                            short_s=config.slo_fast_s,
                            long_s=config.slo_slow_s,
                            burn_threshold=config.slo_burn_threshold,
                            min_events=max(1, config.min_failure_samples),
                        ),
                    ),
                )
            canary = _CanaryState(
                config=config,
                runtime=candidate,
                rng=np.random.default_rng(config.seed),
                slo=slo,
            )
            runtime.canary = canary
        if runtime.engine.running:
            candidate.engine.start()
        self._publish_canary(runtime.name, canary)
        return canary.snapshot()

    def _record_canary(
        self, runtime: _TenantRuntime, canary: _CanaryState, ok: bool
    ) -> None:
        promote = False
        with canary.lock:
            if canary.state != CANARY_RUNNING:
                return
            if canary.slo is not None:
                canary.slo.record(ok)
            if ok:
                canary.stage_successes += 1
                canary.total_successes += 1
            else:
                canary.stage_failures += 1
                canary.total_failures += 1
                self._counter("fleet/canary_failures", runtime.name).inc()
            config = canary.config
            stage_total = canary.stage_successes + canary.stage_failures
            if (
                stage_total >= config.min_failure_samples
                and stage_total > 0
                and canary.stage_failures / stage_total > config.max_failure_ratio
            ):
                self._rollback_locked(
                    runtime, canary,
                    f"failure ratio {canary.stage_failures}/{stage_total} exceeded "
                    f"{config.max_failure_ratio:g}",
                )
                return
            if canary.stage_successes >= config.stage_requests:
                if canary.stage_index + 1 < len(config.stages):
                    canary.stage_index += 1
                    canary.stage_successes = 0
                    canary.stage_failures = 0
                else:
                    promote = True
        if promote:
            self._promote(runtime, canary)
        self._publish_canary(runtime.name, canary)

    def _check_canary_health(
        self, runtime: _TenantRuntime, canary: _CanaryState
    ) -> None:
        """SLO-burn, breaker and quality rollback triggers, per request."""
        with canary.lock:
            if canary.state != CANARY_RUNNING:
                return
            # SLO burn first, so the rollback reason cites the budget
            # burn even when the breaker trips in the same window.
            if canary.slo is not None and canary.slo.burning():
                burns = canary.slo.active_burns()
                rate = burns[0]["burn_short"] if burns else 0.0
                self._rollback_locked(
                    runtime, canary,
                    f"candidate SLO burn: error-budget burn rate {rate:.1f}x "
                    f"crossed {canary.config.slo_burn_threshold:g}x "
                    f"(target {canary.config.slo_target:g})",
                )
                # Publish now: the canary stops recording after rollback,
                # so this is the scrape that lands the burn-event counter
                # and burning gauge in the registry.
                self._publish_canary(runtime.name, canary)
                return
            breaker = canary.runtime.engine.breaker
            if breaker is not None and breaker.state == "open":
                self._rollback_locked(
                    runtime, canary, "candidate circuit breaker opened"
                )
                return
            monitor = canary.runtime.monitor
            if monitor is not None and canary.runtime.store.warm:
                report = monitor.update(
                    canary.runtime.store.window(), store=canary.runtime.store
                )
                if report.degraded:
                    self._rollback_locked(
                        runtime, canary,
                        "candidate quality degraded: " + "; ".join(report.reasons[:3]),
                    )
                    return
        self._publish_canary(runtime.name, canary)

    def _rollback_locked(
        self, runtime: _TenantRuntime, canary: _CanaryState, reason: str
    ) -> None:
        """Mark the canary rolled back (``canary.lock`` already held)."""
        canary.state = CANARY_ROLLED_BACK
        canary.reason = reason
        self._counter("fleet/rollbacks", runtime.name).inc()

    def rollback_canary(self, tenant: str, reason: str = "manual rollback") -> dict:
        """Operator-initiated rollback via ``POST /rollouts``."""
        runtime = self.runtime(tenant)
        canary = runtime.canary
        if canary is None:
            raise ConfigError(f"tenant {tenant!r} has no canary rollout")
        with canary.lock:
            if canary.state == CANARY_RUNNING:
                self._rollback_locked(runtime, canary, reason)
        self._publish_canary(tenant, canary)
        return canary.snapshot()

    def _promote(self, runtime: _TenantRuntime, canary: _CanaryState) -> None:
        """Swap the candidate in as the tenant's primary runtime."""
        with runtime.lock, canary.lock:
            if canary.state != CANARY_RUNNING:
                return
            canary.state = CANARY_PROMOTED
            canary.reason = "served every stage cleanly"
            old_engine = runtime.engine
            candidate = canary.runtime
            with self._lock:
                self._engines.pop(runtime.key, None)
                runtime.bundle = candidate.bundle
                runtime.bundle_ref = canary.config.bundle
                runtime.store = candidate.store
                runtime.engine = candidate.engine
                if candidate.monitor is not None:
                    runtime.monitor = candidate.monitor
                runtime.version += 1
                self._engines[runtime.key] = runtime.engine
        self._counter("fleet/promotions", runtime.name).inc()
        if old_engine.running:
            runtime.engine.start()
        old_engine.stop()

    def promote_canary(self, tenant: str) -> dict:
        """Operator-initiated immediate promotion via ``POST /rollouts``."""
        runtime = self.runtime(tenant)
        canary = runtime.canary
        if canary is None:
            raise ConfigError(f"tenant {tenant!r} has no canary rollout")
        self._promote(runtime, canary)
        self._publish_canary(tenant, canary)
        return canary.snapshot()

    def _publish_canary(self, tenant: str, canary: _CanaryState) -> None:
        self._gauge("fleet/canary_weight", tenant).set(canary.weight)
        self._gauge("fleet/canary_stage", tenant).set(float(canary.stage_index))
        if canary.slo is not None:
            labels = self._fleet_labels(tenant)
            if labels is not None:
                canary.slo.publish(self.registry, labels=label_block(labels))

    # ------------------------------------------------------------------
    # Shadow deployment
    # ------------------------------------------------------------------
    def start_shadow(
        self,
        tenant: str,
        config: ShadowConfig,
        bundle: ModelBundle | None = None,
        model=None,
        store: StateStore | None = None,
    ) -> dict:
        """Mirror a fraction of ``tenant``'s traffic to a candidate bundle."""
        runtime = self.runtime(tenant)
        with runtime.lock:
            if runtime.shadow is not None:
                raise ConfigError(f"tenant {tenant!r} already has a shadow deployment")
            candidate = self._make_candidate(
                runtime, config.bundle, bundle, model, store, role="shadow",
                with_monitor=False,
            )
            runtime.shadow = _ShadowState(
                config=config,
                runtime=candidate,
                rng=np.random.default_rng(config.seed),
            )
        return runtime.shadow.snapshot()

    def stop_shadow(self, tenant: str) -> dict:
        runtime = self.runtime(tenant)
        with runtime.lock:
            shadow = runtime.shadow
            if shadow is None:
                raise ConfigError(f"tenant {tenant!r} has no shadow deployment")
            runtime.shadow = None
        shadow.runtime.engine.stop()
        return shadow.snapshot()

    def _enqueue_shadow(self, runtime: _TenantRuntime, live: Forecast) -> None:
        """Queue one mirror replay; never blocks the live request."""
        shadow = runtime.shadow
        if shadow is None:
            return
        try:
            # Capture the live request's span context here, on the
            # request thread — the contextvar does not cross into the
            # shadow worker, so the mirror span re-parents explicitly.
            self._shadow_queue.put_nowait(
                (runtime.name, live.horizon, live, Tracer.current_context())
            )
        except queue.Full:
            with shadow.lock:
                shadow.dropped += 1
            self._counter("fleet/shadow_dropped", runtime.name).inc()

    def _shadow_loop(self) -> None:
        while True:
            item = self._shadow_queue.get()
            try:
                if item is None:
                    return
                self._mirror_one(*item)
            finally:
                self._shadow_queue.task_done()

    def _mirror_one(
        self, tenant: str, horizon: int, live: Forecast, parent=None
    ) -> None:
        try:
            runtime = self._tenants[tenant]
        except KeyError:
            return
        shadow = runtime.shadow
        if shadow is None:
            return
        self._counter("fleet/shadow_mirrored", tenant).inc()
        with shadow.lock:
            shadow.mirrored += 1
        try:
            with self.tracer.span(
                "shadow_mirror",
                parent=parent,
                attributes={"tenant": tenant, "role": "shadow"},
            ):
                mirrored = shadow.runtime.engine.forecast(
                    horizon=horizon, timeout=None
                )
        except Exception:
            with shadow.lock:
                shadow.errors += 1
            self._counter("fleet/shadow_errors", tenant).inc()
            return
        if mirrored.prediction.shape != live.prediction.shape:
            with shadow.lock:
                shadow.errors += 1
            self._counter("fleet/shadow_errors", tenant).inc()
            return
        divergence = float(
            np.mean(np.abs(mirrored.prediction - live.prediction))
        )
        with shadow.lock:
            shadow.compared += 1
            shadow.divergence_sum += divergence
            shadow.divergence_max = max(shadow.divergence_max, divergence)
        self._divergence_histogram(tenant).observe(divergence)

    def drain_shadow(self, timeout: float = 5.0) -> bool:
        """Block until queued *and in-flight* mirror work is done.

        Returns ``True`` once the shadow worker is idle, ``False`` on
        timeout (mirror work still running).
        """
        import time as _time

        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            with self._shadow_queue.all_tasks_done:
                if self._shadow_queue.unfinished_tasks == 0:
                    return True
            _time.sleep(0.005)
        return False

    # ------------------------------------------------------------------
    # Candidate construction
    # ------------------------------------------------------------------
    def _make_candidate(
        self,
        runtime: _TenantRuntime,
        bundle_ref: str,
        bundle: ModelBundle | None,
        model,
        store: StateStore | None,
        role: str,
        with_monitor: bool,
    ) -> _CandidateRuntime:
        if bundle is None:
            bundle = load_bundle(bundle_ref)
        candidate_model = model if model is not None else bundle.model
        shares_store = store is None and (
            bundle.num_nodes == runtime.store.num_nodes
            and bundle.num_features == runtime.store.num_features
            and bundle.input_length == runtime.store.input_length
        )
        if store is None:
            store = runtime.store if shares_store else bundle.make_store(
                registry=self.registry
            )
        else:
            shares_store = store is runtime.store
        labels = {**runtime.labels, "role": role}
        engine = ForecastEngine(
            model=candidate_model,
            scaler=bundle.scaler,
            store=store,
            max_batch_size=runtime.config.max_batch_size,
            max_wait_s=runtime.config.max_wait_s,
            cache_size=runtime.config.cache_size,
            registry=self.registry,
            tracer=self.tracer,
            policy=runtime.config.resilience,
            labels=labels,
            name=f"{role}:{runtime.name}",
            plan=runtime.config.plan_enabled,
            cache_token=bundle.fingerprint,
        )
        monitor = None
        if with_monitor:
            monitor = QualityMonitor(
                num_nodes=bundle.num_nodes,
                train_mean=bundle.scaler.mean_,
                train_std=bundle.scaler.std_,
                thresholds=runtime.config.quality,
                registry=self.registry,
                labels=labels,
            )
        return _CandidateRuntime(
            bundle=bundle,
            store=store,
            engine=engine,
            shares_store=shares_store,
            monitor=monitor,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tenant_snapshot(self, name: str) -> dict:
        runtime = self.runtime(name)
        return {
            "tenant": runtime.name,
            "bundle_id": runtime.bundle_id,
            "bundle": runtime.bundle_ref,
            "version": runtime.version,
            "model": runtime.bundle.model_name,
            "warm": runtime.store.warm,
            "state_version": runtime.store.version,
            "newest_step": runtime.store.newest_step,
            "queue_depth": runtime.engine.queue_depth,
            "quota": runtime.quota.snapshot() if runtime.quota else None,
            "shadow": runtime.shadow is not None,
            "canary": (
                runtime.canary.state if runtime.canary is not None else None
            ),
        }

    def tenants_snapshot(self) -> dict:
        return {name: self.tenant_snapshot(name) for name in self.tenants()}

    def canary_slo_snapshots(self) -> dict:
        """Per-tenant canary SLO tracker snapshots for ``GET /slo``."""
        out: dict = {}
        for name in self.tenants():
            runtime = self.runtime(name)
            canary = runtime.canary
            if canary is not None and canary.slo is not None:
                out[name] = {
                    "state": canary.state,
                    "reason": canary.reason,
                    "slo": canary.slo.snapshot(),
                }
        return out

    def rollouts_snapshot(self) -> dict:
        out: dict = {}
        for name in self.tenants():
            runtime = self.runtime(name)
            entry: dict = {}
            if runtime.shadow is not None:
                entry["shadow"] = runtime.shadow.snapshot()
            if runtime.canary is not None:
                entry["canary"] = runtime.canary.snapshot()
            if entry:
                entry["version"] = runtime.version
                out[name] = entry
        return out


def build_pool(
    fleet: FleetConfig,
    base_dir: str | None = None,
    registry: MetricRegistry | None = None,
    tracer: Tracer | None = None,
    bundles: dict[str, ModelBundle] | None = None,
) -> EnginePool:
    """Materialise an :class:`EnginePool` from a :class:`FleetConfig`.

    ``bundles`` optionally maps bundle refs to pre-loaded bundles (the
    manifest loader and tests use it); anything missing is loaded from
    disk, resolving relative paths against ``base_dir``.
    """
    import os

    bundles = dict(bundles) if bundles else {}

    def resolve(ref: str) -> ModelBundle:
        if ref in bundles:
            return bundles[ref]
        path = ref
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        bundles[ref] = load_bundle(path)
        return bundles[ref]

    pool = EnginePool(registry=registry, tracer=tracer)
    for tenant in fleet.tenants:
        config = tenant.config if tenant.config is not None else fleet.default
        pool.add_tenant(
            tenant.name,
            resolve(tenant.bundle),
            config=config,
            quota_rps=tenant.quota_rps,
            quota_burst=tenant.quota_burst,
            bundle_ref=tenant.bundle,
        )
        if tenant.shadow is not None:
            pool.start_shadow(
                tenant.name, tenant.shadow, bundle=resolve(tenant.shadow.bundle)
            )
        if tenant.canary is not None:
            pool.start_canary(
                tenant.name, tenant.canary, bundle=resolve(tenant.canary.bundle)
            )
    # The default tenant of a single-tenant fleet keeps today's
    # unlabelled metric names only when built through ServeApp's legacy
    # constructor; manifest-built pools always label by tenant.
    return pool

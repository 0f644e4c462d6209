"""One validated configuration object for the whole serving stack.

``ServeApp``'s tuning used to arrive as loose kwargs sprinkled over
``ForecastEngine``, ``make_server``, ``run_server`` and the CLI
``serve`` flags. :class:`ServeConfig` collapses all of it — batching,
cache, tracing, quality thresholds and the resilience policy — into a
single frozen dataclass, validated in ``__post_init__``. Every config
here crosses JSON (fleet manifests) through :func:`repro.codec.from_dict`
and :func:`repro.codec.to_dict`; copies with changes come from
:func:`dataclasses.replace`, which re-runs the validation.

The multi-tenant fleet layers on top: a :class:`FleetConfig` is a base
``ServeConfig`` plus one :class:`TenantConfig` per tenant, each naming
its model bundle, an optional token-bucket quota, an optional
``ServeConfig`` override and optional :class:`ShadowConfig` / :class:`CanaryConfig`
rollout plans. ``FleetConfig.single()`` wraps a lone ``ServeConfig``
into a one-tenant fleet, which is how the legacy single-engine entry
points keep working unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..reliability import ResiliencePolicy
from ..telemetry import QualityThresholds

__all__ = [
    "DEFAULT_TENANT",
    "CanaryConfig",
    "FleetConfig",
    "ServeConfig",
    "ShadowConfig",
    "TenantConfig",
]

#: tenant used by every single-tenant entry point (legacy ``ServeApp``)
DEFAULT_TENANT = "default"

# Tenant names become Prometheus label values, path segments and
# manifest keys. Label values are escaped at exposition time, but paths
# and manifests want one predictable charset, so names are restricted
# up front.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serving process needs besides the bundle itself."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the CLI defaults to 8787 via its flag
    max_batch_size: int = 8
    max_wait_s: float = 0.0  # > 0 holds each batch open for followers
    cache_size: int = 256
    plan_enabled: bool = True  # traced execution plans on the forward path
    trace_sample: float = 0.0
    trace_export: str | None = None
    slo_enabled: bool = True
    slo_latency_ms: float = 250.0
    profile_hz: float = 0.0  # 0 = continuous profiler off
    exemplars: bool = False  # trace-id exemplars on /metrics histograms
    quality: QualityThresholds = field(default_factory=QualityThresholds)
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in 0..65535, got {self.port}")
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ConfigError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.cache_size < 0:
            raise ConfigError(f"cache_size must be >= 0, got {self.cache_size}")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.slo_latency_ms <= 0:
            raise ConfigError(
                f"slo_latency_ms must be positive, got {self.slo_latency_ms}"
            )
        if not 0.0 <= self.profile_hz <= 1000.0:
            raise ConfigError(
                f"profile_hz must be in [0, 1000], got {self.profile_hz}"
            )
        if not isinstance(self.quality, QualityThresholds):
            raise ConfigError(
                f"quality must be a QualityThresholds, got {type(self.quality).__name__}"
            )
        if not isinstance(self.resilience, ResiliencePolicy):
            raise ConfigError(
                f"resilience must be a ResiliencePolicy, "
                f"got {type(self.resilience).__name__}"
            )


@dataclass(frozen=True)
class ShadowConfig:
    """A shadow deployment plan for one tenant.

    ``bundle`` names the candidate bundle (manifest-relative path). A
    ``mirror_fraction`` of live forecasts is replayed against the
    candidate *off the request path*; each pair of answers feeds the
    per-tenant divergence histogram.
    """

    bundle: str
    mirror_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not self.bundle:
            raise ConfigError("shadow bundle must be a non-empty path")
        if not 0.0 < self.mirror_fraction <= 1.0:
            raise ConfigError(
                f"mirror_fraction must be in (0, 1], got {self.mirror_fraction}"
            )


@dataclass(frozen=True)
class CanaryConfig:
    """A staged canary rollout plan for one tenant.

    The candidate bundle receives a ``stages[i]`` fraction of live
    traffic; after ``stage_requests`` clean candidate answers the
    rollout advances to the next stage, and past the last stage the
    candidate is promoted to primary. Rollback is automatic when the
    candidate's circuit breaker opens, its ``QualityMonitor`` verdict
    degrades, its failure ratio exceeds ``max_failure_ratio``, or its
    availability SLO burns: candidate answers feed a dedicated
    :class:`~repro.telemetry.slo.SLOTracker` with canary-scale windows
    (``slo_fast_s``/``slo_slow_s``) against ``slo_target``, and a
    sustained burn past ``slo_burn_threshold`` rolls the stage back
    (``slo_target=None`` disables the gate).
    """

    bundle: str
    stages: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0)
    stage_requests: int = 50
    max_failure_ratio: float = 0.1
    min_failure_samples: int = 5
    seed: int = 0
    slo_target: float | None = 0.99
    slo_fast_s: float = 30.0
    slo_slow_s: float = 300.0
    slo_burn_threshold: float = 2.0

    def __post_init__(self):
        if not self.bundle:
            raise ConfigError("canary bundle must be a non-empty path")
        object.__setattr__(self, "stages", tuple(float(s) for s in self.stages))
        if not self.stages:
            raise ConfigError("canary needs at least one stage weight")
        for weight in self.stages:
            if not 0.0 < weight <= 1.0:
                raise ConfigError(
                    f"canary stage weights must be in (0, 1], got {weight}"
                )
        if list(self.stages) != sorted(self.stages):
            raise ConfigError(f"canary stages must be non-decreasing, got {self.stages}")
        if self.stage_requests < 1:
            raise ConfigError(
                f"stage_requests must be >= 1, got {self.stage_requests}"
            )
        if not 0.0 <= self.max_failure_ratio < 1.0:
            raise ConfigError(
                f"max_failure_ratio must be in [0, 1), got {self.max_failure_ratio}"
            )
        if self.min_failure_samples < 1:
            raise ConfigError(
                f"min_failure_samples must be >= 1, got {self.min_failure_samples}"
            )
        if self.slo_target is not None and not 0.0 < self.slo_target < 1.0:
            raise ConfigError(
                f"slo_target must be in (0, 1) or None, got {self.slo_target}"
            )
        if not 0.0 < self.slo_fast_s < self.slo_slow_s:
            raise ConfigError(
                f"need 0 < slo_fast_s < slo_slow_s, got "
                f"{self.slo_fast_s}/{self.slo_slow_s}"
            )
        if self.slo_burn_threshold <= 0:
            raise ConfigError(
                f"slo_burn_threshold must be positive, got {self.slo_burn_threshold}"
            )


@dataclass(frozen=True)
class TenantConfig:
    """One tenant of the fleet: a bundle, a quota and rollout plans.

    ``quota_rps``/``quota_burst`` parameterise the tenant's token
    bucket (0 rps disables the quota). ``config`` overrides the fleet's
    base :class:`ServeConfig` for this tenant (``None`` inherits).
    """

    name: str
    bundle: str
    quota_rps: float = 0.0
    quota_burst: float = 10.0
    config: ServeConfig | None = None
    shadow: ShadowConfig | None = None
    canary: CanaryConfig | None = None

    def __post_init__(self):
        if not _TENANT_NAME.match(self.name):
            raise ConfigError(
                f"tenant name {self.name!r} is invalid: use 1-64 characters "
                "from [A-Za-z0-9._-], starting with a letter or digit"
            )
        if not self.bundle:
            raise ConfigError(f"tenant {self.name!r} needs a bundle path")
        if self.quota_rps < 0:
            raise ConfigError(f"quota_rps must be >= 0, got {self.quota_rps}")
        if self.quota_rps > 0 and self.quota_burst < 1:
            raise ConfigError(
                f"quota_burst must be >= 1 when a quota is set, got {self.quota_burst}"
            )
        if self.config is not None and not isinstance(self.config, ServeConfig):
            raise ConfigError(
                f"tenant config must be a ServeConfig, got {type(self.config).__name__}"
            )
        if self.shadow is not None and self.canary is not None:
            raise ConfigError(
                f"tenant {self.name!r}: run shadow and canary rollouts one at a "
                "time (shadow first, then canary)"
            )


@dataclass(frozen=True)
class FleetConfig:
    """A fleet: the base serving config plus one entry per tenant."""

    default: ServeConfig = field(default_factory=ServeConfig)
    tenants: tuple[TenantConfig, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not isinstance(self.default, ServeConfig):
            raise ConfigError(
                f"default must be a ServeConfig, got {type(self.default).__name__}"
            )
        if not self.tenants:
            raise ConfigError("a fleet needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate tenant name(s): {dupes}")

    @classmethod
    def single(
        cls, config: ServeConfig | None = None, bundle: str = "<in-memory>"
    ) -> "FleetConfig":
        """A one-tenant fleet wrapping the legacy single-engine setup."""
        config = config if config is not None else ServeConfig()
        return cls(
            default=config,
            tenants=(TenantConfig(name=DEFAULT_TENANT, bundle=bundle),),
        )

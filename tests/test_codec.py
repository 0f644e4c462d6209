"""Tests for the config codec (repro.codec): JSON round trips and errors."""

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.codec import from_dict, to_dict
from repro.datasets import make_pattern
from repro.errors import ConfigError
from repro.reliability import FaultPlan, ResiliencePolicy
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    ServeConfig,
    ShadowConfig,
    TenantConfig,
)
from repro.serve.cluster import ClusterConfig, ShardPlan, plan_shards
from repro.telemetry import QualityThresholds


def _shard_plan() -> ShardPlan:
    adjacency = np.zeros((6, 6))
    for node in range(5):  # a chain: 0 - 1 - ... - 5
        adjacency[node, node + 1] = adjacency[node + 1, node] = 1.0
    return plan_shards(adjacency, 2, halo_hops=1, salt="s")


_TENANT = TenantConfig(
    name="alpha",
    bundle="bundle_0",
    quota_rps=5.0,
    quota_burst=20.0,
    config=ServeConfig(
        max_wait_s=0.004,
        trace_export="spans.jsonl",
        quality=QualityThresholds(staleness_steps=3),
        resilience=ResiliencePolicy(deadline_s=None, retry_attempts=3),
    ),
    shadow=ShadowConfig(bundle="bundle_1", mirror_fraction=0.5, seed=2),
)

CASES = {
    "serve": ServeConfig(
        host="0.0.0.0", port=9000, plan_enabled=False,
        resilience=ResiliencePolicy.disabled(),
    ),
    "resilience": ResiliencePolicy(deadline_s=None, breaker_window=16),
    "shadow": ShadowConfig(bundle="b", mirror_fraction=0.25),
    "canary": CanaryConfig(bundle="b", stages=(0.5, 1.0), slo_target=None),
    "tenant": _TENANT,
    "fleet": FleetConfig(
        default=ServeConfig(cache_size=0),
        tenants=(
            _TENANT,
            TenantConfig(name="beta", bundle="b", canary=CanaryConfig(bundle="c")),
        ),
    ),
    "cluster": ClusterConfig(
        num_shards=3, halo_hops=None, salt="x",
        serve=ServeConfig(max_batch_size=2),
    ),
    "shard-plan": _shard_plan(),
    "fault-plan-ids": FaultPlan(seed=7, error_rate=0.1, dropped_sensors=(2, 0)),
    "fault-plan-pattern": FaultPlan(
        latency_rate=0.2,
        dropped_sensors=make_pattern("sensor", rate=0.4, seed=5, name="flaky"),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_round_trip(name):
    config = CASES[name]
    payload = json.loads(json.dumps(to_dict(config)))
    assert from_dict(type(config), payload) == config


def test_to_dict_emits_every_field_as_json_types():
    payload = to_dict(CASES["fleet"])
    tenant = payload["tenants"][0]
    assert set(tenant) == {f.name for f in fields(TenantConfig)}
    assert set(tenant["config"]["resilience"]) == {
        f.name for f in fields(ResiliencePolicy)
    }
    assert tenant["canary"] is None
    assert to_dict(CASES["canary"])["stages"] == [0.5, 1.0]
    assert to_dict(CASES["shard-plan"])["halos"] == [
        list(h) for h in CASES["shard-plan"].halos
    ]
    assert to_dict(CASES["fault-plan-pattern"])["dropped_sensors"] == (
        make_pattern("sensor", rate=0.4, seed=5, name="flaky").to_json_dict()
    )


def test_validation_stays_in_post_init():
    with pytest.raises(ConfigError, match="retry_attempts"):
        from_dict(ServeConfig, {"resilience": {"retry_attempts": 0}})

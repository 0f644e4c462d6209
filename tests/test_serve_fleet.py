"""Multi-tenant fleet tests: pool isolation, quotas, shadow, canary.

Covers the fleet acceptance criteria end to end:

* a two-tenant :class:`EnginePool` serves isolated forecasts with
  per-tenant quota enforcement (429 + Retry-After over HTTP);
* shadow deployments mirror traffic off the request path and publish a
  divergence histogram;
* canary rollouts promote on clean traffic and roll back automatically
  when the candidate fails (seeded :class:`FaultPlan` chaos) — without
  a single live request failing;
* the legacy single-tenant entry points keep their unlabeled metric
  names (byte-compatible scrape output);
* fleet manifests round-trip through ``save/load_fleet_manifest`` and
  ``build_pool``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError, QuotaExceeded
from repro.experiments import build_model
from repro.reliability import ChaosModel, FaultPlan, ResiliencePolicy
from repro.serve import (
    CanaryConfig,
    EnginePool,
    FleetConfig,
    ServeApp,
    ServeConfig,
    ShadowConfig,
    TenantConfig,
    TenantQuota,
    build_pool,
    export_bundle,
    load_bundle,
    load_fleet_manifest,
    save_fleet_manifest,
)
from repro.serve.fleet import CANARY_PROMOTED, CANARY_ROLLED_BACK
from repro.telemetry import MetricRegistry

from .test_telemetry_prometheus import parse_exposition


@pytest.fixture()
def bundle_pair(tiny_ctx, tmp_path):
    """Two distinct bundles of the same shape (different model seeds)."""
    paths = []
    for index, name in enumerate(("FC-LSTM-I", "GCN-LSTM")):
        model = build_model(name, tiny_ctx)
        base = str(tmp_path / f"bundle_{index}")
        export_bundle(model, name, tiny_ctx, base)
        paths.append(base)
    return load_bundle(paths[0]), load_bundle(paths[1]), paths


def warm(pool, tenant, *, seed=0, scale=60.0, steps=None):
    runtime = pool.runtime(tenant)
    n, d = runtime.store.num_nodes, runtime.store.num_features
    steps = runtime.store.input_length if steps is None else steps
    rng = np.random.default_rng(seed)
    for step in range(steps):
        pool.observe(tenant, step, rng.normal(scale, 5.0, size=(n, d)))


class TestPoolBasics:
    def test_two_tenants_serve_isolated_forecasts(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        pool.add_tenant("beta", bundle_b)
        assert len(pool) == 2 and set(pool.tenants()) == {"alpha", "beta"}
        with pool:
            warm(pool, "alpha", seed=0, scale=60.0)
            warm(pool, "beta", seed=1, scale=30.0)
            a = pool.forecast("alpha")
            b = pool.forecast("beta")
        assert a.degraded is None and b.degraded is None
        assert not np.allclose(a.prediction, b.prediction)
        # engine registry keyed (tenant, bundle-id, version)
        keys = set(pool.engines())
        assert ("alpha", bundle_a.model_name, 1) in keys
        assert ("beta", bundle_b.model_name, 1) in keys

    def test_unknown_and_duplicate_tenants_are_config_errors(self, bundle_pair):
        bundle_a, _, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        with pytest.raises(ConfigError, match="no tenant named"):
            pool.runtime("ghost")
        with pytest.raises(ConfigError, match="already registered"):
            pool.add_tenant("alpha", bundle_a)

    def test_observations_route_to_the_named_tenant_only(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        pool.add_tenant("beta", bundle_b)
        warm(pool, "alpha")
        assert pool.runtime("alpha").store.warm
        assert not pool.runtime("beta").store.warm


class TestQuota:
    def test_token_bucket_exhausts_and_names_retry_delay(self):
        clock = [0.0]
        quota = TenantQuota(rate_per_s=1.0, burst=2.0, clock=lambda: clock[0])
        assert quota.try_acquire() and quota.try_acquire()
        assert not quota.try_acquire()
        assert quota.retry_after_s == pytest.approx(1.0)
        clock[0] += 1.0
        assert quota.try_acquire()
        snapshot = quota.snapshot()
        assert snapshot["granted"] == 3 and snapshot["rejected"] == 1

    def test_pool_raises_quota_exceeded(self, bundle_pair):
        bundle_a, _, _ = bundle_pair
        clock = [0.0]
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a, quota_rps=0.001, quota_burst=2.0,
                        quota_clock=lambda: clock[0])
        warm(pool, "alpha")
        with pool:
            pool.forecast("alpha")
            pool.forecast("alpha")
            with pytest.raises(QuotaExceeded):
                pool.forecast("alpha")
        registry = pool.registry
        assert registry.counter(
            'fleet/quota_rejected{tenant="alpha"}').value == 1

    def test_http_quota_rejection_is_429_with_retry_after(self, bundle_pair):
        bundle_a, _, _ = bundle_pair
        clock = [0.0]
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a, quota_rps=0.001, quota_burst=1.0,
                        quota_clock=lambda: clock[0])
        app = ServeApp(pool=pool, registry=pool.registry)
        with pool:
            warm(pool, "alpha")
            ok = app.handle("GET", "/t/alpha/forecast", None)
            assert ok.status == 200
            rejected = app.handle("GET", "/t/alpha/forecast", None)
        assert rejected.status == 429
        assert float(rejected.headers["Retry-After"]) >= 1


class TestShadow:
    def test_shadow_mirrors_and_measures_divergence(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        with pool:
            warm(pool, "alpha")
            pool.start_shadow(
                "alpha",
                ShadowConfig(bundle="candidate", mirror_fraction=1.0),
                bundle=bundle_b,
            )
            n, d = bundle_a.num_nodes, bundle_a.num_features
            rng = np.random.default_rng(7)
            start = bundle_a.input_length
            for round_index in range(4):
                pool.observe("alpha", start + round_index,
                             rng.normal(60.0, 5.0, size=(n, d)))
                live = pool.forecast("alpha")
                assert live.degraded is None
            assert pool.drain_shadow()
            snapshot = pool.stop_shadow("alpha")
        assert snapshot["mirrored"] == 4
        assert snapshot["compared"] == 4
        assert snapshot["dropped"] == 0 and snapshot["errors"] == 0
        # different weights → the candidate genuinely diverges
        assert snapshot["divergence_mean_abs"] > 0.0
        hist = pool.registry.histogram(
            'fleet/shadow_divergence{tenant="alpha"}')
        assert hist.count == 4

    def test_identical_candidate_has_zero_divergence(self, bundle_pair):
        bundle_a, _, paths = bundle_pair
        same = load_bundle(paths[0])
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        with pool:
            warm(pool, "alpha")
            pool.start_shadow(
                "alpha", ShadowConfig(bundle="same", mirror_fraction=1.0),
                bundle=same,
            )
            pool.forecast("alpha")
            assert pool.drain_shadow()
            snapshot = pool.stop_shadow("alpha")
        assert snapshot["compared"] == 1
        assert snapshot["divergence_mean_abs"] == pytest.approx(0.0, abs=1e-9)

    def test_second_shadow_rejected(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        pool.start_shadow("alpha", ShadowConfig(bundle="x"), bundle=bundle_b)
        with pytest.raises(ConfigError, match="already has a shadow"):
            pool.start_shadow("alpha", ShadowConfig(bundle="y"), bundle=bundle_b)
        pool.stop_shadow("alpha")


def canary_config(**overrides):
    defaults = dict(bundle="candidate", stages=(1.0,), stage_requests=3,
                    max_failure_ratio=0.2, min_failure_samples=5)
    defaults.update(overrides)
    return CanaryConfig(**defaults)


class TestCanary:
    def test_clean_canary_promotes_and_bumps_version(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        with pool:
            warm(pool, "alpha")
            pool.start_canary("alpha", canary_config(), bundle=bundle_b)
            for _ in range(4):
                result = pool.forecast("alpha")
                assert result.degraded is None
            runtime = pool.runtime("alpha")
            assert runtime.canary.state == CANARY_PROMOTED
            assert runtime.version == 2
            assert runtime.bundle is bundle_b
            # the registry now routes through the promoted engine
            assert ("alpha", bundle_b.model_name, 2) in pool.engines()
        assert pool.registry.counter(
            'fleet/promotions{tenant="alpha"}').value == 1

    def test_chaos_canary_rolls_back_without_live_failures(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        plan = FaultPlan(seed=0, error_rate=0.9, corrupt_rate=0.3)
        chaos = ChaosModel(bundle_b.model, plan.injector())
        with pool:
            warm(pool, "alpha")
            pool.start_canary(
                "alpha",
                canary_config(stage_requests=50, min_failure_samples=3),
                bundle=bundle_b, model=chaos,
            )
            n, d = bundle_a.num_nodes, bundle_a.num_features
            rng = np.random.default_rng(11)
            start = bundle_a.input_length
            for round_index in range(12):
                pool.observe("alpha", start + round_index,
                             rng.normal(60.0, 5.0, size=(n, d)))
                live = pool.forecast("alpha")
                # the stable engine re-answers every canary failure
                assert live.degraded is None
            runtime = pool.runtime("alpha")
            assert runtime.canary.state == CANARY_ROLLED_BACK
            assert "failure ratio" in runtime.canary.reason
            assert runtime.version == 1 and runtime.bundle is bundle_a
        assert pool.registry.counter(
            'fleet/rollbacks{tenant="alpha"}').value == 1

    def test_manual_rollback_and_promote_via_http(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        app = ServeApp(pool=pool, registry=pool.registry)
        pool.start_canary("alpha", canary_config(), bundle=bundle_b)
        listed = app.handle("GET", "/rollouts", None)
        assert listed.status == 200
        assert listed.body["rollouts"]["alpha"]["canary"]["state"] == "running"
        rolled = app.handle("POST", "/rollouts", json.dumps(
            {"tenant": "alpha", "action": "rollback", "reason": "operator"}
        ).encode())
        assert rolled.status == 200
        assert rolled.body["canary"]["state"] == CANARY_ROLLED_BACK
        assert rolled.body["canary"]["reason"] == "operator"

    def test_canary_and_shadow_are_mutually_exclusive(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        pool.start_shadow("alpha", ShadowConfig(bundle="x"), bundle=bundle_b)
        with pytest.raises(ConfigError, match="shadow"):
            pool.start_canary("alpha", canary_config(), bundle=bundle_b)
        pool.stop_shadow("alpha")


class TestHTTPTenantRouting:
    @pytest.fixture()
    def app(self, bundle_pair):
        bundle_a, bundle_b, _ = bundle_pair
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle_a)
        pool.add_tenant("beta", bundle_b)
        return ServeApp(pool=pool, registry=pool.registry)

    def test_path_header_and_query_routing_agree(self, app):
        by_path = app.handle("GET", "/t/beta/healthz", None)
        by_header = app.handle("GET", "/healthz", None, {"X-Tenant": "beta"})
        by_query = app.handle("GET", "/healthz?tenant=beta", None)
        for response in (by_path, by_header, by_query):
            assert response.status == 200
            assert response.body["tenant"] == "beta"

    def test_unknown_tenant_404_lists_pool(self, app):
        response = app.handle("GET", "/t/ghost/forecast", None)
        assert response.status == 404
        assert "ghost" in response.body["error"]
        assert set(response.body["tenants"]) == {"alpha", "beta"}

    def test_no_default_tenant_is_404_with_hint(self, app):
        response = app.handle("GET", "/forecast", None)
        assert response.status == 404
        assert "X-Tenant" in response.body["error"]

    def test_tenants_endpoint_summarises_pool(self, app):
        response = app.handle("GET", "/tenants", None)
        assert response.status == 200
        summary = response.body["tenants"]
        assert set(summary) == {"alpha", "beta"}
        assert summary["alpha"]["version"] == 1
        assert summary["alpha"]["warm"] is False

    def test_metrics_carry_tenant_labels(self, app, bundle_pair):
        bundle_a, _, _ = bundle_pair
        n, d = bundle_a.num_nodes, bundle_a.num_features
        for step in range(bundle_a.input_length):
            body = json.dumps({
                "step": step, "values": np.full((n, d), 60.0).tolist(),
            }).encode()
            assert app.handle("POST", "/t/alpha/observe", body).status == 200
        with app.pool:
            assert app.handle("GET", "/t/alpha/forecast", None).status == 200
        scrape = app.handle("GET", "/metrics", None)
        families = parse_exposition(scrape.body.body)
        requests = families["repro_fleet_requests_total"]["samples"]
        assert requests['repro_fleet_requests_total{tenant="alpha"}'] == 1.0


class TestSingleTenantCompat:
    def test_legacy_app_keeps_unlabeled_series(self, bundle_pair):
        """A single-tenant ``ServeApp(bundle)`` must scrape byte-identically
        to the pre-fleet stack: no ``tenant`` label, breaker named
        ``model``."""
        bundle_a, _, _ = bundle_pair
        app = ServeApp(bundle_a, registry=MetricRegistry())
        n, d = bundle_a.num_nodes, bundle_a.num_features
        for step in range(bundle_a.input_length):
            app.store.observe(step, np.full((n, d), 60.0))
        assert app.handle("GET", "/forecast", None).status == 200
        text = app.handle("GET", "/metrics", None).body.body
        assert "repro_serve_requests_total 1" in text
        assert 'reliability_breaker_state{name="model"} ' in text
        assert "tenant=" not in text

    def test_default_tenant_aliases_still_work(self, bundle_pair):
        bundle_a, _, _ = bundle_pair
        app = ServeApp(bundle_a, registry=MetricRegistry())
        assert app.bundle is bundle_a
        assert app.engine.store is app.store
        assert len(app.pool) == 1

    def test_healthz_omits_fleet_keys_for_single_tenant(self, bundle_pair):
        bundle_a, _, _ = bundle_pair
        app = ServeApp(bundle_a, registry=MetricRegistry())
        payload = app.handle("GET", "/healthz", None).body
        assert "tenant" not in payload and "tenants" not in payload


class TestManifest:
    def fleet_config(self):
        return FleetConfig(
            default=ServeConfig(port=0),
            tenants=(
                TenantConfig(name="alpha", bundle="bundle_0",
                             quota_rps=5.0, quota_burst=20.0),
                TenantConfig(name="beta", bundle="bundle_1"),
            ),
        )

    def test_round_trip_preserves_tenants(self, tmp_path):
        path = save_fleet_manifest(self.fleet_config(), str(tmp_path / "fleet"))
        loaded, base_dir = load_fleet_manifest(path)
        assert base_dir == str(tmp_path)
        assert [t.name for t in loaded.tenants] == ["alpha", "beta"]
        assert loaded.tenants[0].quota_rps == 5.0
        assert loaded.default.port == 0

    def test_build_pool_resolves_bundles_against_manifest_dir(
        self, bundle_pair, tmp_path
    ):
        _, _, paths = bundle_pair
        path = save_fleet_manifest(self.fleet_config(), str(tmp_path / "fleet"))
        loaded, base_dir = load_fleet_manifest(path)
        pool = build_pool(loaded, base_dir=base_dir)
        assert set(pool.tenants()) == {"alpha", "beta"}
        assert pool.runtime("alpha").quota is not None
        assert pool.runtime("beta").quota is None

    def test_round_trip_is_exact_with_tenant_overrides(self, tmp_path):
        fleet = FleetConfig(
            default=ServeConfig(port=0, max_batch_size=4),
            tenants=(
                TenantConfig(
                    name="alpha", bundle="bundle_0",
                    quota_rps=5.0, quota_burst=20.0,
                    config=ServeConfig(
                        cache_size=16,
                        resilience=ResiliencePolicy(
                            deadline_s=None, retry_attempts=3, breaker=False
                        ),
                    ),
                    shadow=ShadowConfig(bundle="bundle_2", mirror_fraction=0.5),
                ),
                TenantConfig(
                    name="beta", bundle="bundle_1",
                    canary=CanaryConfig(bundle="bundle_3", stages=(0.25, 1.0)),
                ),
            ),
        )
        loaded, _ = load_fleet_manifest(
            save_fleet_manifest(fleet, str(tmp_path / "fleet"))
        )
        assert loaded == fleet
        assert loaded.tenants[0].config.resilience.retry_attempts == 3

    @pytest.mark.parametrize("section", [
        "tenants[0].shadow",
        "tenants[1].canary",
        "default.quality",
        "default.resilience",
        "tenants[0].config",
    ])
    def test_nested_typo_is_config_error_naming_fields(self, tmp_path, section):
        payload = {
            "format_version": 1,
            "default": {"quality": {}, "resilience": {}},
            "tenants": [
                {"name": "alpha", "bundle": "b0",
                 "config": {}, "shadow": {"bundle": "b2"}},
                {"name": "beta", "bundle": "b1", "canary": {"bundle": "b3"}},
            ],
        }
        node = payload
        for key in section.replace("[", ".").replace("]", "").split("."):
            node = node[int(key)] if key.isdigit() else node[key]
        node["typo_field"] = 1
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="typo_field.*valid fields"):
            load_fleet_manifest(str(path))

    @pytest.mark.parametrize("tenants, message", [
        ({"name": "alpha", "bundle": "b0"}, "JSON array"),
        (["alpha"], "JSON object"),
    ])
    def test_malformed_tenants_are_config_errors(self, tmp_path, tenants, message):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"format_version": 1, "tenants": tenants}))
        with pytest.raises(ConfigError, match=message):
            load_fleet_manifest(str(path))

    def test_docs_manifest_example_loads(self, tmp_path):
        doc = (Path(__file__).parents[1] / "docs" / "FLEET.md").read_text()
        example = doc.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "fleet.json"
        path.write_text(example)
        fleet, _ = load_fleet_manifest(str(path))
        assert [t.name for t in fleet.tenants] == ["alpha", "beta"]
        alpha, beta = fleet.tenants
        assert alpha.config.max_batch_size == 4
        assert alpha.config.resilience.retry_attempts == 3
        assert beta.config is None

    def test_hostile_tenant_name_rejected_up_front(self):
        with pytest.raises(ConfigError, match="invalid"):
            TenantConfig(name='evil"} bad', bundle="x")
        with pytest.raises(ConfigError, match="invalid"):
            TenantConfig(name="a/b", bundle="x")

"""Serving-layer SLO tests: the ``/slo`` endpoint and the canary gate.

End-to-end over the real request path: the app's SLO engine observes
every forecast/observe response, burns surface on ``/slo`` and as
``repro_slo_*`` series on ``/metrics``, and a canary whose candidate
burns its error budget is rolled back by the SLO gate with the burn
cited in the rollback reason — before the blunt failure-ratio check
gets a say.
"""

import numpy as np
import pytest

from repro.experiments import build_model
from repro.serve import (
    CanaryConfig,
    EnginePool,
    ServeApp,
    ServeConfig,
    export_bundle,
    load_bundle,
)
from repro.serve.fleet import CANARY_ROLLED_BACK
from repro.telemetry import (
    BurnRule,
    MetricRegistry,
    SLOEngine,
    default_serving_objectives,
)


@pytest.fixture()
def bundle(tiny_ctx, tmp_path):
    model = build_model("FC-LSTM-I", tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, "FC-LSTM-I", tiny_ctx, base)
    return load_bundle(base)


def warm(app, *, seed=0, scale=60.0):
    store = app.store
    rng = np.random.default_rng(seed)
    for step in range(store.input_length):
        store.observe(step, rng.normal(
            scale, 5.0, size=(store.num_nodes, store.num_features)
        ))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def make_engine(clock):
    return SLOEngine(
        default_serving_objectives(),
        rules=(BurnRule("r", short_s=60.0, long_s=600.0,
                        burn_threshold=2.0, min_events=5),),
        clock=clock,
        bucket_s=5.0,
    )


class TestSLOEndpoint:
    def test_disabled_engine_is_404(self, bundle):
        app = ServeApp(bundle, registry=MetricRegistry(),
                       config=ServeConfig(slo_enabled=False))
        assert app.slo is None
        response = app.handle("GET", "/slo", None)
        assert response.status == 404

    def test_default_config_builds_the_stock_objectives(self, bundle):
        app = ServeApp(bundle, registry=MetricRegistry(),
                       config=ServeConfig(slo_latency_ms=100.0))
        assert set(app.slo.trackers) == {
            "availability", "latency_p99", "degraded_ratio", "sensor_quality"
        }
        latency = app.slo.trackers["latency_p99"].objective
        assert latency.latency_threshold_ms == 100.0

    def test_request_path_feeds_the_engine(self, bundle):
        clock = FakeClock()
        slo = make_engine(clock)
        app = ServeApp(bundle, registry=MetricRegistry(), slo=slo)
        warm(app)
        with app.engine:
            assert app.handle("GET", "/forecast?horizon=2", None).status == 200
        avail = slo.trackers["availability"]
        assert avail.good_total == 1 and avail.bad_total == 0
        # meta endpoints are not SLO events
        app.handle("GET", "/metrics", None)
        app.handle("GET", "/slo", None)
        assert avail.good_total + avail.bad_total == 1

    def test_burn_surfaces_on_slo_and_metrics(self, bundle):
        clock = FakeClock()
        slo = make_engine(clock)
        app = ServeApp(bundle, registry=MetricRegistry(), slo=slo)
        for _ in range(10):
            slo.record_request(503, when=clock.now)
        clock.now = 5.0
        status = app.handle("GET", "/slo", None)
        assert status.status == 200
        assert status.body["slo"]["burning"] == ["availability"]
        objective = status.body["slo"]["objectives"]["availability"]
        assert objective["active_burns"][0]["state"] == "firing"
        metrics = app.handle("GET", "/metrics", None).body.body
        assert 'repro_slo_burning{slo="availability"} 1' in metrics
        assert 'repro_slo_burn_events_total{slo="availability"} 1' in metrics
        assert 'repro_slo_error_budget_remaining{slo="availability"}' in metrics

    def test_healthz_inspection_feeds_sensor_quality(self, bundle):
        clock = FakeClock()
        slo = make_engine(clock)
        app = ServeApp(bundle, registry=MetricRegistry(), slo=slo)
        warm(app)
        app.handle("GET", "/healthz", None)
        quality = slo.trackers["sensor_quality"]
        assert quality.good_total + quality.bad_total > 0


class FlakyModel:
    """Candidate that fails on a fixed call schedule (deterministic)."""

    def __init__(self, inner, good_calls=frozenset({2})):
        self._inner = inner
        self._good = set(good_calls)
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, *args, **kwargs):
        index = self._calls
        self._calls += 1
        if index in self._good:
            return self._inner(*args, **kwargs)
        raise RuntimeError("injected candidate failure")


class TestCanarySLOGate:
    def make_pool(self, bundle):
        pool = EnginePool(registry=MetricRegistry())
        pool.add_tenant("alpha", bundle)
        return pool

    def warm_pool(self, pool, tenant="alpha", seed=0):
        runtime = pool.runtime(tenant)
        n, d = runtime.store.num_nodes, runtime.store.num_features
        rng = np.random.default_rng(seed)
        for step in range(runtime.store.input_length):
            pool.observe(tenant, step, rng.normal(60.0, 5.0, size=(n, d)))

    def gate_config(self):
        # Park the ratio check at 0.99 (its ceiling) so only the SLO
        # gate can fire; the flaky schedule keeps the observed failure
        # ratio below 1.0 once min_failure_samples events have landed.
        return CanaryConfig(
            bundle="candidate", stages=(1.0,), stage_requests=10_000,
            max_failure_ratio=0.99, min_failure_samples=3,
            slo_target=0.99, slo_fast_s=30.0, slo_slow_s=300.0,
            slo_burn_threshold=2.0,
        )

    def test_burning_candidate_rolls_back_with_slo_reason(self, bundle):
        pool = self.make_pool(bundle)
        with pool:
            self.warm_pool(pool)
            pool.start_canary("alpha", self.gate_config(), bundle=bundle,
                              model=FlakyModel(bundle.model))
            for _ in range(8):
                live = pool.forecast("alpha")
                assert live.degraded is None  # stable engine backstops
            canary = pool.runtime("alpha").canary
            assert canary.state == CANARY_ROLLED_BACK
            assert "SLO burn" in canary.reason
            assert "burn rate" in canary.reason
        # the gate, not the ratio check, made the call
        assert "failure ratio" not in canary.reason

    def test_rollback_lands_burn_series_and_snapshot(self, bundle):
        pool = self.make_pool(bundle)
        app = ServeApp(pool=pool, config=ServeConfig(slo_enabled=True))
        with pool:
            self.warm_pool(pool)
            pool.start_canary("alpha", self.gate_config(), bundle=bundle,
                              model=FlakyModel(bundle.model))
            for _ in range(8):
                pool.forecast("alpha")
            snapshots = pool.canary_slo_snapshots()
            assert snapshots["alpha"]["state"] == CANARY_ROLLED_BACK
            assert snapshots["alpha"]["slo"]["burn_events_total"] >= 1
            body = app.handle("GET", "/slo", None).body
            assert body["canaries"]["alpha"]["state"] == CANARY_ROLLED_BACK
            assert "SLO burn" in body["canaries"]["alpha"]["reason"]
            metrics = app.handle("GET", "/metrics", None).body.body
            assert ('repro_slo_burn_events_total'
                    '{slo="canary:alpha",tenant="alpha"} 1') in metrics
            assert ('repro_slo_burning'
                    '{slo="canary:alpha",tenant="alpha"} 1') in metrics

    def test_clean_candidate_passes_the_gate(self, bundle):
        pool = self.make_pool(bundle)
        config = CanaryConfig(
            bundle="candidate", stages=(1.0,), stage_requests=4,
            max_failure_ratio=0.99, min_failure_samples=3,
            slo_target=0.99, slo_burn_threshold=2.0,
        )
        with pool:
            self.warm_pool(pool)
            pool.start_canary("alpha", config, bundle=bundle)
            for _ in range(6):
                pool.forecast("alpha")
            assert pool.runtime("alpha").canary.state == "promoted"

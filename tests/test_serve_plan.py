"""Engine integration of traced execution plans (repro.serve.planner).

Covers the plan-cache state machine (compile -> validate -> ready),
transparent eager fallback, the exec-mode/plan metrics, the zero
allocation guarantees of the planned hot path, and the forecast LRU
cache key regression: keys must pin the bundle identity and the dtype
policy, not just ``(version, horizon)``.
"""

import hashlib

import numpy as np
import pytest

from repro.autodiff import Tensor, dtype_policy, inference_mode, trace
from repro.cli import _build_parser, _serve_config
from repro.codec import from_dict, to_dict
from repro.experiments import build_model
from repro.models import HGCNBlock
from repro.serve import ServeConfig, check_plan, export_bundle, load_bundle
from repro.serve.fleet import EnginePool
from repro.serve.planner import PlanRuntime
from repro.telemetry import MetricRegistry, Tracer


@pytest.fixture()
def served(tiny_ctx, tmp_path):
    model = build_model("GCN-LSTM-I", tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, "GCN-LSTM-I", tiny_ctx, base)
    bundle = load_bundle(base)
    _train_u, _val_u, test_u = tiny_ctx.corrupted.chronological_split()
    first_step = int(test_u.steps_of_day[0])
    store = bundle.make_store(start_step=first_step)
    for offset in range(bundle.input_length):
        store.observe(first_step + offset, test_u.data[offset], test_u.mask[offset])
    return bundle, store, test_u


def _drive(engine, store, test_u, rounds, start_offset=0):
    """Advance the store one step per round, forecasting each time."""
    first = int(test_u.steps_of_day[0])
    length = engine.model.input_length
    results = []
    for i in range(rounds):
        row = (length + start_offset + i) % test_u.data.shape[0]
        store.observe(
            first + length + start_offset + i, test_u.data[row], test_u.mask[row]
        )
        results.append(engine.forecast())
    return results


class TestPlannedServing:
    def test_planned_matches_eager_bitwise(self, served):
        """Compile, validate and replay answers all equal the eager path."""
        bundle, store, test_u = served
        planned = bundle.make_engine(
            store=store, registry=MetricRegistry(), cache_size=0
        )
        eager = bundle.make_engine(
            store=store, registry=MetricRegistry(), cache_size=0, plan=False
        )
        assert planned.planner is not None
        assert eager.planner is None
        for i in range(4):
            first = int(test_u.steps_of_day[0])
            row = (bundle.input_length + i) % test_u.data.shape[0]
            store.observe(
                first + bundle.input_length + i, test_u.data[row], test_u.mask[row]
            )
            a = planned.forecast().prediction
            b = eager.forecast().prediction
            np.testing.assert_array_equal(a, b)
        snapshot = planned.planner.snapshot()
        assert snapshot["supported"] and snapshot["ready"] == 1

    def test_exec_mode_metrics(self, served):
        bundle, store, test_u = served
        registry = MetricRegistry()
        engine = bundle.make_engine(store=store, registry=registry, cache_size=0)
        _drive(engine, store, test_u, rounds=4)
        counters = registry.snapshot()["counters"]
        assert counters['serve/engine_exec_mode{mode="traced"}'] == 1
        assert counters['serve/engine_exec_mode{mode="planned"}'] == 3
        assert counters["serve/plan_cache_misses"] == 1
        assert counters["serve/plan_cache_hits"] == 3
        compiled = registry.snapshot()["histograms"]["serve/plan_compile_seconds"]
        assert compiled["count"] == 1
        # The cold cost of a plan: the traced forward plus its lowering.
        (entry,) = engine.planner._entries.values()
        stats = entry.plan.stats
        assert stats.trace_seconds > 0 and stats.compile_seconds > 0
        assert compiled["sum"] == pytest.approx(stats.trace_seconds + stats.compile_seconds)

    def test_unsupported_model_stays_eager(self, served, monkeypatch):
        bundle, store, test_u = served
        monkeypatch.setattr(
            bundle.model, "plan_inputs", lambda *a, **k: None, raising=False
        )
        registry = MetricRegistry()
        engine = bundle.make_engine(store=store, registry=registry, cache_size=0)
        results = _drive(engine, store, test_u, rounds=2)
        assert all(np.all(np.isfinite(r.prediction)) for r in results)
        assert engine.planner.snapshot() == {
            "supported": False, "plans": 0, "ready": 0, "eager_keys": 0,
            "arena_bytes": 0,
        }
        counters = registry.snapshot()["counters"]
        assert counters['serve/engine_exec_mode{mode="eager"}'] == 2

    def test_plan_compile_span_emitted(self, served):
        bundle, store, test_u = served
        tracer = Tracer(sample_rate=1.0)
        engine = bundle.make_engine(
            store=store, registry=MetricRegistry(), tracer=tracer, cache_size=0
        )
        _drive(engine, store, test_u, rounds=1)
        names = {span.name for span in tracer.finished_spans()}
        assert "plan.compile" in names

    def test_reliability_snapshot_reports_plan_state(self, served):
        bundle, store, test_u = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        _drive(engine, store, test_u, rounds=1)
        snapshot = engine.reliability_snapshot()
        assert snapshot["plan"]["supported"] is True
        (entry,) = engine.planner._entries.values()
        assert snapshot["plan"]["arena_bytes"] == entry.plan.stats.arena_bytes > 0
        eager = bundle.make_engine(
            store=store, registry=MetricRegistry(), plan=False
        )
        assert eager.reliability_snapshot()["plan"] is None


class TestValidationFallback:
    def test_signature_miss_forces_fresh_compile(self):
        """A hidden data-dependent branch is caught by warm validation."""

        class Sneaky:
            def plan_inputs(self, x, m, steps_of_day):
                return {"x": np.asarray(x, dtype=np.float64)}, ()

            def plan_forward(self, x):
                # The (1, 1) comparison escapes via __bool__, so the
                # tracer bakes whichever branch the first request took.
                if np.sum(x, keepdims=True) > 0:  # invisible to the signature
                    return x * 2.0
                return x * -3.0

        registry = MetricRegistry()
        runtime = PlanRuntime(Sneaky(), registry, Tracer())
        ones = np.ones((2, 2))
        first = runtime.predict(ones, None, None)  # compiles, branch baked
        np.testing.assert_array_equal(first, ones * 2.0)
        # Validation replays against the eager forward on the *other*
        # branch and must detect the divergence, not serve 2x.
        second = runtime.predict(-ones, None, None)
        np.testing.assert_array_equal(second, ones * 3.0)
        assert runtime.snapshot()["eager_keys"] == 1
        counters = registry.snapshot()["counters"]
        assert counters["serve/plan_fallbacks"] == 1
        # The key is parked on eager permanently.
        assert runtime.predict(-ones, None, None) is None

    def test_honest_model_promotes_to_ready(self):
        class Honest:
            def plan_inputs(self, x, m, steps_of_day):
                return {"x": np.asarray(x, dtype=np.float64)}, ()

            def plan_forward(self, x):
                return np.tanh(x) + 1.0

        runtime = PlanRuntime(Honest(), MetricRegistry(), Tracer())
        rng = np.random.default_rng(0)
        for state in ("validate", "ready", "ready"):
            value = rng.standard_normal((3, 3))
            out = runtime.predict(value, None, None)
            np.testing.assert_array_equal(out, np.tanh(value) + 1.0)
            entry = next(iter(runtime._entries.values()))
            assert entry.state == state


class TestPlanEviction:
    class Keyed:
        """Plans keyed by the first entry of ``x``: one key per value."""

        def plan_inputs(self, x, m, steps_of_day):
            return {"x": np.asarray(x, dtype=np.float64)}, (float(x.flat[0]),)

        def plan_forward(self, x):
            return np.tanh(x) + 1.0

    def test_evicts_the_least_recently_used_key(self):
        registry = MetricRegistry()
        runtime = PlanRuntime(self.Keyed(), registry, Tracer(), max_plans=2)
        a, b, c = (np.full((2, 2), value) for value in (1.0, 2.0, 3.0))

        def misses() -> float:
            return registry.snapshot()["counters"]["serve/plan_cache_misses"]

        for value in (a, a, b):  # A: compile, validate; B: compile
            runtime.predict(value, None, None)
        runtime.predict(a, None, None)  # A replays: now the most recent
        assert misses() == 2
        runtime.predict(c, None, None)  # evicts B, not A
        assert misses() == 3
        ((a_key, a_entry), (c_key, _)) = runtime._entries.items()
        assert a_key[1] == (1.0,) and c_key[1] == (3.0,)
        assert a_entry.state == "ready"
        np.testing.assert_array_equal(
            runtime.predict(a, None, None), np.tanh(a) + 1.0)
        assert misses() == 3


class TestCompileFailure:
    class Broken:
        """A keyed model whose traced forward raises an ordinary error."""

        def __init__(self):
            self.traces = 0

        def plan_inputs(self, x, m, steps_of_day):
            return {"x": np.asarray(x, dtype=np.float64)}, (float(x.flat[0]),)

        def plan_forward(self, x):
            self.traces += 1
            raise ValueError("cannot plan this forward")

    def test_failed_trace_parks_the_key_on_eager(self):
        model = self.Broken()
        registry = MetricRegistry()
        tracer = Tracer(sample_rate=1.0)
        runtime = PlanRuntime(model, registry, tracer)
        value = np.ones((2, 2))
        for _ in range(4):
            assert runtime.predict(value, None, None) is None
        assert model.traces == 1  # traced once, never retried
        counters = registry.snapshot()["counters"]
        assert counters["serve/plan_fallbacks"] == 1
        assert counters["serve/plan_cache_misses"] == 1
        assert counters['serve/engine_exec_mode{mode="eager"}'] == 4
        assert runtime.snapshot()["eager_keys"] == 1
        (span,) = [s for s in tracer.finished_spans() if s.name == "plan.compile"]
        assert span.status == "error"
        assert span.attributes["error"] == "ValueError: cannot plan this forward"


@pytest.fixture()
def rihgcn_bundle(tiny_ctx, tmp_path):
    base = str(tmp_path / "rihgcn")
    export_bundle(build_model("RIHGCN", tiny_ctx), "RIHGCN", tiny_ctx, base)
    return load_bundle(base)


def _window(model, start, steps_per_day, rng, batch=1):
    """``(x, m, steps_of_day)`` of random windows starting at ``start``."""
    shape = (batch, model.input_length, model.num_nodes, model.num_features)
    steps = (start + np.arange(model.input_length)) % steps_per_day
    m = (rng.random(shape) >= 0.2).astype(np.float64)
    x = rng.standard_normal(shape) * m
    return x, m, np.broadcast_to(steps, (batch, model.input_length))


def _window_inputs(model, start, steps_per_day, rng):
    """Plan inputs for one random window whose first step is ``start``."""
    return model.plan_inputs(*_window(model, start, steps_per_day, rng))


def _per_step_skip(monkeypatch):
    """Make HGCN skip, per step, the temporal graphs that step weights 0."""

    def bind(self):
        def step(x, weights):
            out = self.geo_conv(x)
            for idx, conv in enumerate(self.temporal_convs):
                if np.asarray(weights)[..., idx].any():  # invisible to a trace
                    out = out + conv(x) * Tensor(weights[..., idx][..., None, None])
            return out.relu()

        return step

    monkeypatch.setattr(HGCNBlock, "bind", bind)


class TestIntervalBoundaries:
    """One RIHGCN plan serves every window of the day.

    HGCN runs every temporal graph at every step and scales it by its
    interval weight, so where an interval boundary falls in a window is
    data, not control flow: the plan signature is ``()`` and a plan
    compiled on any window replays exactly on all the others.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_plan_serves_the_whole_day(self, tiny_ctx, dtype):
        spd = tiny_ctx.data_config.steps_per_day
        rng = np.random.default_rng(0)
        registry = MetricRegistry()
        with dtype_policy(dtype):
            model = build_model("RIHGCN", tiny_ctx)
            runtime = PlanRuntime(model, registry, Tracer())
            for start in range(spd):
                x, m, steps = _window(model, start, spd, rng)
                served = runtime.predict(x, m, steps)
                with inference_mode():
                    eager = model.plan_forward(**model.plan_inputs(x, m, steps)[0])
                assert served.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(served, eager, err_msg=str(start))
        counters = registry.snapshot()["counters"]
        assert counters["serve/plan_cache_misses"] == 1
        assert counters["serve/plan_cache_hits"] == spd - 1
        assert counters.get("serve/plan_fallbacks", 0) == 0
        assert runtime.snapshot()["plans"] == runtime.snapshot()["ready"] == 1

    def test_warm_day_serves_every_forecast_planned(self, rihgcn_bundle):
        bundle = rihgcn_bundle
        spd = bundle.data_config.steps_per_day
        registry = MetricRegistry()
        store = bundle.make_store(start_step=0)
        engine = bundle.make_engine(store=store, registry=registry, cache_size=0)
        eager = bundle.make_engine(store=store, registry=MetricRegistry(), plan=False)
        rng = np.random.default_rng(2)
        shape = (bundle.num_nodes, bundle.num_features)
        for step in range(spd + bundle.input_length):
            store.observe(step, rng.standard_normal(shape) + 50.0)
            if step + 1 >= bundle.input_length:
                np.testing.assert_array_equal(
                    engine.forecast().prediction, eager.forecast().prediction
                )
        counters = registry.snapshot()["counters"]
        assert counters["serve/plan_cache_misses"] == 1
        assert counters.get("serve/plan_fallbacks", 0) == 0
        assert counters.get('serve/engine_exec_mode{mode="eager"}', 0) == 0

    def test_check_plan_verifies_every_signature(self, rihgcn_bundle):
        result = check_plan(rihgcn_bundle, seed=3)
        assert result["compiled"] and result["verified"] is True, result["reason"]
        assert result["signature"] == () and result["plans"] == 1
        assert result["max_abs_diff"] == 0.0
        # One plan: the sums are that plan's own cold cost.
        assert result["compile_seconds"] == result["stats"]["compile_seconds"] > 0
        assert result["trace_seconds"] == result["stats"]["trace_seconds"] > 0
        unverified = check_plan(rihgcn_bundle, seed=3, verify=False)
        assert unverified["plans"] == 1
        assert unverified["compile_seconds"] == unverified["stats"]["compile_seconds"]
        assert unverified["trace_seconds"] == unverified["stats"]["trace_seconds"]

    def test_check_plan_names_a_position_dependent_signature(
        self, rihgcn_bundle, monkeypatch
    ):
        _per_step_skip(monkeypatch)
        result = check_plan(rihgcn_bundle, seed=3)
        assert result["compiled"] and result["verified"] is False
        assert "signature ()" in result["reason"]
        assert result["max_abs_diff"] > 0


class TestArenaLayout:
    """The seeded tiny RIHGCN's one plan keeps its arena (float32 policy).

    Which freed buffer a later step reuses depends on the order buffers
    return to the pool. ``PlanStats`` alone does not see that order, so
    ``LAYOUT`` also pins a digest of the arena buffer every replay step
    writes, numbered in order of first write.
    """

    LAYOUT = {(): "7da1f3b32da5a134"}
    PINNED = {
        (): dict(steps=197, view_steps=118, inplace_steps=12,
                 buffers=34, arena_bytes=21160, naive_bytes=103472),
    }

    @staticmethod
    def _layout(plan) -> str:
        numbers: dict[int, int] = {}
        writes = []
        for fn, args, kwargs in plan._steps:
            # A ufunc call takes its buffer as its last positional argument;
            # a step without ``out`` is a copy step holding it as ``_out``.
            if isinstance(fn, np.ufunc):
                out = args[-1]
            else:
                out = kwargs["out"] if "out" in kwargs else fn.__defaults__[0]
            writes.append(numbers.setdefault(id(out), len(numbers)))
        return hashlib.sha256(str(writes).encode()).hexdigest()[:16]

    def test_rihgcn_plan_stats_are_pinned(self, tiny_ctx):
        spd = tiny_ctx.data_config.steps_per_day
        rng = np.random.default_rng(0)
        with dtype_policy(np.float32):
            model = build_model("RIHGCN", tiny_ctx)
            plans = {}
            for start in range(spd):
                inputs, signature = _window_inputs(model, start, spd, rng)
                if signature not in plans:
                    plans[signature] = trace(model.plan_forward, inputs)[0]
        assert set(plans) == set(self.PINNED)
        for signature, pinned in self.PINNED.items():
            got = {key: getattr(plans[signature].stats, key) for key in pinned}
            assert got == pinned, signature
            assert self._layout(plans[signature]) == self.LAYOUT[signature], signature


class TestSharedArena:
    """One engine's plans share one arena and stay bitwise-equal to eager."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_interleaved_replays_match_eager(self, tiny_ctx, dtype):
        spd = tiny_ctx.data_config.steps_per_day
        rng = np.random.default_rng(4)
        with dtype_policy(dtype):
            model = build_model("RIHGCN", tiny_ctx)
            runtime = PlanRuntime(model, MetricRegistry(), Tracer())
            # One plan per batch shape: batches of 1, 2 and 3 windows.
            batches = (1, 2, 3)
            # Compile, validate and replay each shape in turn (1, 2, 3, 1,
            # 2, 3, ...): every plan overwrites the buffers of the others.
            for round_ in range(4):
                for batch in batches:
                    start = int(rng.integers(0, spd))
                    x, m, steps = _window(model, start, spd, rng, batch=batch)
                    replayed = runtime.predict(x, m, steps)
                    with inference_mode():
                        eager = model.plan_forward(**model.plan_inputs(x, m, steps)[0])
                    assert replayed.dtype == np.dtype(dtype)
                    np.testing.assert_array_equal(replayed, eager, err_msg=str(batch))
            snapshot = runtime.snapshot()
        assert snapshot["ready"] == len(batches) and snapshot["eager_keys"] == 0
        # Buffers pool by shape, so plans of different batch shapes share
        # none (same-shape sharing is pinned in test_autodiff_plan).
        arenas = [entry.plan.stats.arena_bytes for entry in runtime._entries.values()]
        assert max(arenas) <= snapshot["arena_bytes"] <= sum(arenas)
        assert {id(entry.plan.arena) for entry in runtime._entries.values()} == {
            id(runtime.arena)}

    def test_check_plan_reports_one_arena_for_the_day(self, rihgcn_bundle):
        result = check_plan(rihgcn_bundle, seed=3)
        assert result["verified"] is True, result["reason"]
        assert result["plans"] == 1
        model = rihgcn_bundle.model
        spd = rihgcn_bundle.data_config.steps_per_day
        rng = np.random.default_rng(0)
        plan, _ = trace(model.plan_forward, _window_inputs(model, 0, spd, rng)[0])
        # The day's one plan owns the whole arena.
        assert result["arena_bytes"] == plan.stats.arena_bytes
        unverified = check_plan(rihgcn_bundle, seed=3, verify=False)
        assert unverified["arena_bytes"] == unverified["stats"]["arena_bytes"]


class TestCacheKeyRegression:
    """Satellite: forecast LRU keys pin bundle identity and dtype policy."""

    def test_make_engine_seeds_cache_token_from_fingerprint(self, served):
        bundle, store, _ = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        assert engine.cache_token == bundle.fingerprint

    def test_cache_token_change_misses(self, served):
        bundle, store, test_u = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        _drive(engine, store, test_u, rounds=1)
        assert engine.forecast().cached
        # Simulate a hot-swap to different weights: same state version,
        # different bundle identity, must not serve the old numbers.
        engine.cache_token = "deadbeef"
        assert not engine.forecast().cached

    def test_dtype_policy_in_cache_key(self, served):
        bundle, store, _ = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        key32 = engine._cache_key(7, 3)
        with dtype_policy(np.float64):
            key64 = engine._cache_key(7, 3)
        assert key32 != key64
        assert key32 == engine._cache_key(7, 3)

    def test_distinct_bundles_never_alias(self, served, tiny_ctx, tmp_path):
        """Same store version, two bundle versions -> two cache entries."""
        bundle, store, test_u = served
        other_model = build_model("GCN-LSTM-I", tiny_ctx)
        base = str(tmp_path / "bundle-v2")
        export_bundle(other_model, "GCN-LSTM-I", tiny_ctx, base)
        other = load_bundle(base)
        assert other.fingerprint != bundle.fingerprint
        engine_a = bundle.make_engine(store=store, registry=MetricRegistry())
        engine_b = other.make_engine(store=store, registry=MetricRegistry())
        assert engine_a._cache_key(1, 3) != engine_b._cache_key(1, 3)


class TestZeroAllocation:
    """Satellite: no gradient closures under no_grad, no Tensors in replay."""

    def test_no_grad_forward_allocates_no_closures(self, served, monkeypatch):
        bundle, store, _ = served
        window = store.window()
        x = bundle.scaler.transform(window.x[None], window.m[None])
        calls = []
        original = Tensor._make

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        with inference_mode():
            bundle.model(x, window.m[None], window.steps_of_day[None])
        assert calls == []

    def test_planned_forward_allocates_no_tensors(self, served, monkeypatch):
        bundle, store, test_u = served
        engine = bundle.make_engine(
            store=store, registry=MetricRegistry(), cache_size=0
        )
        _drive(engine, store, test_u, rounds=2)  # reach "ready"

        def boom(*args, **kwargs):
            raise AssertionError("Tensor allocated during plan replay")

        monkeypatch.setattr(Tensor, "__init__", boom)
        monkeypatch.setattr(Tensor, "_wrap", staticmethod(boom))
        monkeypatch.setattr(Tensor, "_make", staticmethod(boom))
        result = _drive(engine, store, test_u, rounds=1, start_offset=2)[0]
        assert np.all(np.isfinite(result.prediction))


class TestConfigPlumbing:
    def test_serve_config_round_trip(self):
        config = ServeConfig(plan_enabled=False)
        payload = to_dict(config)
        assert payload["plan_enabled"] is False
        assert from_dict(ServeConfig, payload) == config

    def test_from_args_no_plan(self):
        args = _build_parser().parse_args(["serve", "--bundle", "B", "--no-plan"])
        assert _serve_config(args).plan_enabled is False

    def test_pool_wires_plan_and_fingerprint(self, served):
        bundle, _store, _ = served
        pool = EnginePool(registry=MetricRegistry())
        runtime = pool.add_tenant("alpha", bundle)
        assert runtime.engine.planner is not None
        assert runtime.engine.cache_token == bundle.fingerprint
        runtime_off = pool.add_tenant(
            "beta", bundle, config=ServeConfig(plan_enabled=False)
        )
        assert runtime_off.engine.planner is None

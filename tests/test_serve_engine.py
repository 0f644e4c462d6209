"""Tests for the forecast engine and LRU cache (repro.serve)."""

import gc
import inspect
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.experiments import build_model, default_trainer_config
from repro.serve import (
    ForecastEngine,
    LRUCache,
    ServeApp,
    ServeConfig,
    StateStore,
    export_bundle,
    load_bundle,
)
from repro.serve.engine import Forecast, _Request
from repro.serve.http import EncodedJSON
from repro.telemetry import MetricRegistry
from repro.training import Trainer


@pytest.fixture()
def served(tiny_ctx, tmp_path):
    """A loaded bundle plus a store primed with the first raw test window."""
    model = build_model("GCN-LSTM-I", tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, "GCN-LSTM-I", tiny_ctx, base)
    bundle = load_bundle(base)

    _train_u, _val_u, test_u = tiny_ctx.corrupted.chronological_split()
    length = bundle.input_length
    # Absolute steps chosen so the store's time-of-day phase matches the
    # offline split's steps_of_day for the same rows.
    first_step = int(test_u.steps_of_day[0])
    store = bundle.make_store(start_step=first_step)
    for offset in range(length):
        store.observe(first_step + offset, test_u.data[offset], test_u.mask[offset])
    return bundle, store, test_u


class TestOfflineParity:
    def test_forecast_matches_trainer_predict(self, served, tiny_ctx):
        """The acceptance bar: serving path == Trainer.predict path ≤ 1e-6.

        The engine consumes raw units from the store and returns original
        units; the offline path consumes pre-scaled windows and predicts
        in scaled units. Inverse-transforming the offline prediction must
        land on the same numbers.
        """
        bundle, store, _test_u = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        online = engine.forecast().prediction

        trainer = Trainer(bundle.model, default_trainer_config(max_epochs=1))
        offline_scaled = trainer.predict(tiny_ctx.test_windows)[0]
        offline = tiny_ctx.scaler.inverse_transform(offline_scaled)
        np.testing.assert_allclose(online, offline, atol=1e-6)

    def test_window_reproduces_offline_inputs(self, served, tiny_ctx):
        """Raw store + bundle scaler rebuild the offline scaled window."""
        bundle, store, _test_u = served
        window = store.window()
        scaled = bundle.scaler.transform(window.x, window.m)
        np.testing.assert_allclose(scaled, tiny_ctx.test_windows.x[0], atol=1e-12)
        np.testing.assert_allclose(window.m, tiny_ctx.test_windows.m[0])
        np.testing.assert_array_equal(
            window.steps_of_day, tiny_ctx.test_windows.steps_of_day[0]
        )


class TestEngine:
    def test_horizon_validation(self, served):
        bundle, store, _ = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        with pytest.raises(ValueError, match="horizon"):
            engine.forecast(horizon=bundle.output_length + 1)
        with pytest.raises(ValueError, match="horizon"):
            engine.forecast(horizon=0)

    def test_store_model_length_mismatch_rejected(self, served):
        bundle, _store, _ = served
        wrong = StateStore(
            num_nodes=bundle.num_nodes,
            num_features=bundle.num_features,
            input_length=bundle.input_length + 1,
        )
        with pytest.raises(ValueError, match="window length"):
            bundle.make_engine(store=wrong)

    def test_horizon_slices_full_forecast(self, served):
        bundle, store, _ = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        full = engine.forecast().prediction
        short = engine.forecast(horizon=1).prediction
        assert short.shape[0] == 1
        np.testing.assert_allclose(short, full[:1])

    def test_repeat_request_hits_cache(self, served):
        bundle, store, _ = served
        registry = MetricRegistry()
        engine = bundle.make_engine(store=store, registry=registry)
        first = engine.forecast()
        second = engine.forecast()
        assert not first.cached and second.cached
        np.testing.assert_array_equal(first.prediction, second.prediction)
        assert registry.counter("serve/forwards").value == 1

    def test_new_observation_invalidates_cache(self, served):
        bundle, store, test_u = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        first = engine.forecast()
        step = store.newest_step + 1
        store.observe(step, test_u.data[bundle.input_length], test_u.mask[bundle.input_length])
        second = engine.forecast()
        assert not second.cached
        assert second.version > first.version

    def test_batched_path_matches_inline(self, served):
        bundle, store, _ = served
        inline = bundle.make_engine(
            store=store, cache_size=0, registry=MetricRegistry()
        ).forecast()
        with bundle.make_engine(
            store=store, cache_size=0, registry=MetricRegistry()
        ) as engine:
            batched = engine.forecast()
        np.testing.assert_allclose(batched.prediction, inline.prediction, atol=1e-12)

    def test_identical_versions_share_one_forward(self, served):
        """Version-dedup: a fused batch of equal snapshots runs one row."""
        bundle, store, _ = served
        registry = MetricRegistry()
        engine = bundle.make_engine(store=store, cache_size=0, registry=registry)
        window = store.window()
        batch = [_Request(window, bundle.output_length, 0.0) for _ in range(4)]
        results = engine._answer(batch)
        assert len(results) == 4
        for result in results[1:]:
            np.testing.assert_array_equal(result.prediction, results[0].prediction)
        assert registry.counter("serve/forwards").value == 1
        assert registry.histogram("serve/batch_size").max == 4

    def test_concurrent_requests_all_answered(self, served):
        bundle, store, test_u = served
        engine = bundle.make_engine(
            store=store, max_batch_size=4, max_wait_s=0.01, registry=MetricRegistry()
        )
        results = []
        errors = []

        def client(idx):
            try:
                step = store.newest_step + 1
                store.observe(step, test_u.data[idx % len(test_u.data)])
                results.append(engine.forecast())
            except Exception as error:  # surfaced below
                errors.append(error)

        with engine:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(results) == 8
        for result in results:
            assert result.prediction.shape == (
                bundle.output_length, bundle.num_nodes, bundle.num_features
            )
            assert np.isfinite(result.prediction).all()

    def test_stop_is_idempotent_and_restartable(self, served):
        bundle, store, _ = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        engine.start()
        assert engine.running
        engine.stop()
        engine.stop()
        assert not engine.running
        engine.start()
        assert engine.forecast().prediction.shape[0] == bundle.output_length
        engine.stop()


class TestDispatcher:
    """Work-conserving batching: no hold on an idle engine."""

    def test_max_wait_defaults_to_zero(self, served):
        bundle, store, _ = served
        assert ServeConfig().max_wait_s == 0
        default = inspect.signature(ForecastEngine).parameters["max_wait_s"].default
        assert default == 0
        assert bundle.make_engine(store=store, registry=MetricRegistry()).max_wait_s == 0

    def test_already_queued_requests_fuse_into_one_batch(self, served):
        bundle, store, _ = served
        registry = MetricRegistry()
        engine = bundle.make_engine(store=store, cache_size=0, registry=registry)
        window = store.window()
        requests = [_Request(window, bundle.output_length, 0.0) for _ in range(5)]
        for request in requests:
            engine._queue.put_nowait(request)
        with engine:
            results = [request.future.result(timeout=30) for request in requests]
        assert len(results) == 5
        assert registry.counter("serve/batches").value == 1
        sizes = registry.histogram("serve/batch_size")
        assert sizes.count == 1 and sizes.max == 5

    def test_lone_request_never_waits_on_a_timed_get(self, served):
        bundle, store, _ = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        calls = []
        real_get = engine._queue.get

        def spy(block=True, timeout=None):
            calls.append((block, timeout))
            return real_get(block=block, timeout=timeout)

        engine._queue.get = spy
        with engine:
            engine.forecast()
        assert (False, None) in calls  # looked for followers without waiting
        assert all(timeout is None for _block, timeout in calls)


class TestHitPath:
    """A hit is one lookup: no window snapshot, and bytes encoded once."""

    @staticmethod
    def _count_windows(store):
        calls = []
        window = store.window

        def spy():
            calls.append(1)
            return window()

        store.window = spy
        return calls

    def test_a_hit_takes_no_window_snapshot(self, served):
        bundle, store, _ = served
        engine = bundle.make_engine(store=store, registry=MetricRegistry())
        windows = self._count_windows(store)
        assert not engine.forecast().cached
        assert len(windows) == 1
        for _ in range(3):
            assert engine.forecast().cached
        assert len(windows) == 1

    def test_an_entry_encodes_its_body_on_its_first_hit(self, served, monkeypatch):
        bundle, store, _ = served
        app = ServeApp(bundle, store=store, registry=MetricRegistry())
        key = app.engine._cache_key(store.version, 1)
        miss = app.handle("GET", "/forecast?horizon=1", None)
        entry = app.engine.cache.get(key)
        assert not miss.body["cached"] and entry.cached
        assert "encoded" not in vars(entry)  # never hit: no bytes held

        encodes = []
        to_json_dict = Forecast.to_json_dict

        def spy(forecast):
            encodes.append(forecast)
            return to_json_dict(forecast)

        monkeypatch.setattr(Forecast, "to_json_dict", spy)
        hits = [app.handle("GET", "/forecast?horizon=1", None) for _ in range(3)]
        assert encodes == [entry]
        for hit in hits:
            assert isinstance(hit.body, EncodedJSON)
            assert hit.body.body is entry.encoded
            assert hit.body["cached"] and hit.body == {**miss.body, "cached": True}

    def test_concurrent_first_hits_send_one_body(self, served):
        bundle, store, _ = served
        app = ServeApp(bundle, store=store, registry=MetricRegistry())
        app.handle("GET", "/forecast", None)  # the miss fills the entry
        entry = app.engine.cache.get(app.engine._cache_key(store.version,
                                                           bundle.output_length))
        expected = json.dumps(entry.to_json_dict()).encode()
        bodies, start = [], threading.Barrier(8)

        def client():
            start.wait(timeout=10)
            for _ in range(20):
                bodies.append(app.handle("GET", "/forecast", None).body.body)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(bodies) == 160
        assert all(body == expected for body in bodies)
        assert entry.encoded == expected

    def test_eviction_frees_the_entry_and_its_bytes(self, served):
        bundle, store, _ = served
        app = ServeApp(bundle, store=store, registry=MetricRegistry(),
                       config=ServeConfig(cache_size=2))
        cache = app.engine.cache
        app.handle("GET", "/forecast?horizon=1", None)
        app.handle("GET", "/forecast?horizon=1", None)
        entry = weakref.ref(cache.get(app.engine._cache_key(store.version, 1)))
        assert "encoded" in vars(entry())
        for horizon in range(2, bundle.output_length + 1):
            for _ in range(2):
                app.handle("GET", f"/forecast?horizon={horizon}", None)
        gc.collect()
        assert entry() is None
        assert len(cache) == 2
        assert all("encoded" in vars(e) for e in cache._data.values())


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_clear(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and cache.get("a") is None

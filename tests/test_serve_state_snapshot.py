"""StateStore snapshot/restore: the shard-failover state primitive.

Round-trip fidelity (values, masks, recency, counters), dtype-policy
casting across processes with different ``REPRO_DTYPE``, out-of-order
replay *after* a restore (late observations for retained steps must
merge, evicted steps must drop), and version monotonicity (a restore
invalidates every forecast-cache entry keyed on older state).
"""

import numpy as np
import pytest

from repro.autodiff import dtype_policy
from repro.errors import StateError
from repro.serve import StateStore
from repro.telemetry import MetricRegistry


def make_store(**overrides) -> StateStore:
    kwargs = dict(num_nodes=4, num_features=2, input_length=6,
                  steps_per_day=24, registry=MetricRegistry())
    kwargs.update(overrides)
    return StateStore(**kwargs)


def fill(store: StateStore, steps, seed=0) -> None:
    rng = np.random.default_rng(seed)
    for step in steps:
        store.observe(step, rng.normal(60.0, 5.0, size=(4, 2)))


class TestRoundTrip:
    def test_window_identical_after_restore(self):
        src = make_store()
        fill(src, range(10))
        src.observe_sensor(10, 2, [1.5, 2.5])  # partial newest slot
        payload = src.snapshot()

        dst = make_store()
        dst.restore(payload)
        a, b = src.window(), dst.window()
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.m, b.m)
        assert a.newest_step == b.newest_step == 10
        assert dst.warm == src.warm

    def test_counters_and_recency_travel(self):
        src = make_store()
        fill(src, range(8))
        src.observe(0, np.zeros((4, 2)))  # stale -> dropped and counted
        payload = src.snapshot()
        dst = make_store()
        dst.restore(payload)
        assert dst.observations == src.observations
        assert dst.stale_dropped == src.stale_dropped
        np.testing.assert_array_equal(dst.sensor_lag(), src.sensor_lag())
        assert dst.sensor_summary()["last_seen_step"] == (
            src.sensor_summary()["last_seen_step"]
        )

    def test_payload_is_json_ready(self):
        import json

        src = make_store()
        fill(src, range(7))
        text = json.dumps(src.snapshot())
        dst = make_store()
        dst.restore(json.loads(text))
        np.testing.assert_array_equal(dst.window().x, src.window().x)


class TestDtypePolicy:
    def test_float64_snapshot_restores_into_float32_store(self):
        with dtype_policy("float64"):
            src = make_store()
            fill(src, range(9))
            payload = src.snapshot()
            assert payload["dtype"] == "float64"
        with dtype_policy("float32"):
            dst = make_store()
            dst.restore(payload)
            window = dst.window()
            assert window.x.dtype == np.float32
        with dtype_policy("float64"):
            np.testing.assert_allclose(
                window.x, src.window().x.astype(np.float32)
            )

    def test_float32_snapshot_restores_into_float64_store(self):
        with dtype_policy("float32"):
            src = make_store()
            fill(src, range(9))
            payload = src.snapshot()
        with dtype_policy("float64"):
            dst = make_store()
            dst.restore(payload)
            assert dst.window().x.dtype == np.float64
            assert dst.newest_step == 8


class TestOutOfOrderReplayAfterRestore:
    def test_late_observation_for_retained_step_merges(self):
        src = make_store()
        fill(src, range(10))
        dst = make_store()
        dst.restore(src.snapshot())
        # step 7 is inside the restored window (newest 9, L=6 -> slots
        # 4..9); a late per-sensor reading must merge into that slot.
        assert dst.observe_sensor(7, 1, [9.0, 9.5])
        window = dst.window()
        slot = 7 - (window.newest_step - window.input_length + 1)
        np.testing.assert_array_equal(window.x[slot, 1], [9.0, 9.5])
        assert window.m[slot, 1].all()

    def test_evicted_step_still_drops_after_restore(self):
        src = make_store()
        fill(src, range(10))
        dst = make_store()
        dst.restore(src.snapshot())
        before = dst.stale_dropped
        assert not dst.observe(2, np.ones((4, 2)))  # newest 9 - L 6 >= 2
        assert dst.stale_dropped == before + 1

    def test_duplicate_redelivery_stays_idempotent(self):
        src = make_store()
        rng = np.random.default_rng(3)
        reading = rng.normal(size=(4, 2))
        fill(src, range(9))
        src.observe(9, reading)
        dst = make_store()
        dst.restore(src.snapshot())
        version = dst.version
        assert dst.observe(9, reading)  # exact re-delivery
        assert dst.version == version
        assert dst.duplicates == src.duplicates + 1


class TestValidation:
    def test_rejects_unknown_format_version(self):
        src = make_store()
        fill(src, range(6))
        payload = src.snapshot()
        payload["format_version"] = 99
        with pytest.raises(StateError, match="format"):
            make_store().restore(payload)

    @pytest.mark.parametrize("field,value", [
        ("num_nodes", 5),
        ("num_features", 1),
        ("input_length", 4),
        ("steps_per_day", 288),
    ])
    def test_rejects_dimension_mismatch(self, field, value):
        src = make_store()
        fill(src, range(6))
        payload = src.snapshot()
        payload[field] = value
        with pytest.raises(StateError, match=field):
            make_store().restore(payload)

    def test_rejects_corrupt_arrays(self):
        src = make_store()
        fill(src, range(6))
        payload = src.snapshot()
        payload["values"] = payload["values"][:-1]
        with pytest.raises(StateError, match="snapshot arrays"):
            make_store().restore(payload)


class TestVersioning:
    def test_restore_version_exceeds_both_sides(self):
        src = make_store()
        fill(src, range(12))  # src version 12
        dst = make_store()
        fill(dst, range(3))  # dst version 3
        payload = src.snapshot()
        dst.restore(payload)
        assert dst.version > payload["version"]
        assert dst.version > 3

    def test_restore_into_older_store_still_bumps(self):
        src = make_store()
        fill(src, range(3))
        dst = make_store()
        fill(dst, range(12))
        dst_version = dst.version
        dst.restore(src.snapshot())
        assert dst.version > dst_version

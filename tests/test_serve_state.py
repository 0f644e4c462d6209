"""Tests for the streaming state store (repro.serve.state)."""

import numpy as np
import pytest

from repro.errors import StateError
from repro.serve import StateStore


def make_store(n=3, d=2, length=4, **kwargs):
    return StateStore(num_nodes=n, num_features=d, input_length=length, **kwargs)


def full_reading(store, value):
    return np.full((store.num_nodes, store.num_features), float(value))


class TestObserve:
    def test_accepts_and_versions(self):
        store = make_store()
        assert store.version == 0
        assert store.observe(0, full_reading(store, 1.0))
        assert store.version == 1
        assert store.newest_step == 0

    def test_window_orders_chronologically(self):
        store = make_store(length=3)
        for t in range(5):
            store.observe(t, full_reading(store, t))
        window = store.window()
        assert window.newest_step == 4
        np.testing.assert_allclose(window.x[:, 0, 0], [2.0, 3.0, 4.0])
        np.testing.assert_allclose(window.m, 1.0)

    def test_shape_validation(self):
        store = make_store(n=3, d=2)
        with pytest.raises(StateError, match="values must be"):
            store.observe(0, np.zeros((2, 2)))
        with pytest.raises(StateError, match="mask shape"):
            store.observe(0, np.zeros((3, 2)), mask=np.zeros((3, 1)))

    def test_partial_readings_merge(self):
        store = make_store(n=2, d=1, length=2)
        first = np.array([[5.0], [0.0]])
        store.observe(3, first, mask=np.array([[1.0], [0.0]]))
        second = np.array([[0.0], [7.0]])
        store.observe(3, second, mask=np.array([[0.0], [1.0]]))
        window = store.window()
        np.testing.assert_allclose(window.x[-1], [[5.0], [7.0]])
        np.testing.assert_allclose(window.m[-1], 1.0)


class TestOutOfOrder:
    def test_late_arrival_within_window_lands(self):
        store = make_store(length=4)
        store.observe(5, full_reading(store, 5.0))
        # Step 3 is still inside the 4-slot window [2, 5].
        assert store.observe(3, full_reading(store, 3.0))
        window = store.window()
        np.testing.assert_allclose(window.x[1, 0, 0], 3.0)
        assert window.m[1].all() and not window.m[0].any()

    def test_stale_arrival_dropped_and_counted(self):
        store = make_store(length=4)
        store.observe(10, full_reading(store, 1.0))
        assert not store.observe(6, full_reading(store, 9.0))
        assert store.stale_dropped == 1
        # The drop must not corrupt the window or bump the version.
        assert store.version == 1
        assert not store.window().m[:-1].any()

    def test_boundary_step_is_exactly_retained(self):
        store = make_store(length=4)
        store.observe(10, full_reading(store, 1.0))
        assert store.observe(7, full_reading(store, 2.0))  # oldest live slot
        assert not store.observe(6, full_reading(store, 3.0))  # just evicted


class TestMissingness:
    def test_unobserved_slots_are_zero_masked(self):
        """Gaps look exactly like offline corruption: value 0, mask 0."""
        store = make_store(length=4)
        store.observe(0, full_reading(store, 9.0))
        store.observe(3, full_reading(store, 9.0))  # steps 1-2 skipped
        window = store.window()
        np.testing.assert_allclose(window.x[1:3], 0.0)
        np.testing.assert_allclose(window.m[1:3], 0.0)

    def test_fully_missing_sensor(self):
        """A sensor that never reports stays missing across the window."""
        store = make_store(n=3, d=1, length=3)
        mask = np.array([[1.0], [1.0], [0.0]])  # sensor 2 silent
        for t in range(3):
            store.observe(t, full_reading(store, 4.0), mask=mask)
        window = store.window()
        np.testing.assert_allclose(window.m[:, 2], 0.0)
        np.testing.assert_allclose(window.x[:, 2], 0.0)
        np.testing.assert_allclose(window.m[:, :2], 1.0)

    def test_reused_ring_slot_is_cleared(self):
        """Values from an evicted step must not leak into its ring slot."""
        store = make_store(n=1, d=1, length=2)
        store.observe(0, full_reading(store, 111.0))
        store.observe(1, full_reading(store, 1.0))
        store.observe(3, full_reading(store, 3.0))  # step 2 skipped; slot 0 reused
        window = store.window()
        np.testing.assert_allclose(window.x[:, 0, 0], [0.0, 3.0])
        np.testing.assert_allclose(window.m[:, 0, 0], [0.0, 1.0])


class TestColdStart:
    def test_cold_store_serves_masked_window(self):
        store = make_store(length=4, start_step=0)
        store.observe(0, full_reading(store, 2.0))
        assert not store.warm
        window = store.window()
        assert window.input_length == 4
        assert not window.m[:-1].any()
        assert window.m[-1].all()

    def test_warm_after_full_window(self):
        store = make_store(length=3)
        for t in range(2):
            store.observe(t, full_reading(store, 1.0))
            assert not store.warm
        store.observe(2, full_reading(store, 1.0))
        assert store.warm

    def test_empty_store_window_is_all_missing(self):
        window = make_store(length=4).window()
        assert not window.m.any()
        np.testing.assert_allclose(window.x, 0.0)


class TestStepsOfDay:
    def test_steps_wrap_at_day_boundary(self):
        store = make_store(length=4, steps_per_day=10)
        for t in range(8, 12):
            store.observe(t, full_reading(store, 1.0))
        np.testing.assert_array_equal(store.window().steps_of_day, [8, 9, 0, 1])


class TestObserveSensor:
    def test_single_sensor_path(self):
        store = make_store(n=3, d=2, length=2)
        store.observe_sensor(0, 1, [7.0, 8.0])
        window = store.window()
        np.testing.assert_allclose(window.x[-1, 1], [7.0, 8.0])
        assert window.m[-1, 1].all()
        assert not window.m[-1, [0, 2]].any()

    def test_node_and_feature_validation(self):
        store = make_store(n=2, d=2)
        with pytest.raises(StateError, match="node 5"):
            store.observe_sensor(0, 5, [1.0, 2.0])
        with pytest.raises(StateError, match="features"):
            store.observe_sensor(0, 1, [1.0])

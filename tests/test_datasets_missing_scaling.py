"""Tests for missingness injection, the Z-score scaler, windows and loader."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    BatchLoader,
    ZScoreScaler,
    holdout_observed,
    intersect_masks,
    make_pattern,
    make_pems_dataset,
    make_windows,
)
from repro.errors import ConfigError


class TestMcarMask:
    def test_rate_approximate(self):
        rng = np.random.default_rng(0)
        mask = make_pattern("mcar", rate=0.4).mask((100, 20, 4), rng=rng)
        assert 1.0 - mask.mean() == pytest.approx(0.4, abs=0.02)

    def test_binary(self):
        rng = np.random.default_rng(0)
        mask = make_pattern("mcar", rate=0.5).mask((50, 5, 2), rng=rng)
        assert set(np.unique(mask)).issubset({0.0, 1.0})

    def test_zero_rate_all_observed(self):
        assert make_pattern("mcar", rate=0.0).mask((10, 2, 1)).all()

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            make_pattern("mcar", rate=1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.95))
    def test_property_rate_tracks_parameter(self, rate):
        rng = np.random.default_rng(42)
        mask = make_pattern("mcar", rate=rate).mask((200, 10, 2), rng=rng)
        assert 1.0 - mask.mean() == pytest.approx(rate, abs=0.05)


class TestStructuredMasks:
    def test_block_mask_contiguity(self):
        mask = make_pattern(
            "block", num_blocks=3, block_length=(5, 10)
        ).mask((100, 4, 2))
        # At minimum: blocks zero all features of a node simultaneously.
        missing = mask == 0
        assert (missing[:, :, 0] == missing[:, :, 1]).all()

    def test_block_mask_validates_lengths(self):
        with pytest.raises(ConfigError):
            make_pattern("block", num_blocks=1, block_length=(5, 3))

    def test_sensor_failure_whole_rows(self):
        mask = make_pattern("sensor", rate=0.3).mask((200, 6, 4))
        missing = mask == 0
        # All features drop together.
        for d in range(1, 4):
            assert (missing[:, :, 0] == missing[:, :, d]).all()
        assert 1.0 - mask.mean() == pytest.approx(0.3, abs=0.03)

    def test_intersect_masks(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        assert np.allclose(intersect_masks(a, b), [1.0, 0.0, 0.0])

    def test_intersect_requires_input(self):
        with pytest.raises(ConfigError):
            intersect_masks()


class TestHoldout:
    def test_partition_of_observed(self):
        rng = np.random.default_rng(0)
        mask = make_pattern("mcar", rate=0.4, seed=1).mask((100, 5, 2))
        reduced, holdout = holdout_observed(mask, 0.3, rng)
        # Holdout entries were observed and are now hidden.
        assert ((holdout == 1) <= (mask == 1)).all()
        assert ((reduced == 1) | (holdout == 1) == (mask == 1)).all()
        assert not np.logical_and(reduced == 1, holdout == 1).any()

    def test_rate(self):
        rng = np.random.default_rng(0)
        mask = np.ones((300, 10, 1))
        _reduced, holdout = holdout_observed(mask, 0.3, rng)
        assert holdout.mean() == pytest.approx(0.3, abs=0.02)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            holdout_observed(np.ones((5, 1, 1)), 0.0, np.random.default_rng(0))


class TestZScoreScaler:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(50, 10, size=(100, 4, 3))
        scaler = ZScoreScaler().fit(data)
        restored = scaler.inverse_transform(scaler.transform(data))
        assert np.allclose(restored, data)

    def test_standardizes(self):
        rng = np.random.default_rng(0)
        data = rng.normal(50, 10, size=(2000, 4, 2))
        out = ZScoreScaler().fit_transform(data)
        flat = out.reshape(-1, 2)
        # Stats are stored in the policy dtype (float32 by default),
        # so the residual mean is at float32 epsilon, not float64's.
        atol = 1e-9 if out.dtype == np.float64 else 1e-5
        assert np.allclose(flat.mean(axis=0), 0.0, atol=atol)
        assert np.allclose(flat.std(axis=0), 1.0, atol=atol)

    def test_masked_fit_ignores_missing(self):
        data = np.full((100, 2, 1), 7.0)
        data[50:] = 0.0  # "missing" entries zero-filled
        mask = np.ones_like(data)
        mask[50:] = 0.0
        scaler = ZScoreScaler().fit(data, mask)
        assert scaler.mean_[0] == pytest.approx(7.0)

    def test_transform_keeps_missing_zero(self):
        data = np.random.default_rng(0).normal(5, 2, size=(50, 3, 1))
        mask = make_pattern("mcar", rate=0.5, seed=1).mask(data.shape)
        scaler = ZScoreScaler().fit(data * mask, mask)
        out = scaler.transform(data * mask, mask)
        assert (out[mask == 0] == 0).all()

    def test_constant_feature_passthrough(self):
        data = np.full((10, 2, 1), 3.0)
        scaler = ZScoreScaler().fit(data)
        out = scaler.transform(data)
        assert np.isfinite(out).all()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ZScoreScaler().transform(np.zeros((2, 2, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_property_roundtrip_any_length(self, n):
        rng = np.random.default_rng(n)
        data = rng.normal(size=(n + 2, 3, 2)) * 5 + 1
        scaler = ZScoreScaler().fit(data)
        restored = scaler.inverse_transform(scaler.transform(data))
        assert np.allclose(restored, data, atol=1e-4)


class TestWindows:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_pems_dataset(num_nodes=4, num_days=2, steps_per_day=96, seed=0)

    def test_shapes(self, dataset):
        w = make_windows(dataset, input_length=12, output_length=6, stride=3)
        expected = (dataset.num_steps - 18) // 3 + 1
        assert w.num_windows == expected
        assert w.x.shape == (expected, 12, 4, 4)
        assert w.y.shape == (expected, 6, 4, 4)
        assert w.steps_of_day.shape == (expected, 12)

    def test_target_alignment(self, dataset):
        w = make_windows(dataset, input_length=12, output_length=6, stride=1)
        # y of window 0 must equal the truth at steps 12..18.
        assert np.allclose(w.y[0], dataset.truth[12:18])

    def test_input_mask_alignment(self, dataset):
        w = make_windows(dataset, input_length=12, output_length=6, stride=5)
        assert np.allclose(w.x[1], dataset.data[5:17])
        assert np.allclose(w.m[1], dataset.mask[5:17])

    def test_target_features_subset(self, dataset):
        w = make_windows(dataset, 12, 6, target_features=[0])
        assert w.y.shape[-1] == 1

    def test_subset(self, dataset):
        w = make_windows(dataset, 12, 6)
        sub = w.subset(np.array([0, 2]))
        assert sub.num_windows == 2
        assert np.allclose(sub.x[1], w.x[2])

    def test_too_short_dataset_raises(self, dataset):
        tiny = dataset.slice_steps(0, 10)
        with pytest.raises(ValueError):
            make_windows(tiny, 12, 12)

    def test_horizon_steps(self, dataset):
        w = make_windows(dataset, 12, 6)
        assert list(w.horizon_steps) == [1, 2, 3, 4, 5, 6]


class TestBatchLoader:
    @pytest.fixture(scope="class")
    def windows(self):
        ds = make_pems_dataset(num_nodes=3, num_days=1, steps_per_day=96, seed=0)
        return make_windows(ds, 12, 6, stride=1)

    def test_batch_sizes(self, windows):
        loader = BatchLoader(windows, batch_size=16, shuffle=False)
        batches = list(loader)
        assert all(b.num_windows == 16 for b in batches[:-1])
        assert sum(b.num_windows for b in batches) == windows.num_windows

    def test_len(self, windows):
        loader = BatchLoader(windows, batch_size=16)
        assert len(loader) == len(list(loader))

    def test_drop_last(self, windows):
        loader = BatchLoader(windows, batch_size=16, drop_last=True)
        assert all(b.num_windows == 16 for b in loader)

    def test_shuffle_changes_order_but_not_content(self, windows):
        loader = BatchLoader(windows, batch_size=windows.num_windows,
                             shuffle=True, seed=0)
        batch = next(iter(loader))
        assert batch.x.sum() == pytest.approx(windows.x.sum())
        assert not np.allclose(batch.x, windows.x)

    def test_no_shuffle_preserves_order(self, windows):
        loader = BatchLoader(windows, batch_size=8, shuffle=False)
        first = next(iter(loader))
        assert np.allclose(first.x, windows.x[:8])

    def test_reshuffles_across_epochs(self, windows):
        loader = BatchLoader(windows, batch_size=windows.num_windows,
                             shuffle=True, seed=0)
        epoch1 = next(iter(loader)).x.copy()
        epoch2 = next(iter(loader)).x
        assert not np.allclose(epoch1, epoch2)

    def test_invalid_batch_size(self, windows):
        with pytest.raises(ValueError):
            BatchLoader(windows, batch_size=0)

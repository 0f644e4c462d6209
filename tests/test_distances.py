"""Tests for DTW / ERP / LCSS and pairwise distance matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.distances import (
    dtw_distance,
    dtw_path,
    erp_distance,
    get_series_metric,
    lcss_distance,
    lcss_similarity,
    series_distance_matrix,
)


class TestDTW:
    def test_identity_is_zero(self):
        series = np.array([1.0, 2.0, 3.0])
        assert dtw_distance(series, series) == pytest.approx(0.0)

    def test_symmetry(self):
        a = np.array([1.0, 3.0, 2.0])
        b = np.array([0.0, 1.0, 5.0, 2.0])
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_variable_lengths(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        # b is a time-stretched version of a: DTW should be zero.
        assert dtw_distance(a, b) == pytest.approx(0.0)

    def test_amplitude_shift(self):
        a = np.zeros(4)
        b = np.ones(4)
        assert dtw_distance(a, b) == pytest.approx(4.0)

    def test_multivariate(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert dtw_distance(a, b) == pytest.approx(0.0)

    def test_window_constrains(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        unconstrained = dtw_distance(a, b)
        banded = dtw_distance(a, b, window=1)
        assert banded >= unconstrained - 1e-12

    def test_normalized(self):
        a = np.zeros(4)
        b = np.ones(4)
        assert dtw_distance(a, b, normalize=True) == pytest.approx(4.0 / 8.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([1.0]))

    def test_path_endpoints(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 3.0])
        dist, path = dtw_path(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (len(a) - 1, len(b) - 1)
        assert dist == pytest.approx(dtw_distance(a, b))

    def test_path_monotone(self):
        rng = np.random.default_rng(1)
        _d, path = dtw_path(rng.normal(size=6), rng.normal(size=8))
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert i2 >= i1 and j2 >= j1
            assert (i2 - i1) + (j2 - j1) >= 1

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 8),
               elements=st.floats(-5, 5, allow_nan=False)),
        arrays(np.float64, st.integers(1, 8),
               elements=st.floats(-5, 5, allow_nan=False)),
    )
    def test_property_nonnegative_symmetric(self, a, b):
        d_ab = dtw_distance(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(dtw_distance(b, a))


class TestERP:
    def test_identity_is_zero(self):
        series = np.array([1.0, 2.0])
        assert erp_distance(series, series) == pytest.approx(0.0)

    def test_symmetry(self):
        a = np.array([1.0, 3.0])
        b = np.array([0.0, 1.0, 5.0])
        assert erp_distance(a, b) == pytest.approx(erp_distance(b, a))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.normal(size=5) for _ in range(3))
        assert erp_distance(a, c) <= erp_distance(a, b) + erp_distance(b, c) + 1e-9

    def test_gap_penalty(self):
        a = np.array([5.0])
        b = np.array([5.0, 5.0])
        # The extra element aligns against gap g=0 -> cost 5.
        assert erp_distance(a, b, gap=0.0) == pytest.approx(5.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            erp_distance(np.array([]), np.array([1.0]))


class TestLCSS:
    def test_identical_full_similarity(self):
        a = np.array([1.0, 2.0, 3.0])
        assert lcss_similarity(a, a, epsilon=0.1) == 3
        assert lcss_distance(a, a, epsilon=0.1) == pytest.approx(0.0)

    def test_disjoint_zero_similarity(self):
        a = np.zeros(3)
        b = np.full(3, 100.0)
        assert lcss_similarity(a, b, epsilon=1.0) == 0
        assert lcss_distance(a, b, epsilon=1.0) == pytest.approx(1.0)

    def test_epsilon_tolerance(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.05, 2.05])
        assert lcss_similarity(a, b, epsilon=0.1) == 2

    def test_delta_band(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([3.0, 4.0, 1.0, 2.0])
        # Unbanded LCSS can match the shifted [3, 4] block; delta=0 only
        # allows same-index matches, of which there are none.
        assert lcss_similarity(a, b, epsilon=0.1) == 2
        assert lcss_similarity(a, b, epsilon=0.1, delta=0) == 0

    def test_distance_in_unit_interval(self):
        rng = np.random.default_rng(0)
        d = lcss_distance(rng.normal(size=5), rng.normal(size=7), epsilon=0.5)
        assert 0.0 <= d <= 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            lcss_distance(np.array([]), np.array([1.0]))


class TestPairwise:
    def test_matrix_properties(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(4, 10))
        mat = series_distance_matrix(series, metric="dtw")
        assert mat.shape == (4, 4)
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 0.0)
        assert (mat >= 0).all()

    def test_metric_dispatch(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(3, 6))
        for metric in ("dtw", "erp", "euclidean"):
            mat = series_distance_matrix(series, metric=metric)
            assert mat.shape == (3, 3)

    def test_lcss_dispatch_with_kwargs(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(3, 6))
        mat = series_distance_matrix(series, metric="lcss", epsilon=0.5)
        assert (mat <= 1.0).all()

    def test_callable_metric(self):
        series = np.array([[1.0, 1.0], [2.0, 2.0]])
        mat = series_distance_matrix(series, metric=lambda a, b: 7.0)
        assert mat[0, 1] == 7.0

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError):
            get_series_metric("wavelets")

    def test_euclidean_needs_equal_shapes(self):
        fn = get_series_metric("euclidean")
        with pytest.raises(ValueError):
            fn(np.zeros(3), np.zeros(4))

    def test_multivariate_series_matrix(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(3, 8, 2))
        mat = series_distance_matrix(series, metric="dtw")
        assert mat.shape == (3, 3)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            series_distance_matrix(np.zeros(5))

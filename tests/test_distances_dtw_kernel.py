"""The batched wavefront DTW kernel against a scalar reference DP.

The kernel promises the textbook recurrence ``cost + min(up, left, diag)``
cell for cell, so every comparison here is ``==``, not ``approx``. The
reference below is the scalar double loop, kept only in this file.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.distances import (
    dtw_distance,
    dtw_path,
    erp_distance,
    lcss_distance,
    paired_distances,
    series_distance_matrix,
)
from repro.distances import dtw as dtw_module
from repro.distances.dtw import dtw_batch


def _as_2d(series):
    series = np.asarray(series, dtype=np.float64)
    return series[:, None] if series.ndim == 1 else series


def reference_table(a, b, window=None):
    """Scalar accumulated-cost table ``(n + 1, m + 1)``."""
    a, b = _as_2d(a), _as_2d(b)
    n, m = len(a), len(b)
    if window is not None:
        window = max(window, abs(n - m))
    diff = a[:, None, :] - b[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=-1))
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        lo, hi = (1, m) if window is None else (max(1, i - window), min(m, i + window))
        for j in range(lo, hi + 1):
            acc[i, j] = cost[i - 1, j - 1] + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return acc


def reference_dtw(a, b, window=None, normalize=False):
    acc = reference_table(a, b, window)
    n, m = acc.shape[0] - 1, acc.shape[1] - 1
    distance = float(acc[n, m])
    return distance / float(n + m) if normalize else distance


def reference_path(a, b):
    acc = reference_table(a, b)
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    path = []
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        move = int(np.argmin((acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])))
        if move == 0:
            i, j = i - 1, j - 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return float(acc[-1, -1]), path


# Few distinct values make equal predecessors (ties) and zero-cost cells common.
TIE_VALUES = st.sampled_from([0.0, 1.0, -1.0, 2.0])
ANY_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def series_pair(draw, max_len=30):
    d = draw(st.integers(1, 4))
    one_d = d == 1 and draw(st.booleans())
    values = draw(st.sampled_from([TIE_VALUES, ANY_VALUES]))

    def series(length):
        shape = (length,) if one_d else (length, d)
        return draw(arrays(np.float64, shape, elements=values))

    return series(draw(st.integers(1, max_len))), series(draw(st.integers(1, max_len)))


WINDOWS = st.one_of(st.none(), st.integers(0, 5))


class TestKernelMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(series_pair(), WINDOWS, st.booleans())
    def test_distance_bitwise(self, pair, window, normalize):
        a, b = pair
        expected = reference_dtw(a, b, window=window, normalize=normalize)
        assert dtw_distance(a, b, window=window, normalize=normalize) == expected

    @settings(max_examples=100, deadline=None)
    @given(series_pair())
    def test_path_matches_reference(self, pair):
        a, b = pair
        assert dtw_path(a, b) == reference_path(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 12), st.integers(1, 12), st.integers(1, 4),
        WINDOWS, st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_batch_bitwise_per_pair(self, k, n, m, d, window, normalize, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-2, 3, size=(k, n, d)).astype(float)
        b = rng.normal(size=(k, m, d))
        got = dtw_batch(a, b, window=window, normalize=normalize)
        expected = [reference_dtw(a[i], b[i], window, normalize) for i in range(k)]
        assert got.tolist() == expected

    @pytest.mark.parametrize("chunk_cells", [1, 200, 1 << 18])
    def test_chunking_is_invisible(self, monkeypatch, chunk_cells):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(23, 7, 2)), rng.normal(size=(23, 9, 2))
        expected = [reference_dtw(a[i], b[i], window=1) for i in range(23)]
        monkeypatch.setattr(dtw_module, "CHUNK_CELLS", chunk_cells)
        assert dtw_batch(a, b, window=1).tolist() == expected

    def test_window_narrower_than_length_gap_is_widened(self):
        a, b = np.arange(3.0), np.arange(9.0)
        assert dtw_distance(a, b, window=0) == reference_dtw(a, b, window=0)
        assert dtw_distance(a, b, window=0) == dtw_distance(a, b, window=6)

    def test_zero_cost_series(self):
        flat = np.zeros((30, 4))
        assert dtw_distance(flat, flat[:5]) == 0.0
        assert dtw_path(flat[:4], flat[:2]) == reference_path(flat[:4], flat[:2])

    def test_path_accepts_1d(self):
        dist, path = dtw_path([1.0, 2.0, 3.0], [1.0, 3.0])
        assert (dist, path) == reference_path([1.0, 2.0, 3.0], [1.0, 3.0])

    def test_batch_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((3, 4)), np.zeros((2, 4)))

    def test_batch_of_none(self):
        assert dtw_batch(np.zeros((0, 4, 2)), np.zeros((0, 5, 2))).shape == (0,)


class TestPairedDistances:
    def test_dtw_matches_scalar(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 8, 3)), rng.normal(size=(5, 6, 3))
        got = paired_distances(a, b, "dtw", window=2)
        assert got.tolist() == [dtw_distance(x, y, window=2) for x, y in zip(a, b)]

    @pytest.mark.parametrize(
        "metric, scalar",
        [("erp", erp_distance), ("lcss", lcss_distance),
         ("euclidean", lambda x, y: float(np.linalg.norm(x - y)))],
    )
    def test_scalar_metrics_loop(self, metric, scalar):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        assert paired_distances(a, b, metric).tolist() == [scalar(x, y) for x, y in zip(a, b)]

    def test_callable_metric(self):
        got = paired_distances(np.zeros((3, 2)), np.ones((3, 2)), lambda x, y: 7.0)
        assert got.tolist() == [7.0, 7.0, 7.0]

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            paired_distances(np.zeros((3, 4)), np.zeros((2, 4)), "erp")

    def test_matrix_equals_reference_matrix(self):
        series = np.random.default_rng(2).normal(size=(6, 10, 2))
        assert np.array_equal(
            series_distance_matrix(series, metric="dtw"),
            series_distance_matrix(series, metric=reference_dtw),
        )


class TestBenchmarkConfigPin:
    """The small-PEMS config the serving benchmark exports: 10 nodes, 6 days,
    4 features, 40 % MCAR, data seed 0, 4 graphs, partition downsample 12."""

    @pytest.fixture(scope="class")
    def ctx(self):
        from repro.experiments import DataConfig, ModelConfig, prepare_context

        return prepare_context(
            DataConfig(dataset="pems", num_nodes=10, num_days=6, stride=3, seed=0,
                       missing_rate=0.4),
            ModelConfig(embed_dim=16, hidden_dim=32, num_graphs=4, seed=0,
                        partition_downsample=12),
        )

    def test_partition_pinned(self, ctx):
        partition = ctx.graphs().partition
        assert partition.boundaries == (0, 84, 96, 144)
        assert partition.score == 198.47649929886242

    def test_temporal_graphs_match_scalar_reference(self, ctx):
        from repro.graphs import build_temporal_graphs

        graphs = ctx.graphs()
        reference = build_temporal_graphs(
            ctx.train.data, ctx.train.mask, graphs.partition,
            metric=reference_dtw, downsample_to=12,
        )
        assert len(graphs.temporal) == len(reference) == 4
        for got, expected in zip(graphs.temporal, reference):
            assert np.array_equal(got, expected)

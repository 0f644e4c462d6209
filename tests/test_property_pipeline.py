"""Hypothesis property tests across the data/graph pipeline."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datasets import MCARPattern, TrafficDataset, make_windows
from repro.datasets.network import city_grid
from repro.graphs import (
    PartitionConfig,
    TimelinePartitioner,
    chebyshev_polynomials,
    gaussian_kernel_adjacency,
    normalized_laplacian,
)


def _dataset(total: int, nodes: int = 4, features: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    network = city_grid(rows=2, cols=2, seed=0)
    data = rng.normal(60, 8, size=(total, nodes, features))
    return TrafficDataset(
        data=data,
        mask=np.ones_like(data),
        truth=data.copy(),
        network=network,
        steps_per_day=96,
        steps_of_day=np.arange(total) % 96,
        feature_names=[f"f{i}" for i in range(features)],
    )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=5),
)
def test_windows_count_formula(input_len, output_len, stride):
    total = 64
    ds = _dataset(total)
    windows = make_windows(ds, input_len, output_len, stride=stride)
    expected = (total - input_len - output_len) // stride + 1
    assert windows.num_windows == expected
    assert windows.x.shape[1] == input_len
    assert windows.y.shape[1] == output_len


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_window_alignment_random_offsets(seed):
    rng = np.random.default_rng(seed)
    total = 48
    ds = _dataset(total, seed=seed)
    input_len = int(rng.integers(2, 8))
    output_len = int(rng.integers(1, 6))
    windows = make_windows(ds, input_len, output_len, stride=1)
    w = int(rng.integers(windows.num_windows))
    assert np.allclose(windows.x[w], ds.data[w : w + input_len])
    assert np.allclose(
        windows.y[w], ds.truth[w + input_len : w + input_len + output_len]
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=1000))
def test_gaussian_adjacency_properties_random(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 5.0)
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    adj = gaussian_kernel_adjacency(dist)
    assert adj.shape == (n, n)
    assert np.allclose(adj, adj.T)
    assert (adj >= 0).all() and (adj <= 1).all()
    assert np.allclose(np.diag(adj), 0.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=10),
       st.integers(min_value=0, max_value=1000))
def test_laplacian_spectrum_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) > 0.5).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    lap = normalized_laplacian(adj)
    eigenvalues = np.linalg.eigvalsh(lap)
    assert eigenvalues.min() >= -1e-9
    assert eigenvalues.max() <= 2.0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=100))
def test_chebyshev_stack_bounded_random(order, n, seed):
    """T_k of a matrix with spectrum in [-1,1] has entries bounded by n."""
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) > 0.4).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    stack = chebyshev_polynomials(adj, order)
    assert stack.shape == (order, n, n)
    # Spectral norm of each T_k is <= 1, so Frobenius norm <= sqrt(n).
    for k in range(order):
        assert np.linalg.norm(stack[k], 2) <= 1.0 + 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=1000))
def test_partition_covers_day_random(m, seed):
    rng = np.random.default_rng(seed)
    steps_per_day = 48
    total = steps_per_day * 3
    hours = (np.arange(total) % steps_per_day) * 24 / steps_per_day
    peak = rng.uniform(4, 20)
    data = np.exp(-0.5 * ((hours - peak) / 2.0) ** 2)[:, None, None] * 10
    data = np.repeat(data, 3, axis=1)
    try:
        partition = TimelinePartitioner(
            PartitionConfig(num_intervals=m, downsample_to=4)
        ).fit(data, None, steps_per_day)
    except ValueError:
        return  # infeasible constraint combination: acceptable outcome
    # Intervals tile the day exactly.
    lengths = [e - s for s, e in partition.intervals]
    assert sum(lengths) == steps_per_day
    # Every step maps to exactly one interval.
    hard = partition.membership_weights(np.arange(steps_per_day), mode="hard")
    assert np.allclose(hard.sum(axis=1), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.9),
       st.integers(min_value=0, max_value=1000))
def test_masking_roundtrip_random(rate, seed):
    rng = np.random.default_rng(seed)
    ds = _dataset(48, seed=seed)
    mask = MCARPattern(rate=rate).mask(ds.data.shape, rng=rng)
    masked = ds.with_mask(mask)
    # Observed entries intact, hidden entries zero, truth untouched.
    assert np.allclose(masked.data[mask == 1], ds.truth[mask == 1])
    assert (masked.data[mask == 0] == 0).all()
    assert np.allclose(masked.truth, ds.truth)

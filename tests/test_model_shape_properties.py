"""Hypothesis shape-fuzzing across the whole neural model zoo.

Every forecaster must handle arbitrary (small) combinations of batch
size, window lengths, node counts and feature counts without shape
errors, produce the contracted output shape, and stay finite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import TimelinePartition, build_temporal_graphs, gaussian_kernel_adjacency
from repro.graphs.heterograph import HeterogeneousGraphSet
from repro.models import (
    ASTGCN,
    GraphWaveNet,
    fc_lstm,
    fc_lstm_i,
    gcn_lstm,
    gcn_lstm_i,
    rihgcn,
)

DIMS = st.tuples(
    st.integers(min_value=1, max_value=3),  # batch
    st.integers(min_value=2, max_value=6),  # input length
    st.integers(min_value=1, max_value=4),  # output length
    st.integers(min_value=2, max_value=5),  # nodes
    st.integers(min_value=1, max_value=3),  # features
)


def _adjacency(n: int) -> np.ndarray:
    coords = np.linspace(0, 1, n)[:, None]
    dist = np.abs(coords - coords.T)
    return gaussian_kernel_adjacency(dist, epsilon=0.0)


def _graphs(n: int) -> HeterogeneousGraphSet:
    rng = np.random.default_rng(0)
    spd = 48
    data = rng.normal(size=(spd * 2, n, 1))
    partition = TimelinePartition(boundaries=(0, 24), steps_per_day=spd)
    temporal = build_temporal_graphs(data, None, partition, downsample_to=4)
    return HeterogeneousGraphSet(
        geographic=_adjacency(n), temporal=temporal, partition=partition
    )


def _inputs(batch, t_in, n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, t_in, n, d))
    m = (rng.random((batch, t_in, n, d)) > 0.3).astype(float)
    steps = rng.integers(0, 48, size=(batch, t_in))
    return x * m, m, steps


BUILDERS = {
    "fc_lstm": lambda dims, adj, graphs: fc_lstm(
        embed_dim=4, hidden_dim=5, seed=0, **dims),
    "gcn_lstm": lambda dims, adj, graphs: gcn_lstm(
        adjacency=adj, embed_dim=4, hidden_dim=5, seed=0, **dims),
    "fc_lstm_i": lambda dims, adj, graphs: fc_lstm_i(
        embed_dim=4, hidden_dim=5, seed=0, **dims),
    "gcn_lstm_i": lambda dims, adj, graphs: gcn_lstm_i(
        adjacency=adj, embed_dim=4, hidden_dim=5, seed=0, **dims),
    "rihgcn": lambda dims, adj, graphs: rihgcn(
        graphs=graphs, embed_dim=4, hidden_dim=5, seed=0, **dims),
    "astgcn": lambda dims, adj, graphs: ASTGCN(
        adjacency=adj, hidden_channels=4, seed=0, **dims),
    "graph_wavenet": lambda dims, adj, graphs: GraphWaveNet(
        adjacency=adj, residual_channels=4, num_layers=1, seed=0, **dims),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=8, deadline=None)
@given(dims=DIMS)
def test_model_shape_contract(name, dims):
    batch, t_in, t_out, n, d = dims
    dim_kwargs = dict(input_length=t_in, output_length=t_out,
                      num_nodes=n, num_features=d)
    model = BUILDERS[name](dim_kwargs, _adjacency(n), _graphs(n))
    x, m, steps = _inputs(batch, t_in, n, d)
    out = model(x, m, steps)
    assert out.prediction.shape == (batch, t_out, n, d)
    assert np.isfinite(out.prediction.data).all()

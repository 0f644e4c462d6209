"""Micro-benchmarks of the computational substrates.

Unlike the table/figure benches (one-shot experiment timings), these use
pytest-benchmark's statistical timing to track the hot inner loops:
Chebyshev graph convolution forward/backward, the LSTM step, DTW, the
timeline partitioner and Eq. 8 adjacency construction.
"""

import pytest

import numpy as np

from repro.autodiff import Tensor
from repro.distances import dtw_distance, paired_distances, series_distance_matrix
from repro.graphs import (
    PartitionConfig,
    TimelinePartitioner,
    chebyshev_polynomials,
    gaussian_kernel_adjacency,
)
from repro.nn import ChebConv, LSTMCell

pytestmark = pytest.mark.bench

RNG = np.random.default_rng(0)


def _ring(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


def test_chebconv_forward(benchmark):
    conv = ChebConv(16, 32, chebyshev_polynomials(_ring(30), 3),
                    rng=np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(64, 30, 16)))
    out = benchmark(lambda: conv(x))
    assert out.shape == (64, 30, 32)


def test_chebconv_backward(benchmark):
    conv = ChebConv(16, 32, chebyshev_polynomials(_ring(30), 3),
                    rng=np.random.default_rng(0))
    x_data = RNG.normal(size=(64, 30, 16))

    def step():
        conv.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        conv(x).sum().backward()
        return x.grad

    grad = benchmark(step)
    assert grad.shape == x_data.shape


def test_lstm_cell_step(benchmark):
    cell = LSTMCell(48, 128, rng=np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(640, 48)))
    state = cell.init_state(640)
    h, _c = benchmark(lambda: cell(x, state))
    assert h.shape == (640, 128)


def test_dtw_distance(benchmark):
    a = RNG.normal(size=(48, 4))
    b = RNG.normal(size=(48, 4))
    d = benchmark(lambda: dtw_distance(a, b))
    assert d >= 0


def test_dtw_batched_partition_load(benchmark):
    """The Eq. 2 partition's DTW load on the small PEMS config: 3,756
    interval pairs x 10 nodes, each a 12x4 vs 12x4 series pair."""
    a = RNG.normal(size=(37560, 12, 4))
    b = RNG.normal(size=(37560, 12, 4))
    d = benchmark.pedantic(lambda: paired_distances(a, b, "dtw"), rounds=3, iterations=1)
    assert d.shape == (37560,) and (d >= 0).all()


def test_series_distance_matrix(benchmark):
    series = RNG.normal(size=(12, 24, 2))
    mat = benchmark(lambda: series_distance_matrix(series, metric="dtw"))
    assert mat.shape == (12, 12)


def test_gaussian_adjacency(benchmark):
    pts = RNG.normal(size=(100, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    adj = benchmark(lambda: gaussian_kernel_adjacency(dist))
    assert adj.shape == (100, 100)


def test_timeline_partition(benchmark):
    steps_per_day = 96
    total = steps_per_day * 5
    hours = (np.arange(total) % steps_per_day) * 24 / steps_per_day
    data = (np.exp(-0.5 * ((hours - 8) / 2) ** 2)
            + np.exp(-0.5 * ((hours - 18) / 2) ** 2))[:, None, None]
    data = np.repeat(data, 6, axis=1)
    cfg = PartitionConfig(num_intervals=4, downsample_to=8)

    partition = benchmark.pedantic(
        lambda: TimelinePartitioner(cfg).fit(data, None, steps_per_day),
        rounds=1, iterations=1,
    )
    assert partition.num_intervals == 4


def test_rihgcn_training_step(benchmark):
    """One full forward+backward+step of the headline model."""
    from repro.experiments import ModelConfig, prepare_context, build_model
    from repro.experiments.config import DataConfig
    from repro.nn import JointLoss
    from repro.optim import Adam

    ctx = prepare_context(
        DataConfig(num_nodes=8, num_days=4, stride=6, missing_rate=0.4),
        ModelConfig(embed_dim=16, hidden_dim=32, num_graphs=3,
                    partition_downsample=8),
    )
    model = build_model("RIHGCN", ctx)
    loss_fn = JointLoss(1.0)
    opt = Adam(model.parameters())
    batch = ctx.train_windows.subset(np.arange(32))

    def step():
        opt.zero_grad()
        out = model(batch.x, batch.m, batch.steps_of_day)
        validity = out.estimate_validity
        loss = loss_fn(
            out.prediction, batch.y, batch.y_mask,
            estimates_fwd=out.estimates_fwd,
            estimates_bwd=out.estimates_bwd,
            history=batch.x,
            history_mask=batch.m * validity[None, :, None, None],
        )
        loss.backward()
        opt.step()
        return loss.item()

    loss = benchmark.pedantic(step, rounds=3, iterations=1, warmup_rounds=1)
    assert np.isfinite(loss)


def test_chebconv_dense_large_graph(benchmark):
    """Dense propagation at 300 nodes."""
    adj = _ring(300)
    conv = ChebConv(8, 8, chebyshev_polynomials(adj, 3),
                    rng=np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(16, 300, 8)))
    out = benchmark(lambda: conv(x))
    assert out.shape == (16, 300, 8)


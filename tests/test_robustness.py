"""Robustness and failure-injection tests: degenerate inputs the system
must survive (extreme missingness, flat signals, tiny graphs)."""

import numpy as np

from repro.datasets import (
    MCARPattern,
    StampedeConfig,
    ZScoreScaler,
    make_pems_dataset,
    make_stampede_dataset,
    make_windows,
)
from repro.graphs import (
    PartitionConfig,
    TimelinePartitioner,
    build_heterogeneous_graphs,
    gaussian_kernel_adjacency,
    normalized_laplacian,
    chebyshev_polynomials,
)
from repro.imputation import LastObservedImputer, MeanImputer
from repro.models import HistoricalAverage, fc_lstm_i, gcn_lstm_i
from repro.training import Trainer, TrainerConfig


class TestExtremeMissingness:
    def test_95_percent_missing_trains(self):
        ds = make_pems_dataset(num_nodes=4, num_days=2, steps_per_day=96, seed=0)
        ds = ds.with_mask(MCARPattern(rate=0.95).mask(ds.data.shape, rng=np.random.default_rng(1)))
        windows = make_windows(ds, 6, 4, stride=8)
        model = fc_lstm_i(input_length=6, output_length=4, num_nodes=4,
                          num_features=4, embed_dim=4, hidden_dim=6, seed=0)
        history = Trainer(model, TrainerConfig(max_epochs=2, batch_size=16)).fit(
            windows, None
        )
        assert np.isfinite(history.train_loss).all()

    def test_fully_missing_window_forward(self):
        model = fc_lstm_i(input_length=6, output_length=4, num_nodes=3,
                          num_features=2, embed_dim=4, hidden_dim=6, seed=0)
        x = np.zeros((2, 6, 3, 2))
        m = np.zeros_like(x)
        out = model(x, m, np.zeros((2, 6)))
        assert np.isfinite(out.prediction.data).all()

    def test_imputers_on_fully_missing(self):
        data = np.zeros((20, 3, 2))
        mask = np.zeros_like(data)
        for imputer in (MeanImputer(), LastObservedImputer()):
            filled = imputer(data, mask)
            assert np.isfinite(filled).all()

    def test_scaler_on_mostly_missing(self):
        rng = np.random.default_rng(0)
        data = rng.normal(60, 5, size=(100, 3, 2))
        mask = MCARPattern(rate=0.98).mask(data.shape, rng=rng)
        scaler = ZScoreScaler().fit(data * mask, mask)
        out = scaler.transform(data * mask, mask)
        assert np.isfinite(out).all()


class TestDegenerateSignals:
    def test_partition_on_flat_data(self):
        """Constant data: all interval distances zero; must not crash."""
        data = np.full((48 * 3, 3, 1), 5.0)
        partition = TimelinePartitioner(
            PartitionConfig(num_intervals=2, downsample_to=4)
        ).fit(data, None, 48)
        assert partition.num_intervals == 2

    def test_temporal_graphs_on_flat_data(self):
        data = np.full((48 * 3, 4, 1), 5.0)
        distances = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        hg = build_heterogeneous_graphs(
            data, None, distances, steps_per_day=48, num_intervals=2,
            partition_config=PartitionConfig(num_intervals=2, downsample_to=4),
        )
        for adj in hg.temporal:
            assert np.isfinite(adj).all()

    def test_gaussian_kernel_single_pair(self):
        adj = gaussian_kernel_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert adj.shape == (2, 2)

    def test_laplacian_single_node(self):
        lap = normalized_laplacian(np.zeros((1, 1)))
        assert lap.shape == (1, 1)
        stack = chebyshev_polynomials(np.zeros((1, 1)), 3)
        assert np.isfinite(stack).all()

    def test_ha_on_constant_data(self):
        data = np.full((50, 2, 1), 3.0)
        mask = np.ones_like(data)
        ha = HistoricalAverage().fit(data, mask)
        pred = ha.predict(data[None, :10], mask[None, :10], 4)
        assert np.allclose(pred, 3.0)


class TestTinyConfigurations:
    def test_two_node_graph_model(self):
        ds = make_pems_dataset(num_nodes=2, num_days=2, steps_per_day=96, seed=0)
        ds = ds.with_mask(MCARPattern(rate=0.3).mask(ds.data.shape, rng=np.random.default_rng(0)))
        adjacency = gaussian_kernel_adjacency(ds.network.distances)
        windows = make_windows(ds, 6, 4, stride=8)
        model = gcn_lstm_i(
            adjacency=adjacency, input_length=6, output_length=4, num_nodes=2,
            num_features=4, embed_dim=4, hidden_dim=6, seed=0,
        )
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        assert np.isfinite(out.prediction.data).all()

    def test_horizon_one(self):
        ds = make_pems_dataset(num_nodes=3, num_days=2, steps_per_day=96, seed=0)
        windows = make_windows(ds, 6, 1, stride=8)
        model = fc_lstm_i(input_length=6, output_length=1, num_nodes=3,
                          num_features=4, embed_dim=4, hidden_dim=6, seed=0)
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        assert out.prediction.shape == (2, 1, 3, 4)

    def test_single_feature(self):
        x = np.random.default_rng(0).normal(size=(2, 6, 3, 1))
        m = np.ones_like(x)
        model = fc_lstm_i(input_length=6, output_length=2, num_nodes=3,
                          num_features=1, embed_dim=4, hidden_dim=6, seed=0)
        out = model(x, m, np.zeros((2, 6)))
        assert out.prediction.shape == (2, 2, 3, 1)

    def test_stampede_minimal_fleet(self):
        ds = make_stampede_dataset(
            StampedeConfig(num_shuttles=1, num_days=2, steps_per_day=96, seed=0)
        )
        assert ds.missing_rate > 0.8
        assert np.isfinite(ds.data).all()


class TestNumericalStability:
    def test_training_with_aggressive_lr_stays_finite(self):
        ds = make_pems_dataset(num_nodes=3, num_days=2, steps_per_day=96, seed=0)
        ds = ds.with_mask(MCARPattern(rate=0.4).mask(ds.data.shape, rng=np.random.default_rng(1)))
        scaler = ZScoreScaler().fit(ds.data, ds.mask)
        from dataclasses import replace

        scaled = replace(ds, data=scaler.transform(ds.data, ds.mask),
                         truth=scaler.transform(ds.truth))
        windows = make_windows(scaled, 6, 4, stride=8)
        model = fc_lstm_i(input_length=6, output_length=4, num_nodes=3,
                          num_features=4, embed_dim=4, hidden_dim=6, seed=0)
        trainer = Trainer(model, TrainerConfig(
            max_epochs=3, learning_rate=0.3, grad_clip=1.0, batch_size=16))
        history = trainer.fit(windows, None)
        assert np.isfinite(history.train_loss).all()

    def test_gradient_clipping_engaged_on_explosion(self):
        """Gradient norms recorded must reflect pre-clip magnitude."""
        ds = make_pems_dataset(num_nodes=3, num_days=2, steps_per_day=96, seed=0)
        windows = make_windows(ds, 6, 4, stride=8)
        model = fc_lstm_i(input_length=6, output_length=4, num_nodes=3,
                          num_features=4, embed_dim=4, hidden_dim=6, seed=0)
        # Unscaled (60-mph range) inputs produce large losses/grads.
        trainer = Trainer(model, TrainerConfig(max_epochs=1, grad_clip=0.001,
                                               batch_size=16))
        history = trainer.fit(windows, None)
        assert history.grad_norms[0] > 0.001
        assert np.isfinite(history.train_loss).all()

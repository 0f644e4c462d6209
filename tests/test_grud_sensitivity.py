"""Tests for the GRU-D baseline and the sensitivity sweep harness."""

import numpy as np
import pytest

from repro.experiments import (
    DataConfig,
    ModelConfig,
    default_trainer_config,
    run_grid,
    sweep,
)
from repro.models import GRUDForecaster, compute_deltas, forward_fill_last

TINY_DATA = DataConfig(num_nodes=4, num_days=3, steps_per_day=96,
                       input_length=6, output_length=4, stride=10,
                       missing_rate=0.4, seed=0)
TINY_MODEL = ModelConfig(embed_dim=6, hidden_dim=8, num_graphs=2,
                         partition_downsample=6)
TINY_TRAINER = default_trainer_config(max_epochs=1, batch_size=32)


class TestDeltaComputation:
    def test_all_observed_deltas(self):
        mask = np.ones((1, 4, 1, 1))
        deltas = compute_deltas(mask)
        # First step 0, every later step saw an observation one step ago.
        assert deltas[0, :, 0, 0].tolist() == [0.0, 1.0, 1.0, 1.0]

    def test_gap_accumulates(self):
        mask = np.array([1.0, 0.0, 0.0, 1.0]).reshape(1, 4, 1, 1)
        deltas = compute_deltas(mask)
        assert deltas[0, :, 0, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_never_observed(self):
        mask = np.zeros((1, 3, 1, 1))
        deltas = compute_deltas(mask)
        assert deltas[0, :, 0, 0].tolist() == [0.0, 1.0, 2.0]

    def test_forward_fill_last(self):
        x = np.array([5.0, 0.0, 0.0, 7.0]).reshape(1, 4, 1, 1)
        mask = np.array([1.0, 0.0, 0.0, 1.0]).reshape(1, 4, 1, 1)
        filled = forward_fill_last(x, mask)
        assert filled[0, :, 0, 0].tolist() == [5.0, 5.0, 5.0, 7.0]

    def test_forward_fill_before_first_observation(self):
        x = np.array([0.0, 3.0]).reshape(1, 2, 1, 1)
        mask = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)
        filled = forward_fill_last(x, mask)
        assert filled[0, 0, 0, 0] == 0.0


class TestGRUD:
    def _model(self):
        return GRUDForecaster(input_length=6, output_length=4, num_nodes=3,
                              num_features=2, hidden_dim=8, seed=0)

    def test_output_shape(self):
        model = self._model()
        x = np.random.default_rng(0).normal(size=(2, 6, 3, 2))
        m = (np.random.default_rng(1).random((2, 6, 3, 2)) > 0.4).astype(float)
        out = model(x * m, m, np.zeros((2, 6)))
        assert out.prediction.shape == (2, 4, 3, 2)

    def test_wrong_length_rejected(self):
        model = self._model()
        x = np.zeros((2, 5, 3, 2))
        with pytest.raises(ValueError):
            model(x, np.ones_like(x), np.zeros((2, 5)))

    def test_all_parameters_trainable(self):
        model = self._model()
        x = np.random.default_rng(0).normal(size=(2, 6, 3, 2))
        m = (np.random.default_rng(1).random((2, 6, 3, 2)) > 0.4).astype(float)
        model(x * m, m, np.zeros((2, 6))).prediction.sum().backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no grad for {name}"

    def test_missingness_changes_output(self):
        """The decay path must make predictions mask-dependent."""
        model = self._model()
        x = np.random.default_rng(0).normal(size=(1, 6, 3, 2))
        full = np.ones_like(x)
        sparse = full.copy()
        sparse[:, 2:5] = 0.0
        a = model(x, full, np.zeros((1, 6))).prediction.data
        b = model(x * sparse, sparse, np.zeros((1, 6))).prediction.data
        assert not np.allclose(a, b)

    def test_trains(self):
        from repro.datasets import MCARPattern, make_pems_dataset, make_windows
        from repro.training import Trainer, TrainerConfig
        from dataclasses import replace

        ds = make_pems_dataset(num_nodes=3, num_days=2, steps_per_day=96, seed=0)
        ds = replace(ds, data=ds.data[:, :, :2], mask=ds.mask[:, :, :2],
                     truth=ds.truth[:, :, :2], feature_names=ds.feature_names[:2])
        ds = ds.with_mask(MCARPattern(rate=0.4).mask(ds.data.shape, rng=np.random.default_rng(1)))
        windows = make_windows(ds, 6, 4, stride=6)
        history = Trainer(self._model(),
                          TrainerConfig(max_epochs=3, batch_size=16)).fit(
            windows, None
        )
        assert history.train_loss[-1] < history.train_loss[0]


def run_sweep(field, values, model):
    return run_grid(sweep(field, values, model=model),
                    TINY_DATA, TINY_MODEL, TINY_TRAINER)


class TestSensitivitySweeps:
    def test_model_field_sweep(self):
        grid = run_sweep("cheb_order", [1, 2], "GCN-LSTM-I")
        assert len(grid.cells) == 2
        best = min(grid.cells, key=lambda c: c.metric_at().mae)
        assert best.value in (1, 2)
        assert "cheb_order" in grid.render()

    def test_graph_affecting_field_rebuilds_context(self):
        grid = run_sweep("num_graphs", [2, 3], "RIHGCN")
        assert [c.value for c in grid.cells] == [2, 3]
        # Different graph sets give different models, not one reused set.
        assert grid.cells[0].metric_at() != grid.cells[1].metric_at()

    def test_trainer_field_sweep(self):
        grid = run_sweep("imputation_weight", [0.0, 1.0], "FC-LSTM-I")
        assert len(grid.cells) == 2

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            sweep("flux_capacitance", [1])
        with pytest.raises(ValueError):
            sweep("warp_speed", [1])

"""Tests for the time-since-observation deltas MagiNet conditions on, and
the sensitivity sweep harness."""

import numpy as np
import pytest

from repro.experiments import (
    DataConfig,
    ModelConfig,
    default_trainer_config,
    run_grid,
    sweep,
)
from repro.models import compute_deltas

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

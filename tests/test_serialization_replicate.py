"""Tests for checkpointing and multi-seed replication."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    MissingParameterError,
    ShapeMismatchError,
)
from repro.experiments import DataConfig, GridSpec, run_grid
from repro.nn import Linear, Module, checkpoint_path, load_checkpoint, save_checkpoint
from repro.models import fc_lstm_i


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        model = fc_lstm_i(input_length=6, output_length=4, num_nodes=3,
                          num_features=2, embed_dim=4, hidden_dim=6, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)

        clone = fc_lstm_i(input_length=6, output_length=4, num_nodes=3,
                          num_features=2, embed_dim=4, hidden_dim=6, seed=99)
        load_checkpoint(clone, path)
        for (_n1, p1), (_n2, p2) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert np.allclose(p1.data, p2.data)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = fc_lstm_i(input_length=6, output_length=4, num_nodes=3,
                          num_features=2, embed_dim=4, hidden_dim=6, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        clone = load_checkpoint(
            fc_lstm_i(input_length=6, output_length=4, num_nodes=3,
                      num_features=2, embed_dim=4, hidden_dim=6, seed=5),
            path,
        )
        x = np.random.default_rng(0).normal(size=(2, 6, 3, 2))
        m = np.ones_like(x)
        steps = np.zeros((2, 6))
        a = model(x, m, steps).prediction.data
        b = clone(x, m, steps).prediction.data
        assert np.allclose(a, b)

    def test_shape_mismatch_rejected(self, tmp_path):
        small = Linear(2, 2, rng=np.random.default_rng(0))
        big = Linear(3, 3, rng=np.random.default_rng(0))

        class Wrap(Module):
            def __init__(self, layer):
                super().__init__()
                self.layer = layer

        path = tmp_path / "w.npz"
        save_checkpoint(Wrap(small), path)
        with pytest.raises(ShapeMismatchError):
            load_checkpoint(Wrap(big), path)

    def test_empty_model_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_checkpoint(Module(), tmp_path / "empty.npz")

    def test_suffixless_path_round_trips(self, tmp_path):
        """Regression: numpy.savez silently appends '.npz', so saving and
        loading the same suffix-less path used to FileNotFoundError."""
        model = fc_lstm_i(input_length=4, output_length=2, num_nodes=2,
                          num_features=1, embed_dim=3, hidden_dim=4, seed=0)
        path = tmp_path / "ckpt"  # no .npz on purpose
        written = save_checkpoint(model, path)
        assert written.endswith(".npz")
        clone = fc_lstm_i(input_length=4, output_length=2, num_nodes=2,
                          num_features=1, embed_dim=3, hidden_dim=4, seed=7)
        load_checkpoint(clone, path)  # same suffix-less path must resolve
        for (_n1, p1), (_n2, p2) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_checkpoint_path_normalisation(self):
        assert checkpoint_path("a/b") == "a/b.npz"
        assert checkpoint_path("a/b.npz") == "a/b.npz"

    def test_missing_parameter_error_names_it(self, tmp_path):
        class Small(Module):
            def __init__(self):
                super().__init__()
                self.first = Linear(2, 2, rng=np.random.default_rng(0))

        class Big(Module):
            def __init__(self):
                super().__init__()
                self.first = Linear(2, 2, rng=np.random.default_rng(0))
                self.second = Linear(2, 2, rng=np.random.default_rng(1))

        path = save_checkpoint(Small(), tmp_path / "small")
        with pytest.raises(MissingParameterError) as excinfo:
            load_checkpoint(Big(), path)
        message = str(excinfo.value)
        assert "second" in message  # the offending parameter, by name
        assert path in message

    def test_shape_mismatch_error_names_parameter_and_shapes(self, tmp_path):
        class Wrap(Module):
            def __init__(self, size):
                super().__init__()
                self.layer = Linear(size, size, rng=np.random.default_rng(0))

        path = save_checkpoint(Wrap(2), tmp_path / "w")
        with pytest.raises(ShapeMismatchError) as excinfo:
            load_checkpoint(Wrap(3), path)
        message = str(excinfo.value)
        assert "layer." in message
        assert "(2, 2)" in message and "(3, 3)" in message


#: the seed axis re-seeds data generation (mask draw, simulator) and model
#: initialization together, so the spread reflects the full pipeline
SEED_DATA = DataConfig(num_nodes=4, num_days=3, steps_per_day=96,
                       input_length=6, output_length=4, stride=8)


def seed_spec(seeds) -> GridSpec:
    return GridSpec("seeds", ("HA",), horizons=(2, 4), seeds=tuple(seeds))


class TestReplicate:
    def test_replicate_metric(self):
        cell = run_grid(seed_spec([1, 2, 3]), SEED_DATA).cell("HA")
        assert cell.seeds == (1, 2, 3)
        assert len(cell.runs) == 3
        assert cell.metric_at(4).mae == pytest.approx(
            np.mean([r.metric_at(4).mae for r in cell.runs])
        )

    def test_replicate_metric_needs_seeds(self):
        with pytest.raises(ValueError):
            seed_spec([])

    def test_replicate_model_runs_ha(self):
        """A seeds=(0, 1) cell is the mean of two single-seed grids."""
        spec = seed_spec([0, 1])
        merged = run_grid(spec, SEED_DATA).cell("HA")
        singles = [
            run_grid(replace(spec, seeds=(seed,)), SEED_DATA).cell("HA")
            for seed in (0, 1)
        ]
        assert [r.seeds for r in merged.runs] == [(0,), (1,)]
        for h in (2, 4):
            for metric in ("mae", "rmse"):
                assert getattr(merged.metric_at(h), metric) == pytest.approx(
                    np.mean([getattr(s.metric_at(h), metric) for s in singles])
                )
        assert merged.metric_at(4).rmse >= merged.metric_at(4).mae
        assert singles[0].spread[4].mae == 0.0

    def test_seed_variation_nonzero(self):
        """Different seeds should produce (slightly) different datasets."""
        cell = run_grid(seed_spec([0, 1]), SEED_DATA).cell("HA")
        maes = [r.metric_at(4).mae for r in cell.runs]
        assert cell.spread[4].mae == pytest.approx(np.std(maes))
        assert cell.spread[4].mae > 0

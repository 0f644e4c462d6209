"""Tests for metrics and the Trainer."""

import numpy as np
import pytest

from repro.datasets import MCARPattern, ZScoreScaler, make_pems_dataset, make_windows
from repro.graphs import gaussian_kernel_adjacency
from repro.models import fc_lstm_i, gcn_lstm
from repro.training import (
    MetricPair,
    Trainer,
    TrainerConfig,
    evaluate_horizons,
    mae,
    masked_mae,
    masked_rmse,
    rmse,
)


class TestMetrics:
    def test_mae_rmse_values(self):
        pred = np.array([1.0, 3.0])
        target = np.array([0.0, 0.0])
        assert mae(pred, target) == pytest.approx(2.0)
        assert rmse(pred, target) == pytest.approx(np.sqrt(5.0))

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=100)
        target = rng.normal(size=100)
        assert rmse(pred, target) >= mae(pred, target)

    def test_masked_variants_ignore_masked(self):
        pred = np.array([1.0, 100.0])
        target = np.zeros(2)
        mask = np.array([1.0, 0.0])
        assert masked_mae(pred, target, mask) == pytest.approx(1.0)
        assert masked_rmse(pred, target, mask) == pytest.approx(1.0)

    def test_masked_all_zero_safe(self):
        assert masked_mae(np.ones(3), np.zeros(3), np.zeros(3)) == 0.0

    def test_full_mask_equals_unmasked(self):
        rng = np.random.default_rng(1)
        pred, target = rng.normal(size=20), rng.normal(size=20)
        assert masked_mae(pred, target, np.ones(20)) == pytest.approx(mae(pred, target))
        assert masked_rmse(pred, target, np.ones(20)) == pytest.approx(rmse(pred, target))

    def test_metric_pair_iter_and_str(self):
        pair = MetricPair(mae=1.0, rmse=2.0)
        assert tuple(pair) == (1.0, 2.0)
        assert "MAE=1.0000" in str(pair)

    def test_evaluate_horizons_cumulative(self):
        pred = np.zeros((2, 4, 3, 1))
        target = np.zeros((2, 4, 3, 1))
        target[:, 2:] = 1.0  # errors only appear at steps 3-4
        mask = np.ones_like(target)
        out = evaluate_horizons(pred, target, mask, [2, 4])
        assert out[2].mae == pytest.approx(0.0)
        assert out[4].mae == pytest.approx(0.5)

    def test_evaluate_horizons_validates(self):
        pred = np.zeros((1, 4, 2, 1))
        with pytest.raises(ValueError):
            evaluate_horizons(pred, pred, np.ones_like(pred), [5])


@pytest.fixture(scope="module")
def training_env():
    ds = make_pems_dataset(num_nodes=4, num_days=3, steps_per_day=96, seed=0)
    rng = np.random.default_rng(1)
    masked = ds.with_mask(MCARPattern(rate=0.3).mask(ds.data.shape, rng=rng))
    scaler = ZScoreScaler().fit(masked.data, masked.mask)
    from dataclasses import replace

    scaled = replace(
        masked,
        data=scaler.transform(masked.data, masked.mask),
        truth=scaler.transform(masked.truth),
    )
    train, val, _test = scaled.chronological_split()
    wtr = make_windows(train, 6, 4, stride=4)
    wva = make_windows(val, 6, 4, stride=4)
    adjacency = gaussian_kernel_adjacency(ds.network.distances)
    return wtr, wva, adjacency, scaler


def small_model(adjacency):
    return gcn_lstm(
        input_length=6, output_length=4, num_nodes=4, num_features=4,
        adjacency=adjacency, embed_dim=6, hidden_dim=8, seed=0,
    )


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(max_epochs=0)


class TestTrainer:
    def test_loss_decreases(self, training_env):
        wtr, wva, adjacency, _scaler = training_env
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=5, batch_size=32, seed=0))
        history = trainer.fit(wtr, wva)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_records(self, training_env):
        wtr, wva, adjacency, _scaler = training_env
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=3, batch_size=32))
        history = trainer.fit(wtr, wva)
        assert history.num_epochs == 3
        assert len(history.val_loss) == 3
        assert len(history.grad_norms) == 3
        assert all(s > 0 for s in history.epoch_seconds)

    def test_best_weights_restored(self, training_env):
        """After fit, model loss on val equals the best recorded val loss."""
        wtr, wva, adjacency, _scaler = training_env
        trainer = Trainer(small_model(adjacency),
                          TrainerConfig(max_epochs=5, batch_size=32))
        history = trainer.fit(wtr, wva)
        final_val = trainer.evaluate_loss(wva)
        assert final_val == pytest.approx(min(history.val_loss), rel=1e-6)

    def test_early_stopping_triggers(self, training_env):
        wtr, _wva, adjacency, _scaler = training_env
        # Degenerate "validation" identical to train but tiny patience and
        # huge lr to force oscillation -> early stop within budget.
        trainer = Trainer(
            small_model(adjacency),
            TrainerConfig(max_epochs=40, patience=2, learning_rate=0.5,
                          batch_size=32),
        )
        history = trainer.fit(wtr, wtr)
        assert history.num_epochs < 40
        assert history.stopped_early

    def test_predict_shapes(self, training_env):
        wtr, wva, adjacency, _scaler = training_env
        trainer = Trainer(small_model(adjacency), TrainerConfig(max_epochs=1))
        trainer.fit(wtr, None)
        pred = trainer.predict(wva)
        assert pred.shape == (wva.num_windows, 4, 4, 4)

    def test_evaluate_returns_metrics(self, training_env):
        wtr, wva, adjacency, scaler = training_env
        trainer = Trainer(small_model(adjacency), TrainerConfig(max_epochs=1))
        trainer.fit(wtr, None)
        report = trainer.evaluate(wva, scaler=scaler, target_feature=0)
        assert report.mae > 0
        assert report.rmse >= report.mae

    def test_imputation_model_uses_joint_loss(self, training_env):
        wtr, wva, _adjacency, _scaler = training_env
        model = fc_lstm_i(
            input_length=6, output_length=4, num_nodes=4, num_features=4,
            embed_dim=6, hidden_dim=8, seed=0,
        )
        trainer = Trainer(model, TrainerConfig(max_epochs=2, batch_size=32,
                                               imputation_weight=1.0))
        history = trainer.fit(wtr, wva)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_lambda_zero_matches_prediction_only_loss(self, training_env):
        """With lambda=0 the joint loss reduces to the prediction loss."""
        wtr, _wva, _adjacency, _scaler = training_env
        model = fc_lstm_i(
            input_length=6, output_length=4, num_nodes=4, num_features=4,
            embed_dim=6, hidden_dim=8, seed=0,
        )
        trainer = Trainer(model, TrainerConfig(imputation_weight=0.0))
        batch = wtr.subset(np.arange(8))
        loss = trainer._batch_loss(batch).item()
        from repro.autodiff import no_grad
        from repro.training.metrics import masked_mae as np_masked_mae

        with no_grad():
            out = model(batch.x, batch.m, batch.steps_of_day)
        direct = np_masked_mae(out.prediction.data, batch.y, batch.y_mask)
        assert loss == pytest.approx(direct, rel=1e-6)

    def test_deterministic_training(self, training_env):
        wtr, _wva, adjacency, _scaler = training_env
        losses = []
        for _ in range(2):
            trainer = Trainer(small_model(adjacency),
                              TrainerConfig(max_epochs=2, batch_size=32, seed=5))
            history = trainer.fit(wtr, None)
            losses.append(tuple(history.train_loss))
        assert losses[0] == losses[1]

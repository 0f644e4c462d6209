"""Tests for the daily-periodic windows and the multi-branch ASTGCN."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import MCARPattern, make_pems_dataset, make_windows
from repro.graphs import gaussian_kernel_adjacency
from repro.models import ASTGCN
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def dataset():
    ds = make_pems_dataset(num_nodes=4, num_days=4, steps_per_day=96, seed=0)
    return ds.with_mask(MCARPattern(rate=0.2).mask(ds.data.shape, rng=np.random.default_rng(1)))


class TestDailyWindows:
    def test_shapes(self, dataset):
        w = make_windows(dataset, 6, 4, stride=8, daily_segments=2)
        assert w.x_daily is not None
        assert w.x_daily.shape == (w.num_windows, 2 * 4, 4, 4)
        assert w.m_daily.shape == w.x_daily.shape

    def test_windows_without_enough_history_dropped(self, dataset):
        plain = make_windows(dataset, 6, 4, stride=8)
        daily = make_windows(dataset, 6, 4, stride=8, daily_segments=2)
        assert daily.num_windows < plain.num_windows

    def test_daily_values_correct(self, dataset):
        """The daily block k days back equals the data at t_fcst - k*spd."""
        w = make_windows(dataset, 6, 4, stride=1, daily_segments=1)
        spd = dataset.steps_per_day
        # First retained window starts at spd - 6.
        start = spd - 6
        forecast_start = start + 6
        expected = dataset.data[forecast_start - spd : forecast_start - spd + 4]
        assert np.allclose(w.x_daily[0], expected)

    def test_too_many_segments_raises(self, dataset):
        with pytest.raises(ValueError):
            make_windows(dataset, 6, 4, daily_segments=50)

    def test_negative_segments_rejected(self, dataset):
        with pytest.raises(ValueError):
            make_windows(dataset, 6, 4, daily_segments=-1)

    def test_subset_and_truncate_carry_daily(self, dataset):
        w = make_windows(dataset, 6, 4, stride=8, daily_segments=1)
        sub = w.subset(np.array([0, 1]))
        assert sub.x_daily.shape[0] == 2
        short = replace(w, y=w.y[:, :2], y_mask=w.y_mask[:, :2],
                        horizon_steps=w.horizon_steps[:2])
        assert short.output_length == 2
        assert short.x_daily is not None

    def test_daily_fields_must_pair(self, dataset):
        w = make_windows(dataset, 6, 4, stride=8, daily_segments=1)
        from repro.datasets import WindowSet

        with pytest.raises(ValueError):
            WindowSet(
                x=w.x, m=w.m, y=w.y, y_mask=w.y_mask,
                steps_of_day=w.steps_of_day, horizon_steps=w.horizon_steps,
                x_daily=w.x_daily, m_daily=None,
            )


class TestMultiBranchASTGCN:
    def _model(self, dataset, daily_segments):
        adjacency = gaussian_kernel_adjacency(dataset.network.distances)
        return ASTGCN(
            input_length=6, output_length=4, num_nodes=4, num_features=4,
            adjacency=adjacency, hidden_channels=6,
            daily_segments=daily_segments, seed=0,
        )

    def test_daily_branch_forward(self, dataset):
        w = make_windows(dataset, 6, 4, stride=8, daily_segments=2)
        model = self._model(dataset, daily_segments=2)
        assert model.uses_periodic
        out = model(w.x[:3], w.m[:3], w.steps_of_day[:3],
                    x_daily=w.x_daily[:3], m_daily=w.m_daily[:3])
        assert out.prediction.shape == (3, 4, 4, 4)

    def test_daily_branch_requires_data(self, dataset):
        w = make_windows(dataset, 6, 4, stride=8)
        model = self._model(dataset, daily_segments=2)
        with pytest.raises(ValueError):
            model(w.x[:2], w.m[:2], w.steps_of_day[:2])

    def test_recent_only_ignores_periodic(self, dataset):
        w = make_windows(dataset, 6, 4, stride=8)
        model = self._model(dataset, daily_segments=0)
        assert not model.uses_periodic
        out = model(w.x[:2], w.m[:2], w.steps_of_day[:2])
        assert out.prediction.shape == (2, 4, 4, 4)

    def test_fusion_weights_trainable(self, dataset):
        w = make_windows(dataset, 6, 4, stride=8, daily_segments=1)
        model = self._model(dataset, daily_segments=1)
        out = model(w.x[:2], w.m[:2], w.steps_of_day[:2],
                    x_daily=w.x_daily[:2], m_daily=w.m_daily[:2])
        out.prediction.sum().backward()
        assert model.fuse_recent.grad is not None
        assert model.fuse_daily.grad is not None

    def test_trainer_integration(self, dataset):
        """Trainer must route x_daily automatically for periodic models."""
        w = make_windows(dataset, 6, 4, stride=8, daily_segments=1)
        model = self._model(dataset, daily_segments=1)
        trainer = Trainer(model, TrainerConfig(max_epochs=2, batch_size=16))
        history = trainer.fit(w, None)
        assert history.train_loss[-1] < history.train_loss[0]
        pred = trainer.predict(w)
        assert pred.shape == (w.num_windows, 4, 4, 4)

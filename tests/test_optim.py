"""Tests for the optimizer, gradient clipping and early stopping."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Linear, Parameter
from repro.optim import Adam, EarlyStopping, clip_grad_norm


def quadratic_params(seed=0):
    rng = np.random.default_rng(seed)
    return Parameter(rng.normal(size=(5,)) * 3.0)


class TestAdam:
    def test_minimizes_quadratic(self):
        p = quadratic_params()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_skips_none_grads(self):
        p = quadratic_params()
        before = p.data.copy()
        Adam([p]).step()  # no grad accumulated
        assert np.allclose(p.data, before)

    def test_bias_correction_first_step_magnitude(self):
        # With bias correction the first Adam step is ~lr in magnitude.
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.5)
        opt.zero_grad()
        (p * 2.0).sum().backward()
        opt.step()
        assert abs(10.0 - p.data[0]) == pytest.approx(0.5, rel=0.01)

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.0001, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 5.0

    def test_rejects_bad_hyperparams(self):
        p = quadratic_params()
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([p], betas=(1.5, 0.9))
        with pytest.raises(ValueError):
            Adam([p], eps=0.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0], [-3.0]])
        x = rng.normal(size=(128, 2))
        y = x @ true_w
        layer = Linear(2, 1, rng=np.random.default_rng(1))
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            loss = ((layer(Tensor(x)) - y) ** 2).mean()
            loss.backward()
            opt.step()
        assert np.allclose(layer.weight.data, true_w, atol=0.05)


class TestClipping:
    def test_clip_grad_norm_scales(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_noop_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=10.0)
        assert np.allclose(p.grad, 0.1)

    def test_clip_grad_norm_empty(self):
        assert clip_grad_norm([], 1.0) == 0.0


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=3)
        stopper.step(1.0, 0)
        for epoch in range(1, 4):
            stopper.step(2.0, epoch)
        assert stopper.should_stop

    def test_improvement_resets(self):
        stopper = EarlyStopping(patience=2)
        stopper.step(1.0, 0)
        stopper.step(1.5, 1)
        stopper.step(0.9, 2)  # new best
        stopper.step(1.5, 3)
        assert not stopper.should_stop
        assert stopper.best_epoch == 2

    def test_returns_true_on_best(self):
        stopper = EarlyStopping(patience=2)
        assert stopper.step(1.0, 0)
        assert not stopper.step(1.1, 1)

    def test_min_delta(self):
        stopper = EarlyStopping(patience=5, min_delta=0.1)
        stopper.step(1.0, 0)
        assert not stopper.step(0.95, 1)  # improvement below min_delta

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

"""Tests for losses and weight initializers."""

import threading

import numpy as np
import pytest

from repro.autodiff import Tensor, default_dtype, dtype_policy
from repro.nn import ImputationConsistencyLoss, JointLoss, MaskedMAELoss, init


class TestMaskedLosses:
    def test_masked_mae_ignores_masked(self):
        pred = Tensor([1.0, 100.0])
        target = np.array([0.0, 0.0])
        mask = np.array([1.0, 0.0])
        assert MaskedMAELoss()(pred, target, mask).item() == pytest.approx(1.0)

    def test_empty_mask_is_safe(self):
        pred = Tensor([1.0, 2.0])
        loss = MaskedMAELoss()(pred, np.zeros(2), np.zeros(2))
        assert loss.item() == pytest.approx(0.0)

    def test_gradient_only_on_observed(self):
        pred = Tensor([1.0, 1.0], requires_grad=True)
        MaskedMAELoss()(pred, np.zeros(2), np.array([1.0, 0.0])).backward()
        assert pred.grad[1] == 0.0
        assert pred.grad[0] != 0.0


class TestConsistencyLoss:
    def test_observed_term(self):
        # All observed: loss is MAE between mean estimate and target.
        fwd = Tensor([2.0])
        bwd = Tensor([4.0])
        target = np.array([3.0])
        mask = np.array([1.0])
        loss = ImputationConsistencyLoss()(fwd, bwd, target, mask)
        assert loss.item() == pytest.approx(0.0)

    def test_consistency_term_on_missing(self):
        fwd = Tensor([2.0])
        bwd = Tensor([4.0])
        mask = np.array([0.0])  # missing -> only consistency applies
        loss = ImputationConsistencyLoss()(fwd, bwd, np.zeros(1), mask)
        assert loss.item() == pytest.approx(2.0)

    def test_both_terms_combined(self):
        fwd = Tensor([1.0, 2.0])
        bwd = Tensor([3.0, 6.0])
        target = np.array([0.0, 0.0])
        mask = np.array([1.0, 0.0])
        # observed: |mean(1,3) - 0| = 2 ; consistency: |2 - 6| = 4.
        loss = ImputationConsistencyLoss()(fwd, bwd, target, mask)
        assert loss.item() == pytest.approx(2.0 + 4.0)

    def test_gradients_to_both_directions(self):
        fwd = Tensor([1.0], requires_grad=True)
        bwd = Tensor([5.0], requires_grad=True)
        ImputationConsistencyLoss()(fwd, bwd, np.zeros(1), np.zeros(1)).backward()
        assert fwd.grad is not None and bwd.grad is not None


class TestJointLoss:
    def test_prediction_only_when_no_estimates(self):
        loss_fn = JointLoss(imputation_weight=1.0)
        pred = Tensor([1.0])
        loss = loss_fn(pred, np.zeros(1), np.ones(1))
        assert loss.item() == pytest.approx(1.0)

    def test_lambda_scales_imputation_term(self):
        small = JointLoss(imputation_weight=0.1)
        large = JointLoss(imputation_weight=10.0)
        pred = Tensor([0.0])
        kwargs = dict(
            estimates_fwd=Tensor([1.0]),
            estimates_bwd=Tensor([3.0]),
            history=np.array([0.0]),
            history_mask=np.array([1.0]),
        )
        l_small = small(pred, np.zeros(1), np.ones(1), **kwargs).item()
        l_large = large(pred, np.zeros(1), np.ones(1), **kwargs).item()
        assert l_large > l_small

    def test_zero_lambda_drops_imputation(self):
        loss_fn = JointLoss(imputation_weight=0.0)
        pred = Tensor([0.0])
        loss = loss_fn(
            pred, np.zeros(1), np.ones(1),
            estimates_fwd=Tensor([100.0]),
            estimates_bwd=Tensor([100.0]),
            history=np.array([0.0]),
            history_mask=np.array([1.0]),
        )
        assert loss.item() == pytest.approx(0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            JointLoss(imputation_weight=-1.0)


class TestInitializers:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        assert init.xavier_uniform((3, 4), rng).shape == (3, 4)
        assert init.normal((3, 4), rng).shape == (3, 4)
        assert init.zeros((5,)).shape == (5,)
        assert np.allclose(init.ones((2,)), 1.0)

    def test_xavier_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((100, 100), rng)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= bound

    def test_fan_requires_two_dims(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((5,), np.random.default_rng(0))

    def test_orthogonal_is_orthogonal(self):
        rng = np.random.default_rng(0)
        w = init.orthogonal((6, 6), rng)
        assert w.dtype == default_dtype()
        assert np.allclose(w @ w.T, np.eye(6), atol=1e-5)
        with dtype_policy(np.float64):
            w64 = init.orthogonal((6, 6), np.random.default_rng(0))
        assert np.allclose(w64 @ w64.T, np.eye(6), atol=1e-10)

    def test_orthogonal_rectangular_columns(self):
        rng = np.random.default_rng(0)
        w = init.orthogonal((8, 4), rng)
        assert np.allclose(w.T @ w, np.eye(4), atol=1e-5)

    def test_orthogonal_gain(self):
        rng = np.random.default_rng(0)
        w = init.orthogonal((4, 4), rng, gain=2.0)
        assert np.allclose(w @ w.T, 4.0 * np.eye(4), atol=1e-5)

    def test_orthogonal_rejects_1d(self):
        with pytest.raises(ValueError):
            init.orthogonal((4,), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        w1 = init.xavier_uniform((3, 3), np.random.default_rng(7))
        w2 = init.xavier_uniform((3, 3), np.random.default_rng(7))
        assert np.allclose(w1, w2)


class TestNoDraw:
    def test_initializers_return_zeros_and_generator_none(self):
        with init.no_draw():
            assert init.generator(0) is None
            drawn = [init.uniform((2, 3), None), init.normal((2, 3), None),
                     init.xavier_uniform((2, 3), None), init.orthogonal((3, 3), None)]
            with pytest.raises(ValueError):
                init.xavier_uniform((5,), None)  # shapes are still checked
        for w in drawn:
            assert w.dtype == default_dtype() and not w.any()
        assert isinstance(init.generator(0), np.random.Generator)

    def test_scope_nests_and_stays_on_its_thread(self):
        other = []
        with init.no_draw():
            with init.no_draw():
                pass
            assert init.generator(0) is None  # the inner exit keeps the outer scope
            thread = threading.Thread(target=lambda: other.append(init.generator(0)))
            thread.start()
            thread.join()
        assert isinstance(other[0], np.random.Generator)
        assert init.generator(0) is not None

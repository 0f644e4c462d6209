"""Gradient verification: every primitive op against finite differences.

This is the load-bearing correctness test for the whole reproduction —
training dynamics depend on exact gradients through every op, including
the recurrent imputation path.
"""

import numpy as np

from repro.autodiff import (
    Tensor,
    concat,
    gradcheck,
    softmax,
    stack,
    where,
)


def _t(shape, seed=0, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale + shift, requires_grad=True)


class TestElementwiseGrads:
    def test_add(self):
        assert gradcheck(lambda a, b: a + b, [_t((3, 4)), _t((3, 4), 1)])

    def test_add_broadcast(self):
        assert gradcheck(lambda a, b: a + b, [_t((2, 3, 4)), _t((4,), 1)])

    def test_sub(self):
        assert gradcheck(lambda a, b: a - b, [_t((3, 4)), _t((4,), 1)])

    def test_mul(self):
        assert gradcheck(lambda a, b: a * b, [_t((3, 4)), _t((3, 1), 1)])

    def test_div(self):
        b = _t((3, 4), 1, shift=5.0)  # keep denominator away from zero
        assert gradcheck(lambda a, b: a / b, [_t((3, 4)), b])

    def test_neg(self):
        assert gradcheck(lambda a: -a, [_t((5,))])

    def test_pow(self):
        a = Tensor(np.abs(np.random.default_rng(0).normal(size=(4,))) + 1.0,
                   requires_grad=True)
        assert gradcheck(lambda a: a ** 3, [a])

    def test_exp(self):
        assert gradcheck(lambda a: a.exp(), [_t((3, 3), scale=0.5)])

    def test_log(self):
        a = Tensor(np.random.default_rng(0).uniform(0.5, 3.0, size=(4,)),
                   requires_grad=True)
        assert gradcheck(lambda a: a.log(), [a])

    def test_sqrt(self):
        a = Tensor(np.random.default_rng(0).uniform(0.5, 3.0, size=(4,)),
                   requires_grad=True)
        assert gradcheck(lambda a: a.sqrt(), [a])

    def test_tanh(self):
        assert gradcheck(lambda a: a.tanh(), [_t((3, 4))])

    def test_sigmoid(self):
        assert gradcheck(lambda a: a.sigmoid(), [_t((3, 4))])

    def test_relu_away_from_kink(self):
        a = Tensor(np.random.default_rng(0).normal(size=(20,)), requires_grad=True)
        a.data[np.abs(a.data) < 0.05] = 0.5  # avoid non-differentiable points
        assert gradcheck(lambda a: a.relu(), [a])

    def test_abs_away_from_kink(self):
        a = Tensor(np.random.default_rng(1).normal(size=(20,)), requires_grad=True)
        a.data[np.abs(a.data) < 0.05] = 1.0
        assert gradcheck(lambda a: a.abs(), [a])

    def test_clip_interior(self):
        a = Tensor(np.random.default_rng(0).uniform(-0.8, 0.8, size=(10,)),
                   requires_grad=True)
        assert gradcheck(lambda a: a.clip(-1.0, 1.0), [a])


class TestReductionGrads:
    def test_sum_all(self):
        assert gradcheck(lambda a: a.sum(), [_t((3, 4))])

    def test_sum_axis(self):
        assert gradcheck(lambda a: a.sum(axis=1), [_t((3, 4))])

    def test_sum_keepdims(self):
        assert gradcheck(lambda a: a.sum(axis=0, keepdims=True), [_t((3, 4))])

    def test_mean_all(self):
        assert gradcheck(lambda a: a.mean(), [_t((3, 4))])

    def test_mean_axis_tuple(self):
        assert gradcheck(lambda a: a.mean(axis=(0, 2)), [_t((2, 3, 4))])

    def test_max_axis(self):
        rng = np.random.default_rng(5)
        # Well-separated values so the argmax is stable under perturbation.
        a = Tensor(rng.permutation(24).astype(float).reshape(4, 6),
                   requires_grad=True)
        assert gradcheck(lambda a: a.max(axis=1), [a], eps=1e-4)

    def test_min_all(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.permutation(12).astype(float).reshape(3, 4),
                   requires_grad=True)
        assert gradcheck(lambda a: a.min(), [a], eps=1e-4)


class TestMatmulGrads:
    def test_2d(self):
        assert gradcheck(lambda a, b: a @ b, [_t((3, 4)), _t((4, 5), 1)])

    def test_batched(self):
        assert gradcheck(lambda a, b: a @ b, [_t((2, 3, 4)), _t((2, 4, 2), 1)])

    def test_broadcast_left(self):
        assert gradcheck(lambda a, b: a @ b, [_t((3, 3)), _t((5, 3, 2), 1)])

    def test_broadcast_right(self):
        assert gradcheck(lambda a, b: a @ b, [_t((5, 2, 3)), _t((3, 3), 1)])

    def test_vector_matrix(self):
        assert gradcheck(lambda a, b: a @ b, [_t((4,)), _t((4, 3), 1)])

    def test_matrix_vector(self):
        assert gradcheck(lambda a, b: a @ b, [_t((3, 4)), _t((4,), 1)])

    def test_batched_matrix_vector(self):
        assert gradcheck(lambda a, b: a @ b, [_t((2, 3, 4)), _t((4,), 1)])


class TestShapeGrads:
    def test_reshape(self):
        assert gradcheck(lambda a: (a.reshape(6, 2) ** 2), [_t((3, 4))])

    def test_transpose(self):
        assert gradcheck(lambda a: a.transpose(2, 0, 1) * 2.0, [_t((2, 3, 4))])

    def test_getitem_slice(self):
        assert gradcheck(lambda a: a[1:, :2] * 3.0, [_t((3, 4))])

    def test_pad(self):
        assert gradcheck(lambda a: a.pad([(1, 1), (0, 2)]) * 2.0, [_t((2, 3))])

    def test_concat(self):
        assert gradcheck(
            lambda a, b: concat([a, b], axis=1) ** 2, [_t((2, 3)), _t((2, 2), 1)]
        )

    def test_stack(self):
        assert gradcheck(
            lambda a, b: stack([a, b], axis=-1).tanh(), [_t((2, 3)), _t((2, 3), 1)]
        )

    def test_where(self):
        cond = np.random.default_rng(2).random((3, 4)) > 0.5
        assert gradcheck(
            lambda a, b: where(cond, a, b), [_t((3, 4)), _t((3, 4), 1)]
        )


class TestCompositeGrads:
    def test_softmax(self):
        assert gradcheck(lambda a: softmax(a, axis=-1) * 3.0, [_t((3, 5))])

    def test_mlp_like_chain(self):
        w1, w2 = _t((4, 8), 1), _t((8, 2), 2)
        x = _t((5, 4), 0)
        assert gradcheck(lambda x, w1, w2: ((x @ w1).tanh() @ w2).sigmoid(),
                         [x, w1, w2])

    def test_lstm_gate_chain(self):
        # Reproduces the core LSTM cell computation shape.
        x, h = _t((3, 4), 0), _t((3, 6), 1)
        w = _t((4, 6), 2)
        u = _t((6, 6), 3)
        assert gradcheck(
            lambda x, h, w, u: ((x @ w + h @ u).sigmoid() * h.tanh()),
            [x, h, w, u],
        )

    def test_recurrent_imputation_pattern(self):
        # Estimate feeds back as input of the next step and must carry grads.
        w = _t((2, 2), 3)
        x = _t((4, 2), 0)
        mask = np.random.default_rng(1).random((4, 2)) > 0.5

        def loop(x, w):
            est = Tensor(np.zeros((4, 2)))
            outs = []
            for _ in range(3):
                comp = where(mask, x, est)
                est = (comp @ w).tanh()
                outs.append(est)
            return concat(outs, axis=-1)

        assert gradcheck(loop, [x, w])

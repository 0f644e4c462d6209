"""Unit tests for the autodiff Tensor: op semantics and graph mechanics."""

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    as_tensor,
    concat,
    default_dtype,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_integer_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == default_dtype()

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        t = as_tensor(3.5)
        assert float(t.data) == 3.5

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert np.allclose(b.data, [2.0, 4.0])

    def test_item_on_scalar(self):
        assert Tensor(5.0).item() == 5.0

    def test_len_and_repr(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert len(t) == 3
        assert "Tensor" in repr(t)


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.allclose(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + Tensor([1.0, 2.0])
        assert np.allclose(out.data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        assert np.allclose((Tensor([3.0]) - 1.0).data, [2.0])
        assert np.allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        a = Tensor([2.0, 4.0])
        assert np.allclose((a * 3).data, [6.0, 12.0])
        assert np.allclose((a / 2).data, [1.0, 2.0])
        assert np.allclose((8.0 / a).data, [4.0, 2.0])

    def test_neg_pow(self):
        a = Tensor([2.0, -3.0])
        assert np.allclose((-a).data, [-2.0, 3.0])
        assert np.allclose((a ** 2).data, [4.0, 9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_comparison_returns_bool_array(self):
        mask = Tensor([1.0, 3.0]) > 2.0
        assert mask.dtype == bool
        assert mask.tolist() == [False, True]

    def test_broadcast_add_shapes(self):
        out = Tensor(np.ones((2, 3, 4))) + Tensor(np.ones(4))
        assert out.shape == (2, 3, 4)


class TestBackwardMechanics:
    def test_simple_chain(self):
        a = Tensor([2.0], requires_grad=True)
        out = (a * 3.0 + 1.0).sum()
        out.backward()
        assert np.allclose(a.grad, [3.0])

    def test_gradient_accumulates_over_calls(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        assert np.allclose(a.grad, [4.0])

    def test_diamond_graph_accumulates(self):
        a = Tensor([3.0], requires_grad=True)
        b = a * 2
        out = (b + b).sum()
        out.backward()
        assert np.allclose(a.grad, [4.0])

    def test_backward_requires_scalar_or_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [3.0, 30.0])

    def test_backward_on_leaf_raises_without_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_broadcast_backward_unbroadcasts(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_long_chain_does_not_recurse(self):
        # Iterative topological sort must survive thousands of nodes.
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 0.001
        x.sum().backward()
        assert np.allclose(a.grad, [1.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_grad_mode_is_thread_local(self):
        # A worker thread inside no_grad must not disable grad recording
        # on the main thread (the serving stack runs no-grad forwards on
        # engine/router threads concurrently with training).
        import threading

        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with no_grad():
                seen["worker"] = is_grad_enabled()
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=10)
        try:
            assert seen["worker"] is False
            assert is_grad_enabled(), "worker no_grad leaked to main thread"
        finally:
            release.set()
            thread.join()
        assert is_grad_enabled()

    def test_overlapping_no_grad_across_threads_restores_cleanly(self):
        # Regression: with a process-global flag, two overlapping
        # contexts on different threads restored their saved values out
        # of order and left grad recording off for every thread.
        import threading

        barrier = threading.Barrier(2, timeout=10)

        def worker():
            with no_grad():
                barrier.wait()  # overlap with the main thread's context
                barrier.wait()

        thread = threading.Thread(target=worker)
        thread.start()
        with no_grad():
            barrier.wait()
        barrier.wait()
        thread.join()
        assert is_grad_enabled()


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.reshape(3, 2).sum().backward()
        assert a.grad.shape == (2, 3)
        assert np.allclose(a.grad, 1.0)

    def test_reshape_accepts_tuple(self):
        a = Tensor(np.arange(6.0))
        assert a.reshape((3, 2)).shape == (3, 2)

    def test_transpose_default_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)

    def test_transpose_with_axes_grad(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
        out = a.transpose(1, 0, 2)
        assert out.shape == (3, 2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_swapaxes(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.swapaxes(0, 2).shape == (4, 3, 2)

    def test_squeeze_unsqueeze(self):
        a = Tensor(np.zeros((2, 1, 3)))
        assert a.squeeze(1).shape == (2, 3)
        assert a.unsqueeze(0).shape == (1, 2, 1, 3)

    def test_getitem_grad_scatter(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        assert np.allclose(a.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([1, 1, 2])
        a[idx].sum().backward()
        assert np.allclose(a.grad, [0.0, 2.0, 1.0, 0.0])

    def test_pad_shape_and_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.pad([(1, 0), (0, 2)])
        assert out.shape == (3, 5)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_broadcast_to_grad_sums(self):
        a = Tensor(np.ones((1, 3)), requires_grad=True)
        a.broadcast_to((4, 3)).sum().backward()
        assert np.allclose(a.grad, 4.0)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)))
        assert a.sum(axis=0).shape == (3,)
        assert a.sum(axis=0, keepdims=True).shape == (1, 3)

    def test_mean_value(self):
        assert Tensor([1.0, 2.0, 3.0]).mean().item() == pytest.approx(2.0)

    def test_mean_axis_grad(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        assert np.allclose(a.grad, 0.25)

    def test_max_grad_routes_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        a = Tensor([[1.0, 2.0], [5.0, 0.0]])
        assert np.allclose(a.max(axis=1).data, [2.0, 5.0])

    def test_max_ties_split_gradient(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad.sum(), 1.0)

    def test_min(self):
        a = Tensor([[3.0, -1.0]])
        assert a.min().item() == -1.0


class TestMultiTensorOps:
    def test_concat_values_and_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = concat([a, b], axis=0)
        assert np.allclose(out.data, [1.0, 2.0, 3.0])
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        assert np.allclose(a.grad, [1.0, 2.0])
        assert np.allclose(b.grad, [3.0])

    def test_concat_last_axis(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert concat([a, b], axis=-1).shape == (2, 5)

    def test_stack_new_axis_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    def test_where_routes_gradients(self):
        cond = np.array([True, False])
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])

    def test_where_broadcasts(self):
        cond = np.array([[True], [False]])
        out = where(cond, Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3))))
        assert np.allclose(out.data[0], 1.0)
        assert np.allclose(out.data[1], 0.0)


class TestMatmul:
    def test_matrix_matrix(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        assert np.allclose((a @ b).data, b.data)

    def test_batched(self):
        a = Tensor(np.random.default_rng(0).normal(size=(5, 3, 4)))
        b = Tensor(np.random.default_rng(1).normal(size=(5, 4, 2)))
        out = a @ b
        assert out.shape == (5, 3, 2)
        assert np.allclose(out.data, np.matmul(a.data, b.data))

    def test_broadcast_batch(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        b = Tensor(np.random.default_rng(1).normal(size=(7, 3, 2)))
        assert (a @ b).shape == (7, 3, 2)

    def test_vector_matrix_grad(self):
        v = Tensor(np.ones(3), requires_grad=True)
        m = Tensor(np.eye(3), requires_grad=True)
        (v @ m).sum().backward()
        assert v.grad.shape == (3,)
        assert m.grad.shape == (3, 3)

    def test_rmatmul(self):
        out = np.eye(2) @ Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(out.data, [[1.0, 2.0], [3.0, 4.0]])


class TestNonlinearities:
    def test_sigmoid_range_and_stability(self):
        x = Tensor([-1000.0, 0.0, 1000.0])
        out = x.sigmoid().data
        assert np.all(out >= 0) and np.all(out <= 1)
        assert out[1] == pytest.approx(0.5)
        assert np.isfinite(out).all()

    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_abs_grad_sign(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.abs().sum().backward()
        assert np.allclose(a.grad, [-1.0, 1.0])

    def test_clip(self):
        a = Tensor([-5.0, 0.5, 5.0], requires_grad=True)
        out = a.clip(-1.0, 1.0)
        assert np.allclose(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_exp_log_inverse(self):
        x = Tensor([0.5, 1.5])
        assert np.allclose(x.exp().log().data, x.data)

    def test_sqrt(self):
        assert np.allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])

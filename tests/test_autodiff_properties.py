"""Property-based tests (hypothesis) for autodiff invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autodiff import (
    Tensor,
    concat,
    gradcheck,
    inference_mode,
    is_grad_enabled,
    no_grad,
    softmax,
    stack,
    where,
)

SMALL_FLOATS = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def small_arrays(max_dims=3, max_side=4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=SMALL_FLOATS,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_add_commutative(data):
    a = Tensor(data)
    b = Tensor(data[::-1].copy().reshape(data.shape))
    assert np.allclose((a + b).data, (b + a).data)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_double_negation_identity(data):
    a = Tensor(data)
    assert np.allclose((-(-a)).data, data)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_sum_matches_numpy(data):
    np.testing.assert_allclose(Tensor(data).sum().item(), data.sum())


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_mean_between_min_and_max(data):
    t = Tensor(data)
    mean = t.mean().item()
    assert data.min() - 1e-9 <= mean <= data.max() + 1e-9


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_sigmoid_bounded(data):
    out = Tensor(data).sigmoid().data
    assert np.all(out > 0.0) and np.all(out < 1.0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_relu_idempotent(data):
    t = Tensor(data)
    once = t.relu().data
    twice = t.relu().relu().data
    assert np.allclose(once, twice)


@settings(max_examples=40, deadline=None)
@given(small_arrays(max_dims=2))
def test_softmax_rows_sum_to_one(data):
    out = softmax(Tensor(data), axis=-1).data
    assert np.allclose(out.sum(axis=-1), 1.0)
    assert np.all(out >= 0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_reshape_preserves_sum(data):
    t = Tensor(data)
    flat = t.reshape(data.size)
    np.testing.assert_allclose(flat.sum().item(), t.sum().item())


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2, max_side=3))
def test_gradient_of_sum_is_ones(data):
    t = Tensor(data, requires_grad=True)
    t.sum().backward()
    assert np.allclose(t.grad, np.ones_like(data))


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2, max_side=3), st.floats(min_value=0.1, max_value=5.0))
def test_gradient_linear_in_scale(data, scale):
    t1 = Tensor(data.copy(), requires_grad=True)
    (t1 * scale).sum().backward()
    assert np.allclose(t1.grad, scale)


@settings(max_examples=20, deadline=None)
@given(
    arrays(np.float64, (3, 3), elements=st.floats(min_value=-2, max_value=2)),
)
def test_tanh_gradcheck_random_inputs(data):
    t = Tensor(data, requires_grad=True)
    assert gradcheck(lambda a: a.tanh(), [t])


# ----------------------------------------------------------------------
# no_grad fast path: bitwise-equal forwards, no graph allocated
# ----------------------------------------------------------------------

UNARY_OPS = {
    "neg": lambda t: -t,
    "exp": lambda t: (t * 0.1).exp(),
    "log": lambda t: (t.abs() + 1.0).log(),
    "sqrt": lambda t: (t.abs() + 0.5).sqrt(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "relu": lambda t: t.relu(),
    "abs": lambda t: t.abs(),
    "clip": lambda t: t.clip(-1.0, 1.0),
    "pow": lambda t: t ** 3,
    "sum": lambda t: t.sum(),
    "mean": lambda t: t.mean(axis=0),
    "max": lambda t: t.max(),
    "reshape": lambda t: t.reshape(-1),
    "transpose": lambda t: t.transpose(),
    "squeeze_unsqueeze": lambda t: t.unsqueeze(0).squeeze(0),
    "getitem": lambda t: t[..., :1],
    "pad_like": lambda t: t.unsqueeze(0).pad(((1, 1),) + ((0, 0),) * t.ndim),
}

BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (b.abs() + 1.0),
    "matmul": lambda a, b: a.reshape(a.size, 1) @ b.reshape(1, b.size),
    "maximum": lambda a, b: where(a.data >= b.data, a, b),
    "where": lambda a, b: where(Tensor((a.data > 0).astype(float)), a, b),
    "concat": lambda a, b: concat([a, b], axis=0),
    "stack": lambda a, b: stack([a, b], axis=0),
}


def _has_no_graph(tensor):
    return tensor._parents == () and tensor._backward is None


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
@settings(max_examples=15, deadline=None)
@given(data=small_arrays())
def test_unary_op_no_grad_bitwise_equal_and_graph_free(name, data):
    op = UNARY_OPS[name]
    grad_out = op(Tensor(data, requires_grad=True))
    with no_grad():
        fast_out = op(Tensor(data, requires_grad=True))
    np.testing.assert_array_equal(grad_out.data, fast_out.data)
    assert not _has_no_graph(grad_out)  # grad mode really built a graph
    assert _has_no_graph(fast_out)


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
@settings(max_examples=15, deadline=None)
@given(data=small_arrays())
def test_binary_op_no_grad_bitwise_equal_and_graph_free(name, data):
    op = BINARY_OPS[name]
    other = np.roll(data, 1).copy()
    grad_out = op(Tensor(data, requires_grad=True), Tensor(other, requires_grad=True))
    with no_grad():
        fast_out = op(Tensor(data, requires_grad=True), Tensor(other, requires_grad=True))
    np.testing.assert_array_equal(grad_out.data, fast_out.data)
    assert not _has_no_graph(grad_out)
    assert _has_no_graph(fast_out)


@settings(max_examples=20, deadline=None)
@given(data=small_arrays(max_dims=2))
def test_composite_program_no_grad_bitwise_equal(data):
    def program(t):
        h = (t * 2.0 + 1.0).tanh().relu()
        return softmax(h, axis=-1).sum()

    grad_out = program(Tensor(data, requires_grad=True))
    with no_grad():
        fast_out = program(Tensor(data, requires_grad=True))
    np.testing.assert_array_equal(grad_out.data, fast_out.data)
    assert _has_no_graph(fast_out)


def test_inference_mode_is_no_grad_alias():
    assert inference_mode is no_grad
    assert is_grad_enabled()
    with inference_mode():
        assert not is_grad_enabled()
    assert is_grad_enabled()


@pytest.mark.parametrize(
    "name", sorted(__import__("tests.test_model_shape_properties",
                              fromlist=["BUILDERS"]).BUILDERS)
)
def test_model_forward_no_grad_bitwise_equal(name):
    """Every zoo model: no-grad forward == grad-mode forward, bitwise,
    and the no-grad prediction carries no backward graph."""
    from tests.test_model_shape_properties import (
        BUILDERS, _adjacency, _graphs, _inputs,
    )

    dims = dict(input_length=4, output_length=2, num_nodes=3, num_features=2)
    model = BUILDERS[name](dims, _adjacency(3), _graphs(3))
    x, m, steps = _inputs(2, 4, 3, 2)
    grad_out = model(x, m, steps)
    with no_grad():
        fast_out = model(x, m, steps)
    np.testing.assert_array_equal(grad_out.prediction.data, fast_out.prediction.data)
    assert not _has_no_graph(grad_out.prediction)
    assert _has_no_graph(fast_out.prediction)

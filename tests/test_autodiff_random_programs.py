"""Property-based gradient checking of *random programs*.

Hypothesis builds random differentiable expression trees out of the
engine's primitive ops and verifies the backward pass against central
finite differences. This is the strongest correctness property we can
state for the autodiff substrate: any program the models could compose
must differentiate correctly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, concat, gradcheck, stack, where

# Each op entry: (name, arity, builder). Builders take Tensors and return a
# Tensor. Only smooth (or safely-non-kinked) ops are used so the numeric
# derivative is reliable.
_UNARY = [
    ("tanh", lambda a: a.tanh()),
    ("sigmoid", lambda a: a.sigmoid()),
    ("exp_scaled", lambda a: (a * 0.3).exp()),
    ("neg", lambda a: -a),
    ("square", lambda a: a * a),
    ("mean_keep", lambda a: a.mean(axis=0, keepdims=True) + a * 0.0),
    ("transpose2", lambda a: a.transpose(1, 0).transpose(1, 0)),
]
_BINARY = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("smooth_div", lambda a, b: a / (b * b + 1.0)),
    ("matmul_sym", lambda a, b: a @ b.transpose(1, 0)),
    ("concat_mix", lambda a, b: concat([a, b], axis=1)[:, ::2] * 1.0),
    ("stack_sum", lambda a, b: stack([a, b], axis=0).sum(axis=0)),
]


@st.composite
def programs(draw):
    """A random expression DAG over two (3, 3) leaf tensors."""
    depth = draw(st.integers(min_value=1, max_value=4))
    ops = []
    for _ in range(depth):
        if draw(st.booleans()):
            ops.append(("u", draw(st.sampled_from(_UNARY))))
        else:
            ops.append(("b", draw(st.sampled_from(_BINARY))))
    return ops


def _run_program(ops, a: Tensor, b: Tensor) -> Tensor:
    value = a
    other = b
    for kind, (_name, fn) in ops:
        if kind == "u":
            value = fn(value)
        else:
            value = fn(value, other)
            # Reuse the previous value as the next "other" operand so the
            # DAG shares nodes (exercises gradient accumulation).
            other = value * 0.5 + other * 0.5
    return value


@settings(max_examples=60, deadline=None)
@given(
    programs(),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_random_program_gradients(ops, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3)), requires_grad=True)
    assert gradcheck(lambda a, b: _run_program(ops, a, b), [a, b],
                     eps=1e-5, atol=5e-4, rtol=5e-3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_where_maximum_program(seed):
    """Piecewise ops with inputs kept away from their kinks."""
    rng = np.random.default_rng(seed)
    a_data = rng.uniform(-1.0, 1.0, size=(4, 2))
    b_data = a_data + rng.choice([-1.0, 1.0], size=(4, 2)) * rng.uniform(
        0.2, 0.8, size=(4, 2)
    )
    cond = rng.random((4, 2)) > 0.5
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)

    def program(a, b):
        return where(cond, a * 2.0, b).tanh() + where(a.data >= b.data, a, b)

    assert gradcheck(program, [a, b])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=1000))
def test_deep_chain_gradients(depth, seed):
    """Long sequential chains (the recurrent-imputation shape)."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.uniform(-0.5, 0.5, size=(3, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(2, 3)), requires_grad=True)

    def program(x, w):
        h = x
        for _ in range(depth):
            h = (h @ w).tanh()
        return h

    assert gradcheck(program, [x, w], eps=1e-5, atol=5e-4, rtol=5e-3)

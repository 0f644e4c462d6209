"""Fused kernels for the training hot path.

:func:`cheb_propagate` collapses the ChebConv propagation loop

.. code-block:: python

    concat([T_k @ x for T_k in cheb], axis=-1)        # K matmuls + concat

into **one** matmul against a precomputed stacked basis: the ``K``
polynomial matrices are stacked vertically into a ``(K·N, N)`` forward
basis (its transpose, ``(N, K·N)``, drives the backward), so a batch of
windows pays a single BLAS call per layer instead of ``K`` small ones
plus a concat — and the autodiff graph records one node instead of
``K + 1``. The reordering from ``(..., K·N, C)`` to the concat layout
``(..., N, K·C)`` is a reshape/moveaxis, bitwise identical to the loop
version, so existing ``(K·C, out)`` weight layouts (in saved bundles)
are untouched.
"""

from __future__ import annotations

import numpy as np

from .dtype import default_dtype
from .tensor import Tensor, as_tensor, is_grad_enabled


def _contiguous(a: np.ndarray) -> np.ndarray:
    """C-contiguous ``a``, preserving ndarray subclasses.

    ``np.ascontiguousarray`` strips subclasses at the C level, which
    makes the copy invisible to execution-plan tracing; an explicit
    ``copy()`` of the non-contiguous view is bitwise-identical and
    dispatches through the subclass.
    """
    return a if a.flags["C_CONTIGUOUS"] else a.copy()

__all__ = ["ChebBasis", "cheb_propagate"]


class ChebBasis:
    """Precomputed stacked Chebyshev basis shared by fused propagations.

    Parameters
    ----------
    cheb_stack:
        ``(K, N, N)`` array of ``T_k(L̃)`` polynomials (constant during
        training — the graph is fixed). Stored in the policy dtype.
    """

    __slots__ = ("order", "num_nodes", "forward_basis", "backward_basis")

    def __init__(self, cheb_stack):
        stack = np.asarray(cheb_stack, dtype=default_dtype())
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(
                f"cheb_stack must have shape (K, N, N), got {stack.shape}"
            )
        k, n, _ = stack.shape
        self.order = int(k)
        self.num_nodes = int(n)
        stacked = np.ascontiguousarray(stack.reshape(k * n, n))
        self.forward_basis = stacked  # (K·N, N)
        self.backward_basis = np.ascontiguousarray(stacked.T)  # (N, K·N)

    def __repr__(self) -> str:
        return f"ChebBasis(K={self.order}, N={self.num_nodes})"


def cheb_propagate(x: Tensor, basis: ChebBasis) -> Tensor:
    """``(..., N, C) -> (..., N, K·C)``: all K polynomial hops in one op.

    Output feature ``k·C + c`` equals ``(T_k @ x)[..., n, c]`` — the
    exact layout of the concat-of-matmuls it replaces.
    """
    x = as_tensor(x)
    k, n = basis.order, basis.num_nodes
    if x.data.ndim < 2 or x.data.shape[-2] != n:
        raise ValueError(
            f"expected {n} nodes on axis -2, got shape {x.shape}"
        )
    c = x.data.shape[-1]
    z = np.matmul(basis.forward_basis, x.data)  # (..., K·N, C)
    lead = z.shape[:-2]
    out = _contiguous(
        np.moveaxis(z.reshape(lead + (k, n, c)), -3, -2)
    ).reshape(lead + (n, k * c))
    if not is_grad_enabled():
        return Tensor(out)

    def backward(g, bb=basis.backward_basis, k=k, n=n, c=c):
        lead = g.shape[:-2]
        gz = np.ascontiguousarray(
            np.moveaxis(g.reshape(lead + (n, k, c)), -2, -3)
        ).reshape(lead + (k * n, c))
        return (np.matmul(bb, gz),)

    return Tensor._make(out, (x,), backward, "cheb_propagate")

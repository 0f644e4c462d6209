"""Tests for sparse propagation (ChebConv over a CSR basis)."""

import numpy as np

from repro.autodiff import Tensor
from repro.graphs import chebyshev_polynomials
from repro.nn import ChebConv


def ring(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


class TestSparseChebConv:
    def test_sparse_matches_dense_forward(self):
        n = 12
        stack = chebyshev_polynomials(ring(n), 3)
        rng_seed = np.random.default_rng(0)
        dense_conv = ChebConv(4, 6, stack, rng=np.random.default_rng(7))
        sparse_conv = ChebConv(4, 6, stack, sparse=True,
                               rng=np.random.default_rng(7))
        x = Tensor(rng_seed.normal(size=(3, n, 4)))
        assert np.allclose(dense_conv(x).data, sparse_conv(x).data, atol=1e-12)

    def test_sparse_matches_dense_gradients(self):
        n = 8
        stack = chebyshev_polynomials(ring(n), 3)
        dense_conv = ChebConv(2, 3, stack, rng=np.random.default_rng(7))
        sparse_conv = ChebConv(2, 3, stack, sparse=True,
                               rng=np.random.default_rng(7))
        x_data = np.random.default_rng(1).normal(size=(2, n, 2))
        for conv in (dense_conv, sparse_conv):
            conv.zero_grad()
            conv(Tensor(x_data)).sum().backward()
        assert np.allclose(dense_conv.weight.grad, sparse_conv.weight.grad,
                           atol=1e-12)

    def test_sparse_model_trains(self):
        from repro.autodiff import mse
        from repro.optim import Adam

        n = 10
        stack = chebyshev_polynomials(ring(n), 3)
        conv = ChebConv(2, 1, stack, sparse=True, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, n, 2))
        y = x.sum(axis=-1, keepdims=True)
        opt = Adam(conv.parameters(), lr=0.05)
        losses = []
        for _ in range(60):
            opt.zero_grad()
            loss = mse(conv(Tensor(x)), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5

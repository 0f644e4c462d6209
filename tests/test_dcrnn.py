"""Tests for the DCRNN baseline (diffusion conv, DCGRU cell, seq2seq)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradcheck
from repro.models import DCGRUCell, DCRNN, DiffusionConv, random_walk_supports


def ring(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


class TestRandomWalkSupports:
    def test_undirected_single_support(self):
        supports = random_walk_supports(ring(5))
        assert len(supports) == 1
        assert np.allclose(supports[0].sum(axis=1), 1.0)

    def test_directed_dual_supports(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 2] = 1.0  # directed chain
        supports = random_walk_supports(adj)
        assert len(supports) == 2

    def test_isolated_node_safe(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        supports = random_walk_supports(adj)
        assert np.isfinite(supports[0]).all()

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            random_walk_supports(np.zeros((2, 3)))


class TestDiffusionConv:
    def test_output_shape(self):
        conv = DiffusionConv(3, 5, random_walk_supports(ring(6)),
                             rng=np.random.default_rng(0))
        out = conv(Tensor(np.zeros((2, 6, 3))))
        assert out.shape == (2, 6, 5)

    def test_max_step_expands_parameters(self):
        supports = random_walk_supports(ring(6))
        small = DiffusionConv(3, 5, supports, max_step=1,
                              rng=np.random.default_rng(0))
        large = DiffusionConv(3, 5, supports, max_step=3,
                              rng=np.random.default_rng(0))
        assert large.weight.size > small.weight.size

    def test_invalid_max_step(self):
        with pytest.raises(ValueError):
            DiffusionConv(3, 5, random_walk_supports(ring(4)), max_step=0)

    def test_gradcheck(self):
        conv = DiffusionConv(2, 2, random_walk_supports(ring(4)),
                             rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 2)),
                   requires_grad=True)
        assert gradcheck(lambda x: conv(x), [x])

    def test_diffusion_spreads_signal(self):
        conv = DiffusionConv(1, 1, random_walk_supports(ring(5)), max_step=1,
                             rng=np.random.default_rng(3))
        x = np.zeros((1, 5, 1))
        x[0, 0, 0] = 1.0
        out = conv(Tensor(x)).data - conv.bias.data
        assert abs(out[0, 1, 0]) > 1e-9  # neighbour received signal


class TestDCGRUCell:
    def test_state_shape_and_threading(self):
        cell = DCGRUCell(3, 6, random_walk_supports(ring(4)),
                         rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 4, 3)))
        h1 = cell(x)
        assert h1.shape == (2, 4, 6)
        h2 = cell(x, h1)
        assert not np.allclose(h1.data, h2.data)

    def test_bounded_activations(self):
        cell = DCGRUCell(3, 6, random_walk_supports(ring(4)),
                         rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 3)) * 10)
        h = cell(x)
        assert np.all(np.abs(h.data) <= 1.0)


class TestDCRNN:
    def _model(self, **kw):
        kwargs = dict(input_length=6, output_length=4, num_nodes=5,
                      num_features=2, adjacency=ring(5), hidden_dim=8, seed=0)
        kwargs.update(kw)
        return DCRNN(**kwargs)

    def test_output_shape(self):
        model = self._model()
        x = np.random.default_rng(0).normal(size=(3, 6, 5, 2))
        out = model(x, np.ones_like(x), np.zeros((3, 6)))
        assert out.prediction.shape == (3, 4, 5, 2)

    def test_requires_adjacency(self):
        with pytest.raises(ValueError):
            DCRNN(input_length=6, output_length=4, num_nodes=5, num_features=2)

    def test_wrong_length_rejected(self):
        model = self._model()
        x = np.zeros((2, 5, 5, 2))
        with pytest.raises(ValueError):
            model(x, np.ones_like(x), np.zeros((2, 5)))

    def test_all_parameters_receive_gradients(self):
        model = self._model()
        x = np.random.default_rng(0).normal(size=(2, 6, 5, 2))
        model(x, np.ones_like(x), np.zeros((2, 6))).prediction.sum().backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no grad for {name}"

    def test_trains(self):
        from repro.datasets import MCARPattern, make_pems_dataset, make_windows
        from repro.training import Trainer, TrainerConfig
        from dataclasses import replace as dreplace

        ds = make_pems_dataset(num_nodes=5, num_days=2, steps_per_day=96, seed=0)
        ds = dreplace(ds, data=ds.data[:, :, :2], mask=ds.mask[:, :, :2],
                      truth=ds.truth[:, :, :2],
                      feature_names=ds.feature_names[:2])
        ds = ds.with_mask(MCARPattern(rate=0.2).mask(ds.data.shape, rng=np.random.default_rng(1)))
        windows = make_windows(ds, 6, 4, stride=6)
        model = self._model()
        history = Trainer(model, TrainerConfig(max_epochs=3, batch_size=16)).fit(
            windows, None
        )
        assert history.train_loss[-1] < history.train_loss[0]

    def test_registry_entry(self):
        from repro.experiments import ALL_MODEL_NAMES

        assert "DCRNN" in ALL_MODEL_NAMES

"""Tests for the forecaster model zoo: shapes, gradients, behaviours."""

import numpy as np
import pytest

from repro.autodiff import no_grad
from repro.datasets import MCARPattern, make_pems_dataset, make_windows
from repro.graphs import build_heterogeneous_graphs, PartitionConfig, gaussian_kernel_adjacency
from repro.models import (
    ASTGCN,
    GraphWaveNet,
    HistoricalAverage,
    RecurrentImputationForecaster,
    VectorAutoRegression,
    build_spatial_encoder,
    fc_gcn,
    fc_gcn_i,
    fc_lstm,
    fc_lstm_i,
    gcn_lstm,
    gcn_lstm_i,
    rihgcn,
)

N, D, T_IN, T_OUT = 5, 2, 6, 4


@pytest.fixture(scope="module")
def env():
    ds = make_pems_dataset(num_nodes=N, num_days=3, steps_per_day=96, seed=0)
    # Reduce to D=2 features for speed.
    from dataclasses import replace

    ds = replace(
        ds,
        data=ds.data[:, :, :D],
        mask=ds.mask[:, :, :D],
        truth=ds.truth[:, :, :D],
        feature_names=ds.feature_names[:D],
    )
    rng = np.random.default_rng(1)
    masked = ds.with_mask(MCARPattern(rate=0.3).mask(ds.data.shape, rng=rng))
    windows = make_windows(masked, T_IN, T_OUT, stride=6)
    adjacency = gaussian_kernel_adjacency(ds.network.distances)
    graphs = build_heterogeneous_graphs(
        masked.data, masked.mask, ds.network.distances, steps_per_day=96,
        num_intervals=3,
        partition_config=PartitionConfig(num_intervals=3, downsample_to=6),
    )
    return masked, windows, adjacency, graphs


def dims():
    return dict(input_length=T_IN, output_length=T_OUT, num_nodes=N, num_features=D)


def small():
    return dict(embed_dim=6, hidden_dim=8, seed=0)


class TestStatisticalModels:
    def test_ha_constant_over_horizon(self, env):
        masked, windows, *_ = env
        ha = HistoricalAverage().fit(masked.data, masked.mask)
        pred = ha.predict(windows.x, windows.m, T_OUT)
        assert pred.shape == (windows.num_windows, T_OUT, N, D)
        assert np.allclose(pred[:, 0], pred[:, -1])

    def test_ha_window_mean(self):
        ha = HistoricalAverage()
        ha.fit(np.ones((10, 2, 1)) * 5, np.ones((10, 2, 1)))
        x = np.full((1, 4, 2, 1), 3.0)
        m = np.ones_like(x)
        pred = ha.predict(x, m, 2)
        assert np.allclose(pred, 3.0)

    def test_ha_fully_missing_window_uses_train_mean(self):
        ha = HistoricalAverage()
        ha.fit(np.ones((10, 2, 1)) * 5, np.ones((10, 2, 1)))
        pred = ha.predict(np.zeros((1, 4, 2, 1)), np.zeros((1, 4, 2, 1)), 2)
        assert np.allclose(pred, 5.0)

    def test_ha_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            HistoricalAverage().predict(np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 2, 1)), 1)

    def test_var_learns_ar1(self):
        """VAR must recover a simple scalar AR(1) process."""
        rng = np.random.default_rng(0)
        total = 500
        series = np.zeros((total, 1, 1))
        for t in range(1, total):
            series[t] = 0.8 * series[t - 1] + rng.normal(0, 0.1)
        var = VectorAutoRegression(lags=1, ridge=1e-6)
        var.fit(series, np.ones_like(series))
        x = series[-10:][None, :, :, :]
        pred = var.predict(x, np.ones_like(x), 1)
        expected = 0.8 * series[-1, 0, 0]
        assert pred[0, 0, 0, 0] == pytest.approx(expected, abs=0.15)

    def test_var_shapes(self, env):
        masked, windows, *_ = env
        var = VectorAutoRegression(lags=2).fit(masked.data, masked.mask)
        pred = var.predict(windows.x, windows.m, T_OUT)
        assert pred.shape == (windows.num_windows, T_OUT, N, D)

    def test_var_validation(self):
        with pytest.raises(ValueError):
            VectorAutoRegression(lags=0)
        var = VectorAutoRegression(lags=5)
        with pytest.raises(ValueError):
            var.fit(np.zeros((4, 2, 1)), np.zeros((4, 2, 1)))

    def test_var_window_shorter_than_lags(self, env):
        masked, windows, *_ = env
        var = VectorAutoRegression(lags=T_IN + 1)
        var.fit(masked.data, masked.mask)
        with pytest.raises(ValueError):
            var.predict(windows.x, windows.m, 2)


class TestBaselineForecasters:
    @pytest.mark.parametrize("factory", [fc_lstm, fc_gcn, gcn_lstm],
                             ids=["fc_lstm", "fc_gcn", "gcn_lstm"])
    def test_output_shapes(self, env, factory):
        _masked, windows, adjacency, _graphs = env
        kwargs = dict(dims(), **small())
        if factory is not fc_lstm:
            kwargs["adjacency"] = adjacency
        model = factory(**kwargs)
        out = model(windows.x[:3], windows.m[:3], windows.steps_of_day[:3])
        assert out.prediction.shape == (3, T_OUT, N, D)
        assert out.estimates_fwd is None

    def test_fc_gcn_requires_adjacency(self):
        with pytest.raises(ValueError):
            fc_gcn(**dims(), **small())

    def test_all_parameters_receive_gradients(self, env):
        _masked, windows, adjacency, _graphs = env
        model = gcn_lstm(adjacency=adjacency, **dims(), **small())
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        out.prediction.sum().backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no grad for {name}"

    def test_astgcn_shapes(self, env):
        _masked, windows, adjacency, _graphs = env
        model = ASTGCN(adjacency=adjacency, hidden_channels=6, seed=0, **dims())
        out = model(windows.x[:3], windows.m[:3], windows.steps_of_day[:3])
        assert out.prediction.shape == (3, T_OUT, N, D)

    def test_astgcn_requires_adjacency(self):
        with pytest.raises(ValueError):
            ASTGCN(**dims())

    def test_graph_wavenet_shapes(self, env):
        _masked, windows, adjacency, _graphs = env
        model = GraphWaveNet(adjacency=adjacency, residual_channels=6,
                             num_layers=2, seed=0, **dims())
        out = model(windows.x[:3], windows.m[:3], windows.steps_of_day[:3])
        assert out.prediction.shape == (3, T_OUT, N, D)

    def test_graph_wavenet_gradients(self, env):
        _masked, windows, adjacency, _graphs = env
        model = GraphWaveNet(adjacency=adjacency, residual_channels=4,
                             num_layers=1, seed=0, **dims())
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        out.prediction.sum().backward()
        assert model.gcn0.source_embed.grad is not None


class TestRecurrentImputationForecaster:
    def _model(self, env, **overrides):
        _masked, _windows, adjacency, graphs = env
        kwargs = dict(
            dims(), **small(), spatial_kind="hgcn", graphs=graphs,
        )
        kwargs.update(overrides)
        if kwargs["spatial_kind"] == "gcn":
            kwargs["adjacency"] = adjacency
            kwargs.pop("graphs", None)
        return RecurrentImputationForecaster(**kwargs)

    def test_output_shapes_with_estimates(self, env):
        _m, windows, *_ = env
        model = self._model(env)
        out = model(windows.x[:3], windows.m[:3], windows.steps_of_day[:3])
        assert out.prediction.shape == (3, T_OUT, N, D)
        assert out.estimates_fwd.shape == (3, T_IN, N, D)
        assert out.estimates_bwd.shape == (3, T_IN, N, D)

    def test_estimate_validity_excludes_boundaries(self, env):
        _m, windows, *_ = env
        model = self._model(env)
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        validity = out.estimate_validity
        assert validity[0] == 0.0  # forward pass has no estimate for t=0
        assert validity[-1] == 0.0  # backward pass has none for t=T-1
        assert validity[1:-1].min() == 1.0

    def test_unidirectional_mode(self, env):
        _m, windows, *_ = env
        model = self._model(env, bidirectional=False)
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        assert out.estimates_bwd is None

    def test_no_lstm_mode(self, env):
        _m, windows, *_ = env
        model = self._model(env, use_lstm=False)
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        assert out.prediction.shape == (2, T_OUT, N, D)

    def test_imputed_values_carry_gradients(self, env):
        """The paper's key trick: gradients flow through estimates."""
        _m, windows, *_ = env
        model = self._model(env)
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        out.prediction.sum().backward()
        grads_joint = {
            name: param.grad.copy()
            for name, param in model.named_parameters()
            if param.grad is not None
        }
        assert "forward_pass.estimate_head.weight" in grads_joint
        assert np.abs(grads_joint["forward_pass.estimate_head.weight"]).sum() > 0

    def test_detach_imputation_blocks_feedback_gradient(self, env):
        """With detach, the estimate head only gets gradient via the loss
        terms that reference it directly — not via later-step predictions."""
        _m, windows, *_ = env
        model = self._model(env, detach_imputation=True)
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        out.prediction.sum().backward()
        # The estimate head feeds only future inputs; with detach it gets
        # no gradient from the prediction loss.
        grad = model.forward_pass.estimate_head.weight.grad
        assert grad is None or np.abs(grad).sum() == 0

    def test_wrong_input_length_raises(self, env):
        _m, windows, *_ = env
        model = self._model(env)
        with pytest.raises(ValueError):
            model(windows.x[:2, :3], windows.m[:2, :3], windows.steps_of_day[:2, :3])

    def test_impute_preserves_observed(self, env):
        _m, windows, *_ = env
        model = self._model(env)
        filled = model.impute(windows.x[:3], windows.m[:3], windows.steps_of_day[:3])
        observed = windows.m[:3] == 1
        assert np.allclose(filled[observed], windows.x[:3][observed])
        assert np.isfinite(filled).all()

    def test_impute_changes_missing(self, env):
        _m, windows, *_ = env
        model = self._model(env)
        batch_m = windows.m[:3]
        if (batch_m == 0).sum() == 0:
            pytest.skip("no missing entries in batch")
        filled = model.impute(windows.x[:3], batch_m, windows.steps_of_day[:3])
        missing = batch_m == 0
        # Interior missing entries receive (generally) nonzero estimates.
        interior = missing.copy()
        interior[:, 0] = interior[:, -1] = False
        if interior.sum():
            assert np.abs(filled[interior]).sum() > 0

    def test_spatial_kind_gcn(self, env):
        _m, windows, *_ = env
        model = self._model(env, spatial_kind="gcn")
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        assert out.prediction.shape == (2, T_OUT, N, D)

    def test_spatial_kind_none(self, env):
        _m, windows, *_ = env
        model = self._model(env, spatial_kind="none", graphs=None)
        out = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        assert out.prediction.shape == (2, T_OUT, N, D)

    def test_factories(self, env):
        _m, _w, adjacency, graphs = env
        assert rihgcn(graphs=graphs, **dims(), **small()).spatial_kind == "hgcn"
        assert gcn_lstm_i(adjacency=adjacency, **dims(), **small()).spatial_kind == "gcn"
        assert fc_gcn_i(adjacency=adjacency, **dims(), **small()).spatial_kind == "gcn"
        assert fc_lstm_i(**dims(), **small()).spatial_kind == "none"

    def test_build_spatial_encoder_validation(self):
        with pytest.raises(ValueError):
            build_spatial_encoder("gcn", 2, 4)
        with pytest.raises(ValueError):
            build_spatial_encoder("hgcn", 2, 4)
        with pytest.raises(ValueError):
            build_spatial_encoder("mystery", 2, 4)

    def test_eval_inference_is_deterministic(self, env):
        _m, windows, *_ = env
        model = self._model(env)
        with no_grad():
            a = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
            b = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        assert np.allclose(a.prediction.data, b.prediction.data)


class TestHGCNBlock:
    def test_interval_weights_required(self, env):
        _m, _w, _adj, graphs = env
        from repro.autodiff import Tensor
        from repro.models import HGCNBlock

        block = HGCNBlock(D, 6, graphs, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            block(Tensor(np.zeros((2, N, D))))

    def test_weight_shape_checked(self, env):
        _m, _w, _adj, graphs = env
        from repro.autodiff import Tensor
        from repro.models import HGCNBlock

        block = HGCNBlock(D, 6, graphs, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            block(Tensor(np.zeros((2, N, D))), np.ones((2, 99)))

    def test_inactive_interval_skipped_consistency(self, env):
        """Zero-weight intervals contribute nothing (skip == explicit zero)."""
        _m, _w, _adj, graphs = env
        from repro.autodiff import Tensor
        from repro.models import HGCNBlock

        block = HGCNBlock(D, 6, graphs, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, N, D)))
        w = np.zeros((2, graphs.num_temporal))
        w[:, 0] = 1.0
        out1 = block(x, w).data
        # Same weights with explicit zeros elsewhere must give same result.
        out2 = block(x, w.copy()).data
        assert np.allclose(out1, out2)

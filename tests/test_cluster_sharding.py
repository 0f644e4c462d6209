"""Shard-bundle exactness: sliced sub-models must match the full model.

The load-bearing claim of the cluster: for the one-conv-per-timestep
family, a model sliced to owned+halo nodes — with the Chebyshev basis
sliced from the *full* graph's precomputed operator — produces forecasts
at owned nodes identical to the full-graph model (float64 round-off).
Also covers the negative space: per-node scaler slicing, receptive-field
classification, snapshot translation between shard layouts, and the
ConfigError for models that cannot be sliced.
"""

import json

import numpy as np
import pytest

from repro.autodiff import dtype_policy
from repro.errors import ConfigError
from repro.serve import StateStore
from repro.serve.cluster import (
    corridor_adjacency,
    coupling_adjacency,
    make_demo_bundle,
    make_shard_bundle,
    spatial_hops,
    translate_snapshot,
)
from repro.serve.cluster.local import resolve_halo_hops
from repro.serve.http import ServeApp
from repro.telemetry import MetricRegistry


@pytest.fixture(scope="module")
def demo_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "demo"
    # build under float64 but release the policy before yielding — a
    # policy held across yield leaks into every other fixture built
    # while this module's tests run (dtype_policy is process-global)
    with dtype_policy("float64"):
        bundle = make_demo_bundle(str(path), num_nodes=24, seed=0)
    return bundle


class TestSpatialHops:
    def test_gcn_lstm_reaches_cheb_order_minus_one(self, demo_bundle):
        assert demo_bundle.model_config.cheb_order == 3
        assert spatial_hops(demo_bundle.model) == 2

    def test_imputation_family_is_unbounded(self, tiny_ctx):
        from repro.experiments import build_model

        model = build_model("GCN-LSTM-I", tiny_ctx)
        assert spatial_hops(model) is None

    def test_rihgcn_mixes_space_through_its_stacked_basis(self, tiny_ctx):
        from repro.experiments import build_model

        assert spatial_hops(build_model("RIHGCN", tiny_ctx)) is None

    def test_resolve_halo_hops(self, demo_bundle):
        assert resolve_halo_hops(demo_bundle, None) == 2
        assert resolve_halo_hops(demo_bundle, 4) == 4

    def test_unbounded_model_falls_back_to_full_replication(self, tiny_ctx):
        from dataclasses import replace as dc_replace

        from repro.experiments import build_model
        from repro.serve.artifact import ModelBundle

        model = build_model("GCN-LSTM-I", tiny_ctx)
        stub = ModelBundle(
            model=model,
            scaler=tiny_ctx.scaler,
            model_name="GCN-LSTM-I",
            data_config=dc_replace(tiny_ctx.data_config),
            model_config=tiny_ctx.model_config,
            adjacency=tiny_ctx.adjacency,
            graph_set=None,
            header={},
        )
        assert resolve_halo_hops(stub, None) == stub.num_nodes


class TestMakeShardBundle:
    def test_full_slice_returns_same_bundle(self, demo_bundle):
        assert make_shard_bundle(demo_bundle, range(24)) is demo_bundle

    def test_dimensions_and_metadata(self, demo_bundle):
        retained = [4, 5, 6, 7, 8, 9, 10]
        sub = make_shard_bundle(demo_bundle, retained)
        assert sub.num_nodes == 7
        assert sub.adjacency.shape == (7, 7)
        assert sub.header["shard"]["retained_nodes"] == retained
        assert sub.header["shard"]["parent_num_nodes"] == 24

    def test_slicing_preserves_parent_dtype(self, demo_bundle):
        # ambient policy is float32 here; slicing the float64 bundle
        # must not downcast the weights (shard exactness depends on it)
        sub = make_shard_bundle(demo_bundle, [4, 5, 6, 7, 8, 9, 10])
        for param in sub.model.parameters():
            assert param.data.dtype == np.float64

    def test_rejects_bad_retained_sets(self, demo_bundle):
        with pytest.raises(ConfigError):
            make_shard_bundle(demo_bundle, [])
        with pytest.raises(ConfigError):
            make_shard_bundle(demo_bundle, [3, 3, 4])
        with pytest.raises(ConfigError):
            make_shard_bundle(demo_bundle, [22, 23, 24])

    def test_per_node_scaler_is_sliced(self, tmp_path):
        with dtype_policy("float64"):
            bundle = make_demo_bundle(str(tmp_path / "pn"), num_nodes=16)
            # rebuild the scaler per-node so slicing has something to do
            from repro.datasets import ZScoreScaler

            rng = np.random.default_rng(0)
            history = rng.normal(60.0, 8.0, size=(100, 16, 1))
            history[:, 3] += 40.0  # make node 3 distinctive
            scaler = ZScoreScaler(per_node=True).fit(history)
            object.__setattr__(bundle, "scaler", scaler)
            sub = make_shard_bundle(bundle, [2, 3, 4])
            np.testing.assert_allclose(
                sub.scaler.mean_[..., 1, :], scaler.mean_[..., 3, :]
            )
            np.testing.assert_allclose(
                sub.scaler.std_[..., 0, :], scaler.std_[..., 2, :]
            )

    def test_owned_rows_exact_through_the_serving_path(self, demo_bundle):
        """Forecasts at owned nodes match the full model to round-off.

        Retained = owned + 2-hop halo (the GCN-LSTM receptive field);
        both sides see the same observation stream, sliced for the sub
        bundle. This is the sharding exactness criterion end to end:
        store -> scaler -> model -> inverse scaler.
        """
        with dtype_policy("float64"):
            owned = list(range(6, 12))
            # 2 hops on the width-2 corridor reach 4 nodes to each side
            halo = [2, 3, 4, 5, 12, 13, 14, 15]
            retained = sorted(owned + halo)
            sub = make_shard_bundle(demo_bundle, retained)

            full_app = ServeApp(demo_bundle, registry=MetricRegistry())
            sub_app = ServeApp(sub, registry=MetricRegistry())
            full_app.pool.start()
            sub_app.pool.start()
            try:
                rng = np.random.default_rng(42)
                for step in range(14):
                    values = rng.normal(60.0, 4.0, size=(24, 1))
                    body = json.dumps(
                        {"step": step, "values": values.tolist()}
                    ).encode()
                    assert full_app.handle(
                        "POST", "/observe", body, None
                    ).status == 200
                    sub_body = json.dumps(
                        {"step": step, "values": values[retained].tolist()}
                    ).encode()
                    assert sub_app.handle(
                        "POST", "/observe", sub_body, None
                    ).status == 200
                full = full_app.handle("GET", "/forecast", None, None)
                part = sub_app.handle("GET", "/forecast", None, None)
            finally:
                full_app.pool.stop()
                sub_app.pool.stop()
        full_pred = np.asarray(full.body["prediction"])  # (H, 24, 1)
        part_pred = np.asarray(part.body["prediction"])  # (H, 10, 1)
        local = [retained.index(g) for g in owned]
        np.testing.assert_allclose(
            part_pred[:, local], full_pred[:, owned], rtol=0, atol=1e-9
        )

    def test_halo_rows_are_inexact_but_finite(self, demo_bundle):
        # the halo's own neighbourhood is truncated: those rows may
        # drift from the full model, which is why they are only served
        # as degraded failover answers
        with dtype_policy("float64"):
            retained = list(range(0, 8))
            sub = make_shard_bundle(demo_bundle, retained)
            for param in sub.model.parameters():
                assert np.isfinite(param.data).all()


class TestCouplingAdjacency:
    def test_plain_bundle_uses_adjacency_support(self, demo_bundle):
        support = coupling_adjacency(demo_bundle)
        expected = (corridor_adjacency(24) > 0).astype(float)
        np.testing.assert_array_equal(support, expected)


class TestTranslateSnapshot:
    def _snapshot_over(self, nodes, seed=0):
        store = StateStore(
            num_nodes=len(nodes), num_features=1, input_length=4,
            registry=MetricRegistry(),
        )
        rng = np.random.default_rng(seed)
        for step in range(6):
            store.observe(step, rng.normal(60.0, 5.0, size=(len(nodes), 1)))
        return store, store.snapshot()

    def test_intersection_carries_unheld_cold(self):
        src_nodes = [0, 1, 2, 3, 4]
        store, snap = self._snapshot_over(src_nodes)
        dst_nodes = [3, 4, 5, 6]
        out = translate_snapshot(snap, src_nodes, dst_nodes)
        dst = StateStore(
            num_nodes=4, num_features=1, input_length=4,
            registry=MetricRegistry(),
        )
        dst.restore(out)
        src_window = store.window()
        dst_window = dst.window()
        # shared nodes 3, 4 land at local rows 0, 1 with identical data
        np.testing.assert_array_equal(dst_window.x[:, 0], src_window.x[:, 3])
        np.testing.assert_array_equal(dst_window.x[:, 1], src_window.x[:, 4])
        # unheld nodes 5, 6 are cold: mask zero, never seen
        assert not dst_window.m[:, 2:].any()
        assert dst.sensor_summary()["last_seen_step"][2] is None

    def test_round_trip_same_layout_is_identity(self):
        nodes = [7, 9, 11]
        _, snap = self._snapshot_over(nodes, seed=5)
        out = translate_snapshot(snap, nodes, nodes)
        np.testing.assert_array_equal(
            np.asarray(out["values"]), np.asarray(snap["values"])
        )
        assert out["last_seen"] == snap["last_seen"]

"""Tests for model bundle export/load (repro.serve.artifact)."""

import json

import numpy as np
import pytest

from repro.errors import (
    BundleFormatError,
    BundleModelError,
    MissingParameterError,
    ShapeMismatchError,
)
from repro.autodiff import no_grad
from repro.experiments import build_model
from repro.experiments.registry import NEURAL_MODELS
from repro.serve import FORMAT_VERSION, export_bundle, load_bundle
from repro.serve.artifact import _bundle_paths


@pytest.fixture()
def fc_lstm_bundle(tiny_ctx, tmp_path):
    model = build_model("FC-LSTM", tiny_ctx)
    base = str(tmp_path / "fc-lstm")
    export_bundle(model, "FC-LSTM", tiny_ctx, base)
    return model, base


class TestPaths:
    def test_base_path_expands_to_pair(self):
        assert _bundle_paths("a/b") == ("a/b.npz", "a/b.json")

    def test_either_suffix_normalises(self):
        assert _bundle_paths("a/b.npz") == ("a/b.npz", "a/b.json")
        assert _bundle_paths("a/b.json") == ("a/b.npz", "a/b.json")


class TestRoundTrip:
    def test_weights_survive(self, fc_lstm_bundle):
        model, base = fc_lstm_bundle
        bundle = load_bundle(base)
        loaded = dict(bundle.model.named_parameters())
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, loaded[name].data)

    def test_predictions_identical(self, fc_lstm_bundle, tiny_ctx):
        model, base = fc_lstm_bundle
        bundle = load_bundle(base)
        windows = tiny_ctx.test_windows
        out_a = model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        out_b = bundle.model(windows.x[:2], windows.m[:2], windows.steps_of_day[:2])
        np.testing.assert_array_equal(out_a.prediction.data, out_b.prediction.data)

    def test_scaler_and_configs_survive(self, fc_lstm_bundle, tiny_ctx):
        _model, base = fc_lstm_bundle
        bundle = load_bundle(base)
        np.testing.assert_array_equal(bundle.scaler.mean_, tiny_ctx.scaler.mean_)
        np.testing.assert_array_equal(bundle.scaler.std_, tiny_ctx.scaler.std_)
        assert bundle.scaler.per_node == tiny_ctx.scaler.per_node
        assert bundle.data_config == tiny_ctx.data_config
        assert bundle.model_config == tiny_ctx.model_config
        np.testing.assert_array_equal(bundle.adjacency, tiny_ctx.adjacency)

    def test_header_is_readable_json(self, fc_lstm_bundle):
        _model, base = fc_lstm_bundle
        with open(base + ".json") as handle:
            header = json.load(handle)
        assert header["format_version"] == FORMAT_VERSION
        assert header["model_name"] == "FC-LSTM"
        assert header["num_parameters"] > 0

    def test_rihgcn_bundle_carries_graphs(self, tiny_ctx, tmp_path):
        model = build_model("RIHGCN", tiny_ctx)
        base = str(tmp_path / "rihgcn")
        export_bundle(model, "RIHGCN", tiny_ctx, base)
        bundle = load_bundle(base)
        source = tiny_ctx.graphs()
        assert bundle.graph_set is not None
        assert bundle.graph_set.num_temporal == source.num_temporal
        np.testing.assert_array_equal(
            bundle.graph_set.geographic, source.geographic
        )
        for got, want in zip(bundle.graph_set.temporal, source.temporal):
            np.testing.assert_array_equal(got, want)
        assert bundle.graph_set.partition.boundaries == source.partition.boundaries
        # And the rebuilt model must reproduce the original forward pass.
        windows = tiny_ctx.test_windows
        out_a = model(windows.x[:1], windows.m[:1], windows.steps_of_day[:1])
        out_b = bundle.model(windows.x[:1], windows.m[:1], windows.steps_of_day[:1])
        np.testing.assert_array_equal(out_a.prediction.data, out_b.prediction.data)

    def test_non_rihgcn_bundle_omits_graphs(self, fc_lstm_bundle):
        _model, base = fc_lstm_bundle
        assert load_bundle(base).graph_set is None


@pytest.mark.parametrize("name", sorted(NEURAL_MODELS))
def test_every_model_loads_byte_identical(name, tiny_ctx, tmp_path):
    """The rebuild draws no weights, so the loaded state is all the bundle's."""
    model = build_model(name, tiny_ctx)
    base = str(tmp_path / "bundle")
    export_bundle(model, name, tiny_ctx, base)
    loaded = load_bundle(base).model
    expected, got = model.state_dict(), loaded.state_dict()
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes(), key
    batch = tiny_ctx.train_windows.subset(np.arange(4))
    with no_grad():
        want = model.forward_batch(batch).prediction.data
        out = loaded.forward_batch(batch).prediction.data
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


class TestValidation:
    def test_unknown_model_rejected_on_export(self, tiny_ctx, tmp_path):
        model = build_model("FC-LSTM", tiny_ctx)
        with pytest.raises(BundleModelError, match="unknown model"):
            export_bundle(model, "NOT-A-MODEL", tiny_ctx, str(tmp_path / "x"))

    def test_format_version_checked(self, fc_lstm_bundle):
        _model, base = fc_lstm_bundle
        header = json.loads(open(base + ".json").read())
        header["format_version"] = FORMAT_VERSION + 1
        with open(base + ".json", "w") as handle:
            json.dump(header, handle)
        with pytest.raises(BundleFormatError, match="format version"):
            load_bundle(base)

    def test_missing_parameter_named(self, fc_lstm_bundle):
        _model, base = fc_lstm_bundle
        with np.load(base + ".npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        dropped = next(n for n in arrays if n.startswith("param/"))
        del arrays[dropped]
        np.savez(base + ".npz", **arrays)
        with pytest.raises(MissingParameterError, match=dropped[len("param/"):]) as excinfo:
            load_bundle(base)
        assert base + ".npz" in str(excinfo.value)

    def test_shape_mismatch_named(self, fc_lstm_bundle):
        _model, base = fc_lstm_bundle
        with np.load(base + ".npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        victim = next(n for n in arrays if n.startswith("param/"))
        arrays[victim] = np.zeros(arrays[victim].shape + (2,))
        np.savez(base + ".npz", **arrays)
        with pytest.raises(ShapeMismatchError, match="shape") as excinfo:
            load_bundle(base)
        message = str(excinfo.value)
        assert base + ".npz" in message and repr(victim[len("param/"):]) in message


class TestFactories:
    def test_make_store_matches_model_dims(self, fc_lstm_bundle, tiny_ctx):
        _model, base = fc_lstm_bundle
        bundle = load_bundle(base)
        store = bundle.make_store()
        assert store.num_nodes == bundle.num_nodes
        assert store.num_features == bundle.num_features
        assert store.input_length == bundle.input_length
        assert store.steps_per_day == tiny_ctx.data_config.steps_per_day

    def test_make_engine_shares_store(self, fc_lstm_bundle):
        _model, base = fc_lstm_bundle
        bundle = load_bundle(base)
        store = bundle.make_store()
        engine = bundle.make_engine(store=store)
        assert engine.store is store

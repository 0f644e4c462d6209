"""The recurrent-imputation family's bundle surface stays put.

A bundle stores a model's ``state_dict`` by parameter name, so renaming
or reshaping a parameter silently orphans every exported bundle. These
tests pin the names and shapes of the four family models built on the
shared tiny context, and load a RIHGCN bundle exported by the earlier
per-direction recurrence (``tests/data/rihgcn_per_direction.*``, with the
forecasts that code produced from it): the bundle must load unchanged and
forecast the same values, both through the model and through a serving
engine (traced, validated and replayed plan). The HGCN block now sums
its graphs in one matmul, a different float32 rounding order than the
per-graph form that recorded them, so the forecasts agree to float32
rounding rather than bit for bit.
"""

import os

import numpy as np
import pytest

from repro.autodiff import inference_mode
from repro.experiments import build_model
from repro.serve import load_bundle
from repro.serve.artifact import _PARAM_PREFIX
from repro.telemetry import MetricRegistry

DATA = os.path.join(os.path.dirname(__file__), "data")
BUNDLE = os.path.join(DATA, "rihgcn_per_direction")


def _direction(spatial: dict, lstm: bool, state_dim: int) -> dict:
    """One direction's parameters, spatial encoder first (tiny context)."""
    shapes = dict(spatial)
    if lstm:
        shapes.update({"cell.weight_ih": (8, 32), "cell.weight_hh": (8, 32),
                       "cell.bias": (32,)})
    shapes.update({"estimate_head.weight": (state_dim, 4), "estimate_head.bias": (4,)})
    return shapes


def _family(spatial: dict, lstm: bool) -> dict:
    state_dim = 4 + (8 if lstm else 0)
    one = _direction(spatial, lstm, state_dim)
    shapes = {f"{d}_pass.{name}": shape for d in ("forward", "backward")
              for name, shape in one.items()}
    shapes.update({"head.weight": (6 * 2 * state_dim, 12), "head.bias": (12,)})
    return shapes


GCN = {"spatial.conv.weight": (12, 4), "spatial.conv.bias": (4,)}
HGCN = {
    f"spatial.{conv}.{name}": shape
    for conv in ("geo_conv", "temporal_convs.0", "temporal_convs.1")
    for name, shape in (("weight", (12, 4)), ("bias", (4,)))
}
STATE_DICT = {
    "RIHGCN": _family(HGCN, lstm=True),
    "GCN-LSTM-I": _family(GCN, lstm=True),
    "FC-GCN-I": _family(GCN, lstm=False),
    "FC-LSTM-I": _family({"spatial.proj.weight": (4, 4), "spatial.proj.bias": (4,)},
                         lstm=True),
}


@pytest.mark.parametrize("name", list(STATE_DICT))
def test_state_dict_names_and_shapes_are_pinned(tiny_ctx, name):
    state = build_model(name, tiny_ctx).state_dict()
    assert list(state) == list(STATE_DICT[name])
    assert {key: value.shape for key, value in state.items()} == STATE_DICT[name]


def test_bundle_from_per_direction_recurrence_forecasts_identically():
    bundle = load_bundle(BUNDLE)
    saved = np.load(BUNDLE + ".npz")
    state = bundle.model.state_dict()
    assert list(state) == list(STATE_DICT["RIHGCN"])
    for name, value in state.items():
        stored = saved[_PARAM_PREFIX + name]
        assert value.dtype == stored.dtype and value.tobytes() == stored.tobytes(), name

    recorded = np.load(BUNDLE + "_forecasts.npz")
    rng = np.random.default_rng(7)
    shape = (2, bundle.input_length, bundle.num_nodes, bundle.num_features)
    m = (rng.random(shape) >= 0.3).astype(np.float32)
    x = rng.standard_normal(shape).astype(np.float32) * m
    steps = np.stack([np.arange(20, 26), np.arange(45, 51) % 48])
    with inference_mode():
        prediction = bundle.model(x, m, steps).prediction.data
    assert prediction.dtype == recorded["model"].dtype
    np.testing.assert_allclose(prediction, recorded["model"], rtol=1e-5, atol=1e-6)

    # Compile, validate, then replay: three served forecasts.
    store = bundle.make_store(start_step=0)
    engine = bundle.make_engine(store=store, registry=MetricRegistry(), cache_size=0)
    served = []
    for step in range(bundle.input_length + 2):
        store.observe(step, rng.standard_normal((bundle.num_nodes, bundle.num_features)) + 50.0)
        if step + 1 >= bundle.input_length:
            served.append(engine.forecast().prediction)
    served = np.stack(served)
    assert engine.planner.snapshot()["ready"] == 1
    assert served.dtype == recorded["served"].dtype
    np.testing.assert_allclose(served, recorded["served"], rtol=1e-5, atol=1e-6)

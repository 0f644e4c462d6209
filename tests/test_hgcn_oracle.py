"""The one-contraction HGCN block against the per-graph form it replaced.

``HGCNBlock`` propagates every graph through one stacked Chebyshev
basis, scales each graph's block by its interval weight and sums the
graphs in one matmul. ``_per_graph_forward`` below is a test-local copy
of the earlier implementation: one ``ChebConv`` per graph, the temporal
embeddings scaled and added one at a time. The two sum in a different
order, so they agree to rounding, not bit for bit: float64 predictions
and every parameter gradient within 1e-12 relative, float32 within
``allclose``. The state dict keeps one ``ChebConv`` per graph
(``tests/test_bundle_surface.py`` pins it).
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.autodiff import Tensor, default_dtype, dtype_policy, gradcheck, no_grad
from repro.experiments import build_model
from repro.models import HGCNBlock
from repro.nn import stack_modules
from repro.training import Trainer


def _per_graph_forward(block, x, weights):
    """``S_t = GCN_geo(X_t) + sum_m w_m(t) * GCN_m(X_t)``, one graph at a time."""
    weights = np.asanyarray(weights, dtype=default_dtype())
    out = block.geo_conv(x)
    for idx, conv in enumerate(block.temporal_convs):
        out = out + conv(x) * Tensor(weights[..., idx][..., None, None])
    return out.relu()


def _run(model, batch):
    """The prediction of a no-grad forward and the gradients of one loss."""
    with no_grad():
        prediction = model.forward_batch(batch).prediction.data
    model.zero_grad()
    Trainer(model)._batch_loss(batch).backward()
    arrays = {"prediction": prediction}
    arrays.update(
        (f"grad:{name}", param.grad) for name, param in model.named_parameters()
    )
    return arrays


@pytest.mark.parametrize("membership", ["hard", "soft"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_hgcn_matches_per_graph_form(tiny_ctx, monkeypatch, dtype, membership):
    ctx = replace(tiny_ctx, model_config=replace(
        tiny_ctx.model_config, membership_mode=membership))
    batch = ctx.train_windows.subset(np.arange(8))
    with dtype_policy(dtype):
        model = build_model("RIHGCN", ctx)
        stacked = _run(model, batch)
        monkeypatch.setattr(HGCNBlock, "bind", lambda self: partial(_per_graph_forward, self))
        oracle = _run(model, batch)
    assert set(stacked) == set(oracle)
    assert sum(key.startswith("grad:") for key in oracle) == len(list(model.parameters()))
    for key, expected in oracle.items():
        got = stacked[key]
        assert got.dtype == expected.dtype, key
        if dtype == np.float64:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=key)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6, err_msg=key)


def test_gradcheck_every_graph_weight_and_bias(tiny_ctx):
    """Finite differences through the geographic and every temporal GCN."""
    rng = np.random.default_rng(0)
    with dtype_policy(np.float64):
        block = HGCNBlock(3, 4, tiny_ctx.graphs(), cheb_order=3, rng=rng)
        params = dict(block.named_parameters())
        assert len(params) == 2 * (1 + block.num_temporal)
        x = Tensor(rng.standard_normal((2, tiny_ctx.num_nodes, 3)), requires_grad=True)
        # Every graph carries weight in some sample, the geographic one in all.
        weights = rng.uniform(0.2, 1.0, size=(2, block.num_temporal))
        assert gradcheck(lambda x, *_params: block(x, weights), [x, *params.values()])


def test_direction_stacked_block_matches_each_direction(tiny_ctx):
    """A leading direction axis runs each direction with its own parameters."""
    with dtype_policy(np.float64):
        model = build_model("RIHGCN", tiny_ctx)
        blocks = [model.forward_pass.spatial, model.backward_pass.spatial]
        stacked = stack_modules(blocks, rank=4)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, tiny_ctx.num_nodes, tiny_ctx.num_features))
        weights = rng.uniform(0.0, 1.0, size=(2, 3, blocks[0].num_temporal))
        with no_grad():
            both = stacked(Tensor(x), weights).data
            for d, block in enumerate(blocks):
                assert both[d].tobytes() == block(Tensor(x[d]), weights[d]).data.tobytes()

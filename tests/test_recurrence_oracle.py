"""The direction-stacked recurrence against the per-direction loop it replaced.

``RecurrentImputationForecaster`` runs both imputation directions as one
recurrence over a leading direction axis. ``_oracle_forward_core`` below
is a test-local copy of the earlier implementation: one Eq. 3–5 loop per
direction with that direction's own modules, hidden states concatenated
afterwards. Both must agree bit for bit on the prediction, the two
estimate stacks, ``estimate_validity`` and every parameter gradient of
one training loss, in float64 and float32, across the model family and
its ablation switches.
"""

import types
from dataclasses import replace

import numpy as np
import pytest

from repro.autodiff import Tensor, concat, default_dtype, dtype_policy, no_grad, stack, where
from repro.experiments import build_model
from repro.models import rihgcn
from repro.models.base import ForecastOutput
from repro.training import Trainer


def _oracle_pass(direction, x, m, weights, reverse, detach_imputation):
    """One direction of the recurrence, time step by time step."""
    batch, steps, nodes, features = x.shape
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    z_store = [None] * steps
    estimates = [None] * steps
    est_prev = None
    state = None
    for t in order:
        x_t = Tensor(x[:, t])
        m_t = m[:, t]
        if est_prev is None:
            x_comp = x_t
        else:
            feed = est_prev.detach() if detach_imputation else est_prev
            x_comp = where(m_t > 0, x_t, feed)
        w_t = weights[:, t] if weights is not None else None
        s_t = direction.spatial(x_comp, w_t)
        if direction.use_lstm:
            s_flat = s_t.reshape(batch * nodes, direction.embed_dim)
            m_flat = Tensor(m_t.reshape(batch * nodes, features))
            h, c = direction.cell(concat([s_flat, m_flat], axis=-1), state)
            state = (h, c)
            z_t = concat([s_t, h.reshape(batch, nodes, direction.hidden_dim)], axis=-1)
        else:
            z_t = s_t
        z_store[t] = z_t
        est_next = direction.estimate_head(z_t)
        target_step = t - 1 if reverse else t + 1
        if 0 <= target_step < steps:
            estimates[target_step] = est_next
        est_prev = est_next
    return stack(z_store, axis=1), estimates


def _oracle_forward_core(self, x, m, weights):
    """The forecaster's forward with one loop per direction."""
    batch, steps, nodes, features = x.shape
    z_fwd, est_fwd = _oracle_pass(self.forward_pass, x, m, weights, False,
                                  self.detach_imputation)
    est_bwd = None
    z = z_fwd
    if self.backward_pass is not None:
        z_bwd, est_bwd = _oracle_pass(self.backward_pass, x, m, weights, True,
                                      self.detach_imputation)
        z = concat([z_fwd, z_bwd], axis=-1)
    if self.head_mode == "concat":
        z_nodes = z.transpose(0, 2, 1, 3).reshape(batch, nodes, steps * z.shape[-1])
        flat = self.head(z_nodes)
    else:
        from repro.autodiff import softmax

        scores = self.att_score(self.att_proj(z).tanh())
        attention = softmax(scores, axis=1)
        flat = self.head((z * attention).sum(axis=1))
    prediction = flat.reshape(
        batch, nodes, self.output_length, self.output_features
    ).transpose(0, 2, 1, 3)

    zero = Tensor(np.zeros((batch, nodes, features), dtype=default_dtype()))
    fwd_stack = stack([e if e is not None else zero for e in est_fwd], axis=1)
    validity = np.array([1.0 if e is not None else 0.0 for e in est_fwd])
    bwd_stack = None
    if est_bwd is not None:
        bwd_stack = stack([e if e is not None else zero for e in est_bwd], axis=1)
        validity = validity * np.array([1.0 if e is not None else 0.0 for e in est_bwd])
    return ForecastOutput(prediction=prediction, estimates_fwd=fwd_stack,
                          estimates_bwd=bwd_stack, estimate_validity=validity)


#: name -> (registry model, ModelConfig overrides, extra constructor kwargs)
CASES = {
    "RIHGCN": ("RIHGCN", {}, None),
    "GCN-LSTM-I": ("GCN-LSTM-I", {}, None),
    "FC-GCN-I": ("FC-GCN-I", {}, None),
    "FC-LSTM-I": ("FC-LSTM-I", {}, None),
    "RIHGCN-unidirectional": ("RIHGCN", {"bidirectional": False}, None),
    "RIHGCN-detached": ("RIHGCN", {"detach_imputation": True}, None),
    "RIHGCN-soft": ("RIHGCN", {"membership_mode": "soft"}, None),
    "RIHGCN-attention": ("RIHGCN", {}, {"head_mode": "attention"}),
}


def _build(ctx, case):
    name, overrides, extra = CASES[case]
    ctx = replace(ctx, model_config=replace(ctx.model_config, **overrides))
    if extra is None:
        return build_model(name, ctx)
    mc, dc = ctx.model_config, ctx.data_config
    return rihgcn(
        graphs=ctx.graphs(), input_length=dc.input_length,
        output_length=dc.output_length, num_nodes=ctx.num_nodes,
        num_features=ctx.num_features, embed_dim=mc.embed_dim,
        hidden_dim=mc.hidden_dim, cheb_order=mc.cheb_order, seed=mc.seed,
        bidirectional=mc.bidirectional, detach_imputation=mc.detach_imputation,
        **extra,
    )


def _run(model, batch):
    """Outputs of a no-grad forward and the gradients of one training loss."""
    with no_grad():
        out = model.forward_batch(batch)
    model.zero_grad()
    Trainer(model)._batch_loss(batch).backward()
    arrays = {
        "prediction": out.prediction.data,
        "estimates_fwd": out.estimates_fwd.data,
        "estimates_bwd": None if out.estimates_bwd is None else out.estimates_bwd.data,
        "estimate_validity": out.estimate_validity,
    }
    arrays.update(
        (f"grad:{name}", param.grad) for name, param in model.named_parameters()
    )
    return arrays


def _bits(array):
    if array is None:
        return None
    array = np.asarray(array)
    return array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes()


def _compare(ctx, case, dtype, windows):
    batch = ctx.train_windows.subset(np.arange(windows))
    with dtype_policy(dtype):
        model = _build(ctx, case)
        stacked = _run(model, batch)
        model._forward_core = types.MethodType(_oracle_forward_core, model)
        oracle = _run(model, batch)
    assert set(stacked) == set(oracle)
    assert sum(key.startswith("grad:") for key in oracle) == len(list(model.parameters()))
    assert stacked["estimate_validity"].dtype == np.float64
    return stacked, oracle


#: Gradients summed in a different step order. With imputation detached
#: nothing chains one step's estimate head to the next, so each direction
#: sums the head's per-step contributions in the order the backward sweep
#: reaches them. The per-direction loop reached its backward direction's
#: steps in the reverse of its forward direction's order; the stacked
#: steps share one order, so these two sums differ in the last bits.
REORDERED = {
    "RIHGCN-detached": {
        "grad:backward_pass.estimate_head.weight",
        "grad:backward_pass.estimate_head.bias",
    },
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", list(CASES))
def test_stacked_recurrence_matches_per_direction_loop_bitwise(tiny_ctx, case, dtype):
    stacked, oracle = _compare(tiny_ctx, case, dtype, windows=5)
    reordered = REORDERED.get(case, set())
    differing = [key for key in oracle
                 if key not in reordered and _bits(stacked[key]) != _bits(oracle[key])]
    assert not differing, differing
    for key in reordered:
        assert stacked[key].dtype == oracle[key].dtype
        np.testing.assert_allclose(stacked[key], oracle[key], rtol=1e-12, atol=0)


def test_single_window_forward_and_gradients_match_bitwise(tiny_ctx):
    """Batch 1 is the serving shape: no broadcast batch axis to reduce."""
    stacked, oracle = _compare(tiny_ctx, "RIHGCN", np.float32, windows=1)
    differing = [key for key in oracle if _bits(stacked[key]) != _bits(oracle[key])]
    assert not differing, differing

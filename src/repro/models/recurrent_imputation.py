"""The recurrent-imputation forecaster family (Sections III-E / III-F).

One configurable class covers the paper's model and its three ablations:

=================  ==================  =========
Name               spatial encoder      temporal
=================  ==================  =========
FC-LSTM-I          LinearEncoder        LSTM
FC-GCN-I           GCNEncoder           (none)
GCN-LSTM-I         GCNEncoder           LSTM
RIHGCN             HGCNBlock            LSTM
=================  ==================  =========

Mechanics per direction (Eq. 3–5): at step ``t`` the incomplete input is
complemented with the previous step's estimate,
``X̂_t = M_t ⊙ X_t + (1-M_t) ⊙ X̂ᵉ_t``; the spatial encoder produces node
embeddings ``S_t``; the (mask-conditioned) LSTM produces hidden states
``H_t``; ``Z_t = [S_t; H_t]`` feeds a linear head that estimates
``X̂ᵉ_{t+1}``. Crucially the estimate stays attached to the autodiff graph,
so imputation errors receive delayed gradients from later steps and from
the forecast loss — the paper's central training trick
(``detach_imputation=True`` severs this link for the ablation benchmark).

A bi-directional pass (Section III-F) repeats this backward in time with
its own parameters; hidden states are concatenated and estimates from both
directions enter the consistency loss (Eq. 6).

Both directions run as one recurrence on a leading direction axis ``D``
(2, or 1 with ``bidirectional=False``): step ``k`` updates forward time
``k`` and backward time ``T-1-k`` together, and the spatial encoder, the
LSTM cell and the estimate head each run once per step on ``(D, B, ...)``
arrays with the directions' parameters stacked on that axis
(:func:`~repro.nn.stack_modules`). Each direction keeps its own modules,
so the state dict (``forward_pass.*``, ``backward_pass.*``) and the
bundle format are those of two separate passes; a traced plan folds the
stacked parameters into constants, and runs half the ops of two passes.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import (
    Tensor, concat, default_dtype, is_grad_enabled, no_grad, stack, where,
)
from ..graphs import HeterogeneousGraphSet
from ..nn import Linear, LSTMCell, Module, init, stack_modules
from .base import ForecastOutput, NeuralForecaster
from .hgcn import GCNEncoder, HGCNBlock, LinearEncoder, SpatialEncoder

__all__ = ["RecurrentImputationForecaster", "build_spatial_encoder"]


def build_spatial_encoder(
    kind: str,
    in_channels: int,
    out_channels: int,
    adjacency: np.ndarray | None = None,
    graphs: HeterogeneousGraphSet | None = None,
    cheb_order: int = 3,
    rng: np.random.Generator | None = None,
) -> SpatialEncoder:
    """Factory mapping a config string to a spatial encoder.

    ``kind``: ``"none"`` (shared linear), ``"gcn"`` (geographic graph,
    requires ``adjacency``) or ``"hgcn"`` (requires ``graphs``).
    """
    if kind == "none":
        return LinearEncoder(in_channels, out_channels, rng=rng)
    if kind == "gcn":
        if adjacency is None:
            raise ValueError("spatial kind 'gcn' requires an adjacency matrix")
        return GCNEncoder(in_channels, out_channels, adjacency, cheb_order, rng=rng)
    if kind == "hgcn":
        if graphs is None:
            raise ValueError("spatial kind 'hgcn' requires a HeterogeneousGraphSet")
        return HGCNBlock(in_channels, out_channels, graphs, cheb_order, rng=rng)
    raise ValueError(f"unknown spatial encoder kind {kind!r}")


class _DirectionPass(Module):
    """One direction's parameters: spatial encoder, LSTM cell, estimate head.

    It has no forward of its own: the forecaster runs every direction at
    once on direction-stacked copies of these modules (see
    :meth:`RecurrentImputationForecaster._recurrence`).
    """

    def __init__(
        self,
        spatial: SpatialEncoder,
        num_features: int,
        embed_dim: int,
        hidden_dim: int,
        use_lstm: bool,
        rng: np.random.Generator | None,
    ):
        super().__init__()
        self.spatial = spatial
        self.use_lstm = use_lstm
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim if use_lstm else 0
        if use_lstm:
            # LSTM input is [S_t ; m_t] per node (Eq. 4).
            self.cell = LSTMCell(embed_dim + num_features, hidden_dim, rng=rng)
        self.estimate_head = Linear(embed_dim + self.hidden_dim, num_features, rng=rng)

    @property
    def state_dim(self) -> int:
        """Per-node dimension of Z_t."""
        return self.embed_dim + self.hidden_dim


def _select(x: Tensor, index) -> Tensor:
    """``x[index]`` with a dense gradient in the dtype it arrives in.

    ``Tensor.__getitem__`` scatters its gradient into a buffer of ``x``'s
    dtype. Splitting the directions back out must not cast: under the
    float32 policy the loss (with its float64 denominators and validity
    mask) still sends a float64 gradient, which every other dense op of
    the recurrence passes on uncast.
    """
    if not is_grad_enabled():
        return x[index]

    def backward(g, shape=x.shape, idx=index):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return Tensor._make(x.data[index], (x,), backward, "select")


def _concat_in_time(x: Tensor) -> Tensor:
    """``(D, B, T, N, C)`` in step order -> ``(B, T, N, D·C)`` in time order.

    The backward direction's step ``k`` is time ``T-1-k``, so its slice is
    flipped along ``T`` before the directions are concatenated per node.
    The gradient is written back slice by slice into one buffer, in the
    dtype it arrives in (see :func:`_select`).
    """
    parts = [x.data[0]]
    if x.shape[0] == 2:
        parts.append(x.data[1, :, ::-1])
    data = np.concatenate(parts, axis=-1)
    if not is_grad_enabled():
        return Tensor(data)

    def backward(g, shape=x.shape):
        width = shape[-1]
        grad = np.empty(shape, dtype=g.dtype)
        grad[0] = g[..., :width]
        if shape[0] == 2:
            grad[1] = g[:, ::-1, :, width:]
        return (grad,)

    return Tensor._make(data, (x,), backward, "concat_in_time")


def _by_step(a: np.ndarray, directions: int) -> np.ndarray:
    """``(B, T, ...) -> (T, D, B, ...)``: row ``k`` holds time ``k`` for the
    forward direction and time ``T-1-k`` for the backward one."""
    in_time = a.swapaxes(0, 1)
    return np.stack([in_time, in_time[::-1]][:directions], axis=1)


class RecurrentImputationForecaster(NeuralForecaster):
    """Joint imputation + forecasting model (the paper's framework).

    Parameters
    ----------
    spatial_kind:
        ``"none"`` / ``"gcn"`` / ``"hgcn"`` — selects the ablation.
    adjacency / graphs:
        Geographic adjacency (for ``gcn``) or the full heterogeneous set
        (for ``hgcn``).
    embed_dim:
        GCN output channels per node, the paper's ``p`` (64 filters).
    hidden_dim:
        LSTM hidden size, the paper's ``q`` (128).
    bidirectional:
        Run the backward pass too (Section III-F); required for the
        consistency term of Eq. 6.
    detach_imputation:
        Ablation switch: treat estimates as constants during backprop
        (the "standard LSTM imputation" the paper contrasts against).
    use_lstm:
        Disable for the FC-GCN-I ablation (spatial correlations only).
    head_mode:
        How Eq. (7) aggregates hidden states across time: ``"concat"``
        (flatten all Z_t into one FC input — the default) or
        ``"attention"`` (learned softmax weights over time steps, the
        paper's mentioned alternative).
    """

    uses_mask = True
    produces_estimates = True

    def __init__(
        self,
        input_length: int,
        output_length: int,
        num_nodes: int,
        num_features: int,
        output_features: int | None = None,
        spatial_kind: str = "hgcn",
        adjacency: np.ndarray | None = None,
        graphs: HeterogeneousGraphSet | None = None,
        embed_dim: int = 64,
        hidden_dim: int = 128,
        cheb_order: int = 3,
        bidirectional: bool = True,
        detach_imputation: bool = False,
        use_lstm: bool = True,
        head_mode: str = "concat",
        attention_dim: int = 32,
        seed: int = 0,
    ):
        super().__init__(input_length, output_length, num_nodes, num_features,
                         output_features)
        if head_mode not in ("concat", "attention"):
            raise ValueError(f"unknown head_mode {head_mode!r}")
        rng = init.generator(seed)
        self.spatial_kind = spatial_kind
        self.bidirectional = bidirectional
        self.detach_imputation = detach_imputation
        self.head_mode = head_mode
        self.graphs = graphs

        def make_pass() -> _DirectionPass:
            spatial = build_spatial_encoder(
                spatial_kind, num_features, embed_dim,
                adjacency=adjacency, graphs=graphs, cheb_order=cheb_order, rng=rng,
            )
            return _DirectionPass(
                spatial, num_features, embed_dim, hidden_dim, use_lstm, rng
            )

        self.forward_pass = make_pass()
        self.backward_pass = make_pass() if bidirectional else None

        directions = 2 if bidirectional else 1
        state_dim = self.forward_pass.state_dim * directions
        # Aggregation (Eq. 7): concatenate Z_t across time, or weight them
        # with learned temporal attention.
        if head_mode == "concat":
            self.head = Linear(
                input_length * state_dim,
                output_length * self.output_features,
                rng=rng,
            )
        else:
            self.att_proj = Linear(state_dim, attention_dim, rng=rng)
            self.att_score = Linear(attention_dim, 1, rng=rng)
            self.head = Linear(
                state_dim, output_length * self.output_features, rng=rng
            )

    # ------------------------------------------------------------------
    def _interval_weights(self, steps_of_day: np.ndarray) -> np.ndarray | None:
        """Per-(sample, step) temporal-graph weights ``(B, T, M)``."""
        if self.graphs is None or self.spatial_kind != "hgcn":
            return None
        batch, steps = steps_of_day.shape
        flat = self.graphs.interval_weights(steps_of_day.reshape(-1))
        return flat.reshape(batch, steps, -1)

    def forward(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> ForecastOutput:
        # asanyarray: keep tracing subclasses alive through the cast.
        x = np.asanyarray(x, dtype=default_dtype())
        m = np.asanyarray(m, dtype=default_dtype())
        weights = self._interval_weights(np.asarray(steps_of_day))
        return self._forward_core(x, m, weights)

    def _forward_core(
        self, x: np.ndarray, m: np.ndarray, weights: np.ndarray | None
    ) -> ForecastOutput:
        """Forward pass over precomputed interval weights.

        Shared by :meth:`forward` (which derives ``weights`` from
        ``steps_of_day``) and :meth:`plan_forward` (which receives them
        as an explicit plan input so the tracer never sees the
        data-dependent interval lookup).
        """
        batch, steps, nodes, _features = x.shape
        if steps != self.input_length:
            raise ValueError(
                f"expected {self.input_length} input steps, got {steps}"
            )

        z, est_fwd, est_bwd = self._recurrence(x, m, weights)

        if self.head_mode == "concat":
            # (B, T, N, Z) -> (B, N, T*Z) -> head -> (B, T_out, N, D_out).
            z_nodes = z.transpose(0, 2, 1, 3).reshape(
                batch, nodes, steps * z.shape[-1]
            )
            flat = self.head(z_nodes)  # (B, N, T_out * D_out)
        else:
            # Attention over time: a_t = softmax_t(v^T tanh(W z_t)).
            from ..autodiff import softmax

            scores = self.att_score(self.att_proj(z).tanh())  # (B, T, N, 1)
            attention = softmax(scores, axis=1)
            context = (z * attention).sum(axis=1)  # (B, N, Z)
            flat = self.head(context)  # (B, N, T_out * D_out)
        prediction = flat.reshape(
            batch, nodes, self.output_length, self.output_features
        ).transpose(0, 2, 1, 3)

        # Step 0 of each direction has no predecessor to estimate it.
        validity = np.ones(steps)
        validity[0] = 0.0
        if est_bwd is not None:
            validity[-1] = 0.0
        return ForecastOutput(
            prediction=prediction,
            estimates_fwd=est_fwd,
            estimates_bwd=est_bwd,
            estimate_validity=validity,
        )

    def _recurrence(
        self, x: np.ndarray, m: np.ndarray, weights: np.ndarray | None
    ) -> tuple[Tensor, Tensor, Tensor | None]:
        """Eq. 3–5 in every direction at once.

        The directions share one loop over a leading direction axis
        ``D``: step ``k`` updates forward time ``k`` and backward time
        ``T-1-k`` together, each with its own direction's parameters
        (:func:`stack_modules`). Returns ``(z, estimates_fwd,
        estimates_bwd)``: ``z`` is ``(B, T, N, D·state_dim)`` with the
        directions concatenated per time step, and each estimate stack
        is ``(B, T, N, F)`` in time order, zero at the step its direction
        starts from.
        """
        batch, steps, nodes, features = x.shape
        passes = [self.forward_pass]
        if self.backward_pass is not None:
            passes.append(self.backward_pass)
        directions = len(passes)
        # Bound once per forward, so HGCN concatenates its weights once.
        spatial = stack_modules([p.spatial for p in passes], rank=4).bind()
        head = stack_modules([p.estimate_head for p in passes], rank=4)
        cell = (stack_modules([p.cell for p in passes], rank=3)
                if self.forward_pass.use_lstm else None)
        embed, hidden = self.forward_pass.embed_dim, self.forward_pass.hidden_dim

        x_steps = _by_step(x, directions)
        m_steps = _by_step(m, directions)
        observed = m_steps > 0
        w_steps = None if weights is None else _by_step(weights, directions)
        z_steps: list[Tensor] = []
        estimates: list[Tensor] = []
        state = None
        for k in range(steps):
            x_k = Tensor(x_steps[k])  # (D, B, N, F)
            if not estimates:
                x_comp = x_k  # zero-filled missing entries at the boundary
            else:
                feed = estimates[-1].detach() if self.detach_imputation else estimates[-1]
                x_comp = where(observed[k], x_k, feed)  # Eq. 3
            s_k = spatial(x_comp, None if w_steps is None else w_steps[k])  # (D, B, N, p)
            if cell is not None:
                s_flat = s_k.reshape(directions, batch * nodes, embed)
                m_flat = Tensor(m_steps[k].reshape(directions, batch * nodes, features))
                state = cell(concat([s_flat, m_flat], axis=-1), state)
                h = state[0].reshape(directions, batch, nodes, hidden)
                z_k = concat([s_k, h], axis=-1)
            else:
                z_k = s_k
            z_steps.append(z_k)
            if k < steps - 1:
                estimates.append(head(z_k))  # estimates X at the next step

        # (D, B, T, N, ·) in step order; the backward direction reads time
        # reversed, so its time-ordered view flips the step axis.
        z = _concat_in_time(stack(z_steps, axis=2))
        zero = Tensor(np.zeros((directions, batch, nodes, features), dtype=default_dtype()))
        est_all = stack([zero] + estimates, axis=2)
        est_fwd = _select(est_all, (0,))
        if directions == 1:
            return z, est_fwd, None
        return z, est_fwd, _select(est_all, (1, slice(None), slice(None, None, -1)))

    # ------------------------------------------------------------------
    # Traced execution plans
    # ------------------------------------------------------------------
    def plan_inputs(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> tuple[dict[str, np.ndarray], tuple]:
        """Eager prologue for tracing: cast, and resolve interval weights.

        The interval-weight lookup is data-dependent (it indexes the
        timeline partition by step-of-day), so it runs eagerly here and
        the resulting ``(B, T, M)`` weights become a plan *input*. The
        forward has no branch on them (``HGCNBlock`` runs every graph
        and scales it by its weight), so the signature is ``()``: one
        plan per batch shape serves every step of the day.
        """
        x = np.asarray(x, dtype=default_dtype())
        m = np.asarray(m, dtype=default_dtype())
        weights = self._interval_weights(np.asarray(steps_of_day))
        inputs = {"x": x, "m": m}
        if weights is not None:
            inputs["weights"] = np.asarray(weights, dtype=default_dtype())
        return inputs, ()

    def plan_forward(
        self,
        x: np.ndarray,
        m: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        return self._forward_core(x, m, weights).prediction.data

    # ------------------------------------------------------------------
    def impute(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> np.ndarray:
        """Fill missing history entries (inference-time imputation, RQ2).

        Observed entries pass through unchanged; missing entries take the
        bidirectional mean estimate (or the single available direction at
        the boundary steps).
        """
        with no_grad():
            out = self.forward(x, m, steps_of_day)
        fwd = out.estimates_fwd.data
        if out.estimates_bwd is not None:
            bwd = out.estimates_bwd.data
            steps = x.shape[1]
            fwd_valid = np.array([t > 0 for t in range(steps)], dtype=default_dtype())
            bwd_valid = np.array([t < steps - 1 for t in range(steps)], dtype=default_dtype())
            weight_f = fwd_valid[None, :, None, None]
            weight_b = bwd_valid[None, :, None, None]
            denom = np.maximum(weight_f + weight_b, 1.0)
            estimate = (fwd * weight_f + bwd * weight_b) / denom
        else:
            estimate = fwd
        m = np.asanyarray(m, dtype=default_dtype())
        return m * np.asanyarray(x) + (1.0 - m) * estimate

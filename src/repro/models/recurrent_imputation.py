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
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, default_dtype, no_grad, stack, where
from ..graphs import HeterogeneousGraphSet
from ..nn import Linear, LSTMCell, Module
from .base import ForecastOutput, NeuralForecaster
from .hgcn import GCNEncoder, HGCNBlock, LinearEncoder, SpatialEncoder, temporal_activity

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
    """One direction (forward or backward) of the recurrent imputation."""

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

    def forward(
        self,
        x: np.ndarray,
        m: np.ndarray,
        interval_weights: np.ndarray | None,
        reverse: bool,
        detach_imputation: bool,
    ) -> tuple[Tensor, list[Tensor | None]]:
        """Run the pass.

        Returns ``(z, estimates)`` where ``z`` is ``(B, T, N, state_dim)``
        and ``estimates[t]`` is the ``(B, N, D)`` estimate of ``X_t``
        produced by the *previous* step in this direction (``None`` at the
        boundary step that has no predecessor).
        """
        batch, steps, nodes, features = x.shape
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        z_store: list[Tensor | None] = [None] * steps
        estimates: list[Tensor | None] = [None] * steps

        # Graph skips are decided once for the window, from the mask the
        # plan signature keys on; deciding them per step would make the
        # branches depend on where an interval boundary falls in the window.
        active = (
            temporal_activity(interval_weights) if interval_weights is not None else None
        )
        est_prev: Tensor | None = None
        state = None
        for t in order:
            x_t = Tensor(x[:, t])
            m_t = m[:, t]  # (B, N, D) numpy
            if est_prev is None:
                x_comp = x_t  # zero-filled missing entries at the boundary
            else:
                feed = est_prev.detach() if detach_imputation else est_prev
                x_comp = where(m_t > 0, x_t, feed)  # Eq. 3
            w_t = interval_weights[:, t] if interval_weights is not None else None
            s_t = self.spatial(x_comp, w_t, active)  # (B, N, p)
            if self.use_lstm:
                s_flat = s_t.reshape(batch * nodes, self.embed_dim)
                m_flat = Tensor(m_t.reshape(batch * nodes, features))
                h, c = self.cell(concat([s_flat, m_flat], axis=-1), state)
                state = (h, c)
                z_t = concat([s_t, h.reshape(batch, nodes, self.hidden_dim)], axis=-1)
            else:
                z_t = s_t
            z_store[t] = z_t
            est_next = self.estimate_head(z_t)  # estimates X at the next step
            target_step = t - 1 if reverse else t + 1
            if 0 <= target_step < steps:
                estimates[target_step] = est_next
            est_prev = est_next
        z = stack([zt for zt in z_store], axis=1)  # (B, T, N, state_dim)
        return z, estimates


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
        rng = np.random.default_rng(seed)
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

        z_fwd, est_fwd = self.forward_pass(
            x, m, weights, reverse=False, detach_imputation=self.detach_imputation
        )
        if self.backward_pass is not None:
            z_bwd, est_bwd = self.backward_pass(
                x, m, weights, reverse=True, detach_imputation=self.detach_imputation
            )
            z = concat([z_fwd, z_bwd], axis=-1)
        else:
            z_bwd, est_bwd = None, None
            z = z_fwd

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

        est_fwd_t, est_bwd_t, validity = self._assemble_estimates(
            est_fwd, est_bwd, x.shape
        )
        return ForecastOutput(
            prediction=prediction,
            estimates_fwd=est_fwd_t,
            estimates_bwd=est_bwd_t,
            estimate_validity=validity,
        )

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
        signature is the window's per-graph activity bitmask
        (:func:`temporal_activity`) — ``HGCNBlock`` skips the temporal
        graphs outside it at every step of the window, so a plan is
        valid for every request activating the same graph subset.
        """
        x = np.asarray(x, dtype=default_dtype())
        m = np.asarray(m, dtype=default_dtype())
        weights = self._interval_weights(np.asarray(steps_of_day))
        inputs = {"x": x, "m": m}
        if weights is None:
            return inputs, ()
        weights = np.asarray(weights, dtype=default_dtype())
        inputs["weights"] = weights
        signature = tuple(bool(b) for b in temporal_activity(weights))
        return inputs, signature

    def plan_forward(
        self,
        x: np.ndarray,
        m: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        return self._forward_core(x, m, weights).prediction.data

    def _assemble_estimates(
        self,
        est_fwd: list[Tensor | None],
        est_bwd: list[Tensor | None] | None,
        shape: tuple[int, ...],
    ) -> tuple[Tensor, Tensor | None, np.ndarray]:
        """Stack per-step estimates, zero-filling boundary steps."""
        batch, steps, nodes, features = shape
        zero = Tensor(np.zeros((batch, nodes, features), dtype=default_dtype()))
        fwd_stack = stack([e if e is not None else zero for e in est_fwd], axis=1)
        validity = np.array([1.0 if e is not None else 0.0 for e in est_fwd])
        if est_bwd is not None:
            bwd_stack = stack([e if e is not None else zero for e in est_bwd], axis=1)
            validity = validity * np.array(
                [1.0 if e is not None else 0.0 for e in est_bwd]
            )
            return fwd_stack, bwd_stack, validity
        return fwd_stack, None, validity

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

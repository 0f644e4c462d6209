"""MagiNet-style mask-conditioned deep imputation forecaster.

A mask-aware baseline in the spirit of MagiNet (arXiv 2406.03511): the
missing pattern itself — the mask and the time-since-last-observation —
is an *input* the network conditions on, not just a weighting in the
loss. Two mask-gated recurrent passes (forward and backward in time)
each maintain a running estimate of the next reading; a learned
confidence gate, driven purely by the missing pattern ``[m ; δ]``,
decides how much of the recurrent estimate to trust when a value is
absent:

* ``g_t = sigmoid(W_g [m_t ; δ_t])`` — pattern-conditioned confidence;
* ``x̃_t = m_t ⊙ x_t + (1-m_t) ⊙ (g_t ⊙ x̂_t)`` — observed values pass
  through, missing ones take the gated recurrent estimate;
* ``s_t = tanh(W_f [x̃_t ; m_t])`` — mask-conditioned encoding fed to a
  per-node GRU.

Both directions emit step-ahead estimates, so the trainer's
:class:`~repro.nn.JointLoss` applies its imputation and consistency
terms exactly as it does for the paper's RIHGCN family, and
:meth:`impute` serves the RQ2 protocol. Unlike RIHGCN there is no graph
convolution: the model isolates how far mask conditioning alone goes,
which is the comparison the missing-pattern gauntlet needs.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, default_dtype, no_grad, stack, where
from ..nn import GRUCell, Linear, init
from .base import ForecastOutput, NeuralForecaster

__all__ = ["MagiNetForecaster", "compute_deltas"]


def compute_deltas(mask: np.ndarray) -> np.ndarray:
    """Time since the last observation, per entry.

    ``mask``: ``(B, T, N, D)``; returns ``delta`` of the same shape where
    ``delta[:, t]`` is the number of steps since the entry was last
    observed (counting from the previous step, so an entry observed at
    ``t-1`` has delta 1; the first step has delta 0 by convention).
    """
    mask = np.asarray(mask)
    delta = np.zeros_like(mask, dtype=default_dtype())
    for t in range(1, mask.shape[1]):
        delta[:, t] = np.where(
            mask[:, t - 1] > 0, 1.0, delta[:, t - 1] + 1.0
        )
    return delta


class _MaskGatedPass:
    """One direction of the mask-conditioned recurrence (not a Module:
    the owner registers the layers; this just groups them)."""

    def __init__(self, num_features: int, embed_dim: int, hidden_dim: int, rng):
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        # Confidence gate from the missing pattern alone.
        self.gate = Linear(2 * num_features, num_features, rng=rng)
        # Mask-conditioned input encoding.
        self.encoder = Linear(2 * num_features, embed_dim, rng=rng)
        self.cell = GRUCell(embed_dim, hidden_dim, rng=rng)
        self.estimate_head = Linear(hidden_dim, num_features, rng=rng)

    def layers(self) -> dict:
        return {
            "gate": self.gate,
            "encoder": self.encoder,
            "cell": self.cell,
            "estimate_head": self.estimate_head,
        }

    def forward(
        self,
        x: np.ndarray,
        m: np.ndarray,
        deltas: np.ndarray,
        reverse: bool,
    ) -> tuple[list[Tensor], list[Tensor | None]]:
        """Returns ``(hidden, estimates)`` per step.

        ``hidden[t]`` is the ``(B, N, H)`` state after consuming step
        ``t``; ``estimates[t]`` is the ``(B, N, D)`` estimate of ``X_t``
        produced by the *previous* step in this direction (``None`` at
        the boundary step that has no predecessor).
        """
        batch, steps, nodes, features = x.shape
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        hidden: list[Tensor | None] = [None] * steps
        estimates: list[Tensor | None] = [None] * steps

        est_prev: Tensor | None = None
        state = None
        for t in order:
            x_t = Tensor(x[:, t].reshape(batch * nodes, features))
            m_np = m[:, t].reshape(batch * nodes, features)
            m_t = Tensor(m_np)
            d_t = Tensor(deltas[:, t].reshape(batch * nodes, features))
            gate = self.gate(concat([m_t, d_t], axis=-1)).sigmoid()
            if est_prev is None:
                x_comp = x_t  # zero-filled missing entries at the boundary
            else:
                x_comp = where(m_np > 0, x_t, gate * est_prev)
            s_t = self.encoder(concat([x_comp, m_t], axis=-1)).tanh()
            state = self.cell(s_t, state)
            hidden[t] = state.reshape(batch, nodes, self.hidden_dim)
            est_next = self.estimate_head(state)
            target_step = t - 1 if reverse else t + 1
            if 0 <= target_step < steps:
                estimates[target_step] = est_next.reshape(batch, nodes, features)
            est_prev = est_next
        return hidden, estimates


class MagiNetForecaster(NeuralForecaster):
    """Bidirectional mask-conditioned GRU forecaster with imputation heads."""

    uses_mask = True
    produces_estimates = True

    def __init__(
        self,
        input_length: int,
        output_length: int,
        num_nodes: int,
        num_features: int,
        output_features: int | None = None,
        embed_dim: int = 32,
        hidden_dim: int = 64,
        seed: int = 0,
    ):
        super().__init__(input_length, output_length, num_nodes, num_features,
                         output_features)
        rng = init.generator(seed)
        self.hidden_dim = hidden_dim
        self.forward_pass = _MaskGatedPass(num_features, embed_dim, hidden_dim, rng)
        self.backward_pass = _MaskGatedPass(num_features, embed_dim, hidden_dim, rng)
        for direction, pass_ in (("fwd", self.forward_pass),
                                 ("bwd", self.backward_pass)):
            for name, layer in pass_.layers().items():
                setattr(self, f"{direction}_{name}", layer)
        self.head = Linear(
            input_length * 2 * hidden_dim,
            output_length * self.output_features,
            rng=rng,
        )

    def forward(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> ForecastOutput:
        x = np.asanyarray(x, dtype=default_dtype())
        m = np.asanyarray(m, dtype=default_dtype())
        batch, steps, nodes, features = x.shape
        if steps != self.input_length:
            raise ValueError(f"expected {self.input_length} steps, got {steps}")
        # Time since last observation, per direction, normalized so the
        # gate sees O(1) inputs regardless of window length.
        deltas_fwd = compute_deltas(m) / max(steps, 1)
        deltas_bwd = compute_deltas(m[:, ::-1])[:, ::-1] / max(steps, 1)

        h_fwd, est_fwd = self.forward_pass.forward(x, m, deltas_fwd, reverse=False)
        h_bwd, est_bwd = self.backward_pass.forward(x, m, deltas_bwd, reverse=True)

        z = concat(
            [stack(h_fwd, axis=1), stack(h_bwd, axis=1)], axis=-1
        )  # (B, T, N, 2H)
        z_nodes = z.transpose(0, 2, 1, 3).reshape(
            batch, nodes, steps * 2 * self.hidden_dim
        )
        prediction = self.head(z_nodes).reshape(
            batch, nodes, self.output_length, self.output_features
        ).transpose(0, 2, 1, 3)

        zero = Tensor(np.zeros((batch, nodes, features), dtype=default_dtype()))
        fwd_stack = stack([e if e is not None else zero for e in est_fwd], axis=1)
        bwd_stack = stack([e if e is not None else zero for e in est_bwd], axis=1)
        validity = np.array(
            [1.0 if f is not None and b is not None else 0.0
             for f, b in zip(est_fwd, est_bwd)]
        )
        return ForecastOutput(
            prediction=prediction,
            estimates_fwd=fwd_stack,
            estimates_bwd=bwd_stack,
            estimate_validity=validity,
        )

    # ------------------------------------------------------------------
    def impute(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> np.ndarray:
        """Fill missing history entries (RQ2 protocol).

        Observed entries pass through; missing entries take the mean of
        the direction estimates that exist at that step (the boundary
        steps have only one).
        """
        with no_grad():
            out = self.forward(x, m, steps_of_day)
        fwd = out.estimates_fwd.data
        bwd = out.estimates_bwd.data
        steps = x.shape[1]
        fwd_valid = np.array([t > 0 for t in range(steps)], dtype=default_dtype())
        bwd_valid = np.array(
            [t < steps - 1 for t in range(steps)], dtype=default_dtype()
        )
        weight_f = fwd_valid[None, :, None, None]
        weight_b = bwd_valid[None, :, None, None]
        denom = np.maximum(weight_f + weight_b, 1.0)
        estimate = (fwd * weight_f + bwd * weight_b) / denom
        m = np.asanyarray(m, dtype=default_dtype())
        return m * np.asanyarray(x) + (1.0 - m) * estimate

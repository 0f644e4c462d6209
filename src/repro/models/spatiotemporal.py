"""Mean-filled spatio-temporal baselines: FC-LSTM, FC-GCN, GCN-LSTM.

These models do not handle missingness; following the paper's protocol the
harness feeds them inputs whose missing entries are replaced by the
per-feature observed mean (after Z-score normalization that mean is zero,
so the zero-filled tensors are already mean-filled).

* **FC-LSTM** — shared per-node LSTM over time, FC aggregation.
* **FC-GCN**  — a GCN per timestamp, hidden states aggregated with FC.
* **GCN-LSTM** — GCN spatial encoding feeding an LSTM, FC head.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, default_dtype, stack
from ..graphs import chebyshev_polynomials
from ..nn import ChebConv, Linear, LSTMCell, init
from .base import ForecastOutput, NeuralForecaster

__all__ = ["SpatioTemporalForecaster", "fc_lstm", "fc_gcn", "gcn_lstm"]


class SpatioTemporalForecaster(NeuralForecaster):
    """Configurable GCN/LSTM forecaster without imputation.

    ``spatial``: ``"none"`` (identity-style linear) or ``"gcn"``;
    ``use_lstm`` toggles the temporal module. The three baselines are the
    factory functions below.
    """

    def __init__(
        self,
        input_length: int,
        output_length: int,
        num_nodes: int,
        num_features: int,
        output_features: int | None = None,
        spatial: str = "gcn",
        adjacency: np.ndarray | None = None,
        use_lstm: bool = True,
        embed_dim: int = 64,
        hidden_dim: int = 128,
        cheb_order: int = 3,
        seed: int = 0,
    ):
        super().__init__(input_length, output_length, num_nodes, num_features,
                         output_features)
        rng = init.generator(seed)
        self.use_lstm = use_lstm
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim if use_lstm else 0
        if spatial == "gcn":
            if adjacency is None:
                raise ValueError("spatial='gcn' requires an adjacency matrix")
            stack_mat = chebyshev_polynomials(adjacency, cheb_order)
            self.encoder = ChebConv(num_features, embed_dim, stack_mat, rng=rng)
        elif spatial == "none":
            self.encoder = Linear(num_features, embed_dim, rng=rng)
        else:
            raise ValueError(f"unknown spatial mode {spatial!r}")
        if use_lstm:
            self.cell = LSTMCell(embed_dim, hidden_dim, rng=rng)
        state_dim = embed_dim + self.hidden_dim
        self.head = Linear(
            input_length * state_dim, output_length * self.output_features, rng=rng
        )

    def forward(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> ForecastOutput:
        x = np.asanyarray(x, dtype=default_dtype())
        batch, steps, nodes, _features = x.shape
        state = None
        z_steps: list[Tensor] = []
        for t in range(steps):
            s_t = self.encoder(Tensor(x[:, t])).relu()  # (B, N, p)
            if self.use_lstm:
                s_flat = s_t.reshape(batch * nodes, self.embed_dim)
                h, c = self.cell(s_flat, state)
                state = (h, c)
                z_t = concat(
                    [s_t, h.reshape(batch, nodes, self.hidden_dim)], axis=-1
                )
            else:
                z_t = s_t
            z_steps.append(z_t)
        z = stack(z_steps, axis=1)  # (B, T, N, Z)
        z_nodes = z.transpose(0, 2, 1, 3).reshape(batch, nodes, steps * z.shape[-1])
        flat = self.head(z_nodes)
        prediction = flat.reshape(
            batch, nodes, self.output_length, self.output_features
        ).transpose(0, 2, 1, 3)
        return ForecastOutput(prediction=prediction)

    # ------------------------------------------------------------------
    # Traced execution plans
    # ------------------------------------------------------------------
    def plan_inputs(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> tuple[dict[str, np.ndarray], tuple] | None:
        """The forward is pure in ``x`` — mask and clock are ignored —
        so the plan input set is just the window and the signature is
        empty (no data-dependent control flow to guard)."""
        return {"x": np.asarray(x, dtype=default_dtype())}, ()

    def plan_forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, None, None).prediction.data


def fc_lstm(**kwargs) -> SpatioTemporalForecaster:
    """FC-LSTM baseline: temporal correlations only."""
    return SpatioTemporalForecaster(spatial="none", use_lstm=True, **kwargs)


def fc_gcn(**kwargs) -> SpatioTemporalForecaster:
    """FC-GCN baseline: spatial correlations only."""
    return SpatioTemporalForecaster(spatial="gcn", use_lstm=False, **kwargs)


def gcn_lstm(**kwargs) -> SpatioTemporalForecaster:
    """GCN-LSTM baseline: both, on the static geographic graph."""
    return SpatioTemporalForecaster(spatial="gcn", use_lstm=True, **kwargs)

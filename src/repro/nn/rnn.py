"""Recurrent layers: LSTM and GRU cells and sequence wrappers.

RIHGCN shares one LSTM across all road-segment nodes (Section III-E of the
paper), implemented here by folding the node dimension into the batch
dimension: a step input of shape ``(batch * nodes, features)`` flows through
a single parameter set.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, default_dtype, sigmoid_split, split, stack
from . import init
from .module import Module, Parameter

__all__ = ["LSTMCell", "GRUCell", "LSTM"]


class LSTMCell(Module):
    """Single-step LSTM following the gate equations in the paper (Eq. 4).

    The four gates are computed with one fused matmul for speed:
    ``z = x W + h U + b`` then split into input/forget/cell/output blocks.
    The forget-gate bias is initialized to 1 so early training does not
    erase the recurrent state (important for the long imputation chains).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.weight_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)],
                axis=1,
            )
        )
        bias = init.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate block
        self.bias = Parameter(bias)

    def init_state(self, batch: int) -> tuple[Tensor, Tensor]:
        """Zero (h, c) state for a batch, in the policy dtype."""
        zeros = np.zeros((batch, self.hidden_size), dtype=default_dtype())
        return Tensor(zeros), Tensor(zeros.copy())

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, Tensor]:
        """``x``: ``(batch, features)``, or ``(D, batch, features)`` for a
        cell from :func:`~repro.nn.stack_modules` (``D`` cells at once)."""
        if x.ndim not in (2, 3):
            raise ValueError(
                f"LSTMCell expects ([D,] batch, features), got shape {x.shape}"
            )
        if state is None:
            # (batch, hidden) zeros broadcast against every stacked cell.
            state = self.init_state(x.shape[-2])
        h_prev, c_prev = state
        z = x.matmul(self.weight_ih) + h_prev.matmul(self.weight_hh) + self.bias
        # One sigmoid pass over all four gate blocks instead of three
        # per-gate calls (the cell block's sigmoid is discarded): values
        # and gradients are bitwise those of the per-gate form. The gate
        # reads share a single gradient buffer on the way back instead
        # of four dense scatters.
        hidden = self.hidden_size
        i_gate, f_gate, _, o_gate = sigmoid_split(z, 4, axis=-1)
        g_cell = z[..., 2 * hidden : 3 * hidden].tanh()
        c_new = f_gate * c_prev + i_gate * g_cell
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def __repr__(self) -> str:
        return f"LSTMCell(in={self.input_size}, hidden={self.hidden_size})"


class GRUCell(Module):
    """Single-step gated recurrent unit (provided for ablations)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 3 * hidden_size), rng))
        self.weight_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(3)],
                axis=1,
            )
        )
        self.bias = Parameter(init.zeros(3 * hidden_size))

    def init_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size), dtype=default_dtype()))

    def forward(self, x: Tensor, h_prev: Tensor | None = None) -> Tensor:
        if h_prev is None:
            h_prev = self.init_state(x.shape[0])
        zi = x.matmul(self.weight_ih) + self.bias
        zh = h_prev.matmul(self.weight_hh)
        zi_r, zi_u, zi_n = split(zi, 3, axis=-1)
        zh_r, zh_u, zh_n = split(zh, 3, axis=-1)
        r_gate = (zi_r + zh_r).sigmoid()
        u_gate = (zi_u + zh_u).sigmoid()
        n_state = (zi_n + r_gate * zh_n).tanh()
        return u_gate * h_prev + (1.0 - u_gate) * n_state

    def __repr__(self) -> str:
        return f"GRUCell(in={self.input_size}, hidden={self.hidden_size})"


class LSTM(Module):
    """Runs an :class:`LSTMCell` over a time-major-agnostic sequence.

    Input shape ``(batch, time, features)``; returns the stacked hidden
    states ``(batch, time, hidden)`` plus the final ``(h, c)`` state.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        if x.ndim != 3:
            raise ValueError(f"LSTM expects (batch, time, features), got {x.shape}")
        steps = x.shape[1]
        outputs: list[Tensor] = []
        h_c = state
        for t in range(steps):
            h, c = self.cell(x[:, t, :], h_c)
            h_c = (h, c)
            outputs.append(h)
        return stack(outputs, axis=1), h_c

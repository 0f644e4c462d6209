"""Spatial and temporal attention blocks (substrate for the ASTGCN baseline).

Follows Guo et al., "Attention Based Spatial-Temporal Graph Convolutional
Networks for Traffic Flow Forecasting" (AAAI 2019): attention scores are
bilinear forms over the spatial or temporal slices of the input block,
normalized with softmax, and used to modulate graph/temporal convolution.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, softmax
from . import init
from .module import Module, Parameter

__all__ = ["SpatialAttention", "TemporalAttention"]


class SpatialAttention(Module):
    """Produces an ``(batch, N, N)`` attention map over nodes.

    Input shape ``(batch, N, T, C)``: features of every node over a window.
    """

    def __init__(
        self,
        num_nodes: int,
        in_channels: int,
        num_steps: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.w1 = Parameter(init.xavier_uniform((num_steps, 1), rng))
        self.w2 = Parameter(init.xavier_uniform((in_channels, 1), rng))
        self.w3 = Parameter(init.xavier_uniform((in_channels, 1), rng))
        self.vs = Parameter(init.xavier_uniform((num_nodes, num_nodes), rng))
        self.bias = Parameter(init.zeros((num_nodes, num_nodes)))

    def forward(self, x: Tensor) -> Tensor:
        # Query side: collapse channels with w3, then time with w1 -> (B, N).
        lhs = x.matmul(self.w3).squeeze(-1)  # (B, N, T)
        lhs = lhs.matmul(self.w1).squeeze(-1)  # (B, N)
        # Key side: collapse time by averaging, channels with w2 -> (B, N).
        rhs = x.mean(axis=2).matmul(self.w2).squeeze(-1)  # (B, N)
        # Bilinear score: score_ij = vs_ij * sigmoid(lhs_i + rhs_j + b_ij).
        scores = lhs.unsqueeze(2) + rhs.unsqueeze(1)  # (B, N, N)
        scores = (scores + self.bias).sigmoid() * self.vs
        return softmax(scores, axis=-1)


class TemporalAttention(Module):
    """Produces an ``(batch, T, T)`` attention map over time steps.

    Input shape ``(batch, N, T, C)``.
    """

    def __init__(
        self,
        num_nodes: int,
        in_channels: int,
        num_steps: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.u1 = Parameter(init.xavier_uniform((num_nodes, 1), rng))
        self.u2 = Parameter(init.xavier_uniform((in_channels, 1), rng))
        self.ve = Parameter(init.xavier_uniform((num_steps, num_steps), rng))
        self.bias = Parameter(init.zeros((num_steps, num_steps)))

    def forward(self, x: Tensor) -> Tensor:
        # Collapse channels: (B, N, T, C) @ u2 -> (B, N, T); then nodes.
        collapsed = x.matmul(self.u2).squeeze(-1)  # (B, N, T)
        time_vec = collapsed.swapaxes(1, 2).matmul(self.u1).squeeze(-1)  # (B, T)
        scores = time_vec.unsqueeze(2) + time_vec.unsqueeze(1)  # (B, T, T)
        scores = (scores + self.bias).sigmoid() * self.ve
        return softmax(scores, axis=-1)

"""ASTGCN baseline (Guo et al., AAAI 2019).

Attention-based Spatial-Temporal GCN: temporal attention reweights the
input window along time, spatial attention modulates the Chebyshev
propagation matrices, and a temporal convolution mixes along time. We
implement the recent-segment branch (``T_h``), which is the configuration
the paper compares against (``T_h = 12``, ``K = 3``); periodic segments
are supported by widening the input window.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, default_dtype
from ..graphs import chebyshev_polynomials
from ..nn import (
    CausalConv1d,
    Linear,
    Module,
    Parameter,
    SpatialAttention,
    TemporalAttention,
    init,
)
from .base import ForecastOutput, NeuralForecaster

__all__ = ["ASTGCN"]


class _STBlock(Module):
    """One spatio-temporal block: TAtt -> SAtt-modulated ChebConv -> TCN."""

    def __init__(
        self,
        num_nodes: int,
        in_channels: int,
        out_channels: int,
        num_steps: int,
        cheb_stack: np.ndarray,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.temporal_att = TemporalAttention(num_nodes, in_channels, num_steps, rng=rng)
        self.spatial_att = SpatialAttention(num_nodes, in_channels, num_steps, rng=rng)
        self.order = cheb_stack.shape[0]
        self._cheb = [Tensor(cheb_stack[k]) for k in range(self.order)]
        self.cheb_weight = Parameter(
            init.xavier_uniform((self.order * in_channels, out_channels), rng)
        )
        self.cheb_bias = Parameter(init.zeros(out_channels))
        self.time_conv = CausalConv1d(out_channels, out_channels, kernel_size=3, rng=rng)
        self.residual = Parameter(init.xavier_uniform((in_channels, out_channels), rng))

    def forward(self, x: Tensor) -> Tensor:
        """``x``: ``(B, N, T, C)`` -> same shape with ``out_channels``."""
        # Temporal attention mixes time steps: x'(b,n,t,:) = sum_tau E(b,t,tau) x(b,n,tau,:).
        t_att = self.temporal_att(x)  # (B, T, T)
        x_t = t_att.unsqueeze(1).matmul(x)  # (B, N, T, C)
        # Spatial attention modulates every Chebyshev support.
        s_att = self.spatial_att(x_t)  # (B, N, N)
        x_time = x_t.swapaxes(1, 2)  # (B, T, N, C)
        propagated = []
        for t_k in self._cheb:
            support = t_k * s_att  # (B, N, N) via broadcasting
            propagated.append(support.unsqueeze(1).matmul(x_time))  # (B, T, N, C)
        spatial = concat(propagated, axis=-1).matmul(self.cheb_weight) + self.cheb_bias
        spatial = spatial.relu().swapaxes(1, 2)  # (B, N, T, C_out)
        out = self.time_conv(spatial)  # causal over time axis (-2)
        return (out + x.matmul(self.residual)).relu()


class _Branch(Module):
    """One ASTGCN input branch: ST blocks over a segment + its own head."""

    def __init__(
        self,
        segment_length: int,
        output_size: int,
        num_nodes: int,
        num_features: int,
        hidden_channels: int,
        num_blocks: int,
        cheb: np.ndarray,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.blocks = []
        channels = num_features
        for i in range(num_blocks):
            block = _STBlock(num_nodes, channels, hidden_channels,
                             segment_length, cheb, rng)
            self.register_module(f"block{i}", block)
            self.blocks.append(block)
            channels = hidden_channels
        self.head = Linear(segment_length * hidden_channels, output_size, rng=rng)

    def forward(self, x: np.ndarray) -> Tensor:
        """``x``: ``(B, T_seg, N, C)`` -> ``(B, N, output_size)``."""
        batch, steps, nodes, _features = x.shape
        h = Tensor(np.asanyarray(x, dtype=default_dtype())).swapaxes(1, 2)  # (B, N, T, C)
        for block in self.blocks:
            h = block(h)
        return self.head(h.reshape(batch, nodes, steps * h.shape[-1]))


class ASTGCN(NeuralForecaster):
    """ASTGCN with a recent branch and an optional daily-periodic branch.

    The paper configures ASTGCN with recent (``T_h = 12``), daily
    (``T_d = 12``) and weekly (``T_w = 24``) segments; branch outputs are
    fused with learned elementwise weights. ``daily_segments > 0`` enables
    the daily branch (the harness then builds windows carrying
    ``x_daily``); the weekly branch follows the same mechanism and is
    enabled by widening ``daily_segments`` to 7-day strides upstream.
    """

    def __init__(
        self,
        input_length: int,
        output_length: int,
        num_nodes: int,
        num_features: int,
        output_features: int | None = None,
        adjacency: np.ndarray | None = None,
        hidden_channels: int = 32,
        num_blocks: int = 1,
        cheb_order: int = 3,
        daily_segments: int = 0,
        seed: int = 0,
    ):
        super().__init__(input_length, output_length, num_nodes, num_features,
                         output_features)
        if adjacency is None:
            raise ValueError("ASTGCN requires the geographic adjacency")
        rng = init.generator(seed)
        cheb = chebyshev_polynomials(adjacency, cheb_order)
        self.daily_segments = daily_segments
        self.uses_periodic = daily_segments > 0
        output_size = output_length * self.output_features

        self.recent = _Branch(input_length, output_size, num_nodes,
                              num_features, hidden_channels, num_blocks,
                              cheb, rng)
        if daily_segments > 0:
            self.daily = _Branch(
                daily_segments * output_length, output_size, num_nodes,
                num_features, hidden_channels, num_blocks, cheb, rng,
            )
            # Learned elementwise fusion weights (one map per branch).
            self.fuse_recent = Parameter(init.ones((num_nodes, output_size)))
            self.fuse_daily = Parameter(
                init.zeros((num_nodes, output_size))
            )

    def forward(
        self,
        x: np.ndarray,
        m: np.ndarray,
        steps_of_day: np.ndarray,
        x_daily: np.ndarray | None = None,
        m_daily: np.ndarray | None = None,
    ) -> ForecastOutput:
        x = np.asanyarray(x, dtype=default_dtype())
        batch = x.shape[0]
        nodes = x.shape[2]
        out = self.recent(x)  # (B, N, T_out * D_out)
        if self.daily_segments > 0:
            if x_daily is None:
                raise ValueError(
                    "this ASTGCN was built with a daily branch; windows must "
                    "be created with daily_segments > 0"
                )
            daily_out = self.daily(x_daily)
            out = out * self.fuse_recent + daily_out * self.fuse_daily
        prediction = out.reshape(
            batch, nodes, self.output_length, self.output_features
        ).transpose(0, 2, 1, 3)
        return ForecastOutput(prediction=prediction)

    def forward_batch(self, batch) -> ForecastOutput:
        """Consume the periodic segment fields when the daily branch exists."""
        if self.uses_periodic:
            return self(batch.x, batch.m, batch.steps_of_day,
                        x_daily=batch.x_daily, m_daily=batch.m_daily)
        return self(batch.x, batch.m, batch.steps_of_day)

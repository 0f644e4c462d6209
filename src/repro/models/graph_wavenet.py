"""Graph WaveNet baseline (Wu et al., IJCAI 2019).

Stacked gated dilated temporal convolutions interleaved with diffusion
convolution over a *learned* adaptive adjacency (plus the fixed geographic
support), with skip connections into an MLP output head.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, default_dtype
from ..nn import AdaptiveGraphConv, GatedTCNBlock, Linear, init
from .base import ForecastOutput, NeuralForecaster

__all__ = ["GraphWaveNet"]


class GraphWaveNet(NeuralForecaster):
    """Graph WaveNet with configurable depth.

    Each layer: gated TCN (dilation doubling per layer) followed by
    adaptive diffusion convolution on the node axis; residuals inside the
    blocks, skip connections summed into the head.
    """

    def __init__(
        self,
        input_length: int,
        output_length: int,
        num_nodes: int,
        num_features: int,
        output_features: int | None = None,
        adjacency: np.ndarray | None = None,
        residual_channels: int = 32,
        num_layers: int = 3,
        embed_dim: int = 10,
        diffusion_steps: int = 2,
        seed: int = 0,
    ):
        super().__init__(input_length, output_length, num_nodes, num_features,
                         output_features)
        rng = init.generator(seed)
        self.input_proj = Linear(num_features, residual_channels, rng=rng)
        self.tcn_blocks = []
        self.graph_convs = []
        for i in range(num_layers):
            tcn = GatedTCNBlock(
                residual_channels, residual_channels,
                kernel_size=2, dilation=2 ** i, rng=rng,
            )
            gcn = AdaptiveGraphConv(
                residual_channels, residual_channels, num_nodes,
                embed_dim=embed_dim, diffusion_steps=diffusion_steps,
                fixed_support=adjacency, rng=rng,
            )
            self.register_module(f"tcn{i}", tcn)
            self.register_module(f"gcn{i}", gcn)
            self.tcn_blocks.append(tcn)
            self.graph_convs.append(gcn)
        self.head = Linear(
            input_length * residual_channels,
            output_length * self.output_features,
            rng=rng,
        )

    def forward(
        self, x: np.ndarray, m: np.ndarray, steps_of_day: np.ndarray
    ) -> ForecastOutput:
        x = np.asanyarray(x, dtype=default_dtype())
        batch, steps, nodes, _features = x.shape
        h = self.input_proj(Tensor(x)).swapaxes(1, 2)  # (B, N, T, C)
        skip = None
        for tcn, gcn in zip(self.tcn_blocks, self.graph_convs):
            h = tcn(h)  # temporal mixing, time axis -2
            spatial = gcn(h.swapaxes(1, 2))  # (B, T, N, C) node mixing
            h = h + spatial.swapaxes(1, 2)
            skip = h if skip is None else skip + h
        flat = skip.relu().reshape(batch, nodes, steps * skip.shape[-1])
        out = self.head(flat)
        prediction = out.reshape(
            batch, nodes, self.output_length, self.output_features
        ).transpose(0, 2, 1, 3)
        return ForecastOutput(prediction=prediction)

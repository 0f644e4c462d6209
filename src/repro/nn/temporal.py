"""Temporal convolution layers (substrate for the Graph WaveNet baseline).

Implements causal dilated 1-D convolution over the time axis and the gated
TCN block (``tanh ⊙ sigmoid``) that Graph WaveNet stacks with exponentially
growing dilations.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from . import init
from .module import Module, Parameter

__all__ = ["CausalConv1d", "GatedTCNBlock"]


class CausalConv1d(Module):
    """Causal dilated convolution along the time axis.

    Input shape ``(batch, time, channels)`` (extra leading axes allowed,
    e.g. ``(batch, nodes, time, channels)``); output keeps the same time
    length by left zero-padding, so position ``t`` only sees ``t' <= t``.

    Implemented as ``kernel_size`` shifted affine maps summed together —
    each tap is one matmul, which is efficient for the small kernels
    (2–3) used by the baselines.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 2,
        dilation: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        rng = rng if rng is not None else init.generator()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.taps = [
            Parameter(init.xavier_uniform((in_channels, out_channels), rng))
            for _ in range(kernel_size)
        ]
        for j, tap in enumerate(self.taps):
            self._parameters[f"tap{j}"] = tap
        self.bias = Parameter(init.zeros(out_channels))

    @property
    def receptive_field(self) -> int:
        """Number of past steps (inclusive) this layer can see."""
        return (self.kernel_size - 1) * self.dilation + 1

    def forward(self, x: Tensor) -> Tensor:
        time_axis = x.ndim - 2
        steps = x.shape[time_axis]
        pad_amount = (self.kernel_size - 1) * self.dilation
        pad_width = [(0, 0)] * x.ndim
        pad_width[time_axis] = (pad_amount, 0)
        padded = x.pad(pad_width)

        out = None
        for j, tap in enumerate(self.taps):
            # Tap j looks back j * dilation steps.
            start = pad_amount - j * self.dilation
            sl = [slice(None)] * x.ndim
            sl[time_axis] = slice(start, start + steps)
            term = padded[tuple(sl)].matmul(tap)
            out = term if out is None else out + term
        return out + self.bias

    def __repr__(self) -> str:
        return (
            f"CausalConv1d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, dilation={self.dilation})"
        )


class GatedTCNBlock(Module):
    """Gated temporal convolution: ``tanh(conv_f(x)) ⊙ sigmoid(conv_g(x))``.

    Includes a residual projection when channel counts differ so blocks can
    be stacked deeply.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 2,
        dilation: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.filter_conv = CausalConv1d(in_channels, out_channels, kernel_size, dilation, rng)
        self.gate_conv = CausalConv1d(in_channels, out_channels, kernel_size, dilation, rng)
        self.residual = None
        if in_channels != out_channels:
            self.residual = Parameter(init.xavier_uniform((in_channels, out_channels), rng))

    def forward(self, x: Tensor) -> Tensor:
        gated = self.filter_conv(x).tanh() * self.gate_conv(x).sigmoid()
        skip = x.matmul(self.residual) if self.residual is not None else x
        return gated + skip

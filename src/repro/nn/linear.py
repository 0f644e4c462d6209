"""Affine layers."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "MLP"]


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis.

    Accepts inputs of any rank >= 1; leading axes are treated as batch.
    This is the FC layer the paper uses both for the per-step estimation
    head (Eq. 5) and for aggregating hidden states into the forecast
    (Eq. 7).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class MLP(Module):
    """Multi-layer perceptron with relu activations between Linear layers."""

    def __init__(
        self,
        sizes: list[int],
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng if rng is not None else init.generator()
        self.layers = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer = Linear(fan_in, fan_out, bias=bias, rng=rng)
            self.register_module(f"layer{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = x.relu()
        return x

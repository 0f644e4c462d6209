"""Optimizer base class and gradient utilities."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer", "clip_grad_norm"]


class Optimizer:
    """Base optimizer holding a parameter list.

    Subclasses implement :meth:`step`, reading ``param.grad`` and updating
    ``param.data`` in place.
    """

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging exploding-gradient
    events in the recurrent imputation chains).
    """
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total

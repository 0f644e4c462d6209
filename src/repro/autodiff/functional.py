"""Composite differentiable functions built on the primitive Tensor ops."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = ["softmax", "masked_mae"]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_mae(pred: Tensor, target, mask) -> Tensor:
    """MAE over entries where ``mask`` is 1; safe when the mask is empty."""
    mask_t = as_tensor(mask)
    diff = (pred - as_tensor(target)).abs() * mask_t
    denom = float(np.maximum(mask_t.data.sum(), 1.0))
    return diff.sum() / denom

"""Composite differentiable functions built on the primitive Tensor ops."""

from __future__ import annotations

import numpy as np

from .dtype import default_dtype
from .tensor import Tensor, as_tensor, where

__all__ = [
    "softmax",
    "leaky_relu",
    "dropout_mask",
    "mse",
    "mae",
    "masked_mae",
    "masked_mse",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky rectifier: ``x`` where positive, ``slope * x`` elsewhere."""
    return where(x.data > 0, x, x * negative_slope)


def dropout_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with prob ``p``, survivors scaled by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(shape) >= p
    return keep.astype(default_dtype()) / np.asarray(1.0 - p, dtype=default_dtype())


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error."""
    diff = pred - as_tensor(target)
    return (diff * diff).mean()


def mae(pred: Tensor, target) -> Tensor:
    """Mean absolute error."""
    return (pred - as_tensor(target)).abs().mean()


def masked_mae(pred: Tensor, target, mask) -> Tensor:
    """MAE over entries where ``mask`` is 1; safe when the mask is empty."""
    mask_t = as_tensor(mask)
    diff = (pred - as_tensor(target)).abs() * mask_t
    denom = float(np.maximum(mask_t.data.sum(), 1.0))
    return diff.sum() / denom


def masked_mse(pred: Tensor, target, mask) -> Tensor:
    """MSE over entries where ``mask`` is 1; safe when the mask is empty."""
    mask_t = as_tensor(mask)
    diff = pred - as_tensor(target)
    sq = diff * diff * mask_t
    denom = float(np.maximum(mask_t.data.sum(), 1.0))
    return sq.sum() / denom

"""Optimizers, gradient clipping and early stopping."""

from .adam import Adam
from .optimizer import Optimizer, clip_grad_norm
from .scheduler import EarlyStopping

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "EarlyStopping",
]

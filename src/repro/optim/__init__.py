"""Optimizers, gradient clipping and early stopping."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".adam": ("Adam",),
    ".optimizer": ("Optimizer", "clip_grad_norm"),
    ".scheduler": ("EarlyStopping",),
})

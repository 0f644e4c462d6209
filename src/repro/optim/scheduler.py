"""Early stopping on the validation loss."""

from __future__ import annotations

import math

__all__ = ["EarlyStopping"]


class EarlyStopping:
    """Stop training when validation loss stops improving.

    The paper stops after 6 epochs without improvement; that is the default
    ``patience`` here. Tracks the best metric so callers can restore the
    best weights.
    """

    def __init__(self, patience: int = 6, min_delta: float = 0.0):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.best_epoch = -1
        self.bad_epochs = 0
        self.should_stop = False

    def step(self, metric: float, epoch: int | None = None) -> bool:
        """Report a metric; returns True if this is a new best."""
        improved = metric < self.best - self.min_delta
        if improved:
            self.best = metric
            self.best_epoch = epoch if epoch is not None else self.best_epoch + 1
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.should_stop = True
        return improved

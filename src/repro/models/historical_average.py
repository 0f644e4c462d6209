"""Historical Average baseline.

:class:`HistoricalAverage` follows the paper: "we calculate the average
traffic information for each time series, and use it as the predicted
value for future timestamps". With missing data the average runs over
*observed* entries of the input window; a fully-missing window falls back
to the training mean.
"""

from __future__ import annotations

import numpy as np

from .base import StatisticalForecaster

__all__ = ["HistoricalAverage"]


class HistoricalAverage(StatisticalForecaster):
    """Window-mean forecaster (constant over the horizon)."""

    def __init__(self):
        self._train_mean: np.ndarray | None = None  # (N, D)

    def fit(self, data: np.ndarray, mask: np.ndarray) -> "HistoricalAverage":
        data = np.asarray(data, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        count = np.maximum(mask.sum(axis=0), 1.0)
        self._train_mean = (data * mask).sum(axis=0) / count
        return self

    def predict(
        self, x: np.ndarray, m: np.ndarray, output_length: int
    ) -> np.ndarray:
        if self._train_mean is None:
            raise RuntimeError("call fit() before predict()")
        x = np.asarray(x, dtype=np.float64)
        m = np.asarray(m, dtype=np.float64)
        count = m.sum(axis=1)  # (B, N, D)
        window_sum = (x * m).sum(axis=1)
        mean = np.where(
            count > 0, window_sum / np.maximum(count, 1.0), self._train_mean
        )  # (B, N, D)
        return np.repeat(mean[:, None, :, :], output_length, axis=1)

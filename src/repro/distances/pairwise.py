"""Paired series distances and node-to-node distance matrices.

:func:`paired_distances` is the one entry point that scores many series
pairs at once; the timeline partitioner (Eq. 2) and the temporal graphs
both go through it. For the graphs, :func:`series_distance_matrix` takes
one series per road segment (historical averages within a time interval)
and returns the symmetric distance matrix that Eq. (8) turns into an
adjacency matrix.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

from .dtw import dtw_batch, dtw_distance
from .erp import erp_distance
from .lcss import lcss_distance

__all__ = [
    "series_distance_matrix",
    "paired_distances",
    "get_series_metric",
]

MetricName = Literal["dtw", "erp", "lcss", "euclidean"]


def _euclidean_series(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(
            f"euclidean series distance needs equal shapes, got {a.shape} vs {b.shape}"
        )
    return float(np.linalg.norm(a - b))


def get_series_metric(name: MetricName, **kwargs) -> Callable[[np.ndarray, np.ndarray], float]:
    """Resolve a metric name to a callable, binding extra options.

    ``dtw`` accepts ``window``/``normalize``; ``erp`` accepts ``gap``;
    ``lcss`` accepts ``epsilon``/``delta``.
    """
    if name == "dtw":
        return lambda a, b: dtw_distance(a, b, **kwargs)
    if name == "erp":
        return lambda a, b: erp_distance(a, b, **kwargs)
    if name == "lcss":
        return lambda a, b: lcss_distance(a, b, **kwargs)
    if name == "euclidean":
        return _euclidean_series
    raise ValueError(f"unknown series metric {name!r}")


def paired_distances(
    a: np.ndarray,
    b: np.ndarray,
    metric: MetricName | Callable[[np.ndarray, np.ndarray], float] = "dtw",
    **kwargs,
) -> np.ndarray:
    """Distance of each pair ``(a[k], b[k])``, shape ``(K,)``.

    ``a`` and ``b`` stack ``K`` series each, ``(K, n[, D])`` and
    ``(K, m[, D])``. DTW scores all pairs in one batched kernel; the other
    metrics (and callables) are evaluated pair by pair.
    """
    if len(a) != len(b):
        raise ValueError(f"need one b series per a series, got {len(a)} vs {len(b)}")
    if metric == "dtw":
        return dtw_batch(a, b, **kwargs)
    fn = metric if callable(metric) else get_series_metric(metric, **kwargs)
    return np.array([fn(x, y) for x, y in zip(a, b)], dtype=np.float64)


def series_distance_matrix(
    series: np.ndarray,
    metric: MetricName | Callable[[np.ndarray, np.ndarray], float] = "dtw",
    **kwargs,
) -> np.ndarray:
    """Symmetric pairwise distance matrix between per-node series.

    Parameters
    ----------
    series:
        Array of shape ``(N, L)`` or ``(N, L, D)`` — one series per node.
    metric:
        Metric name (resolved via :func:`get_series_metric`) or a callable.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim < 2:
        raise ValueError(f"series must be (N, L[, D]), got shape {series.shape}")
    n = series.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    values = paired_distances(series[rows], series[cols], metric, **kwargs)
    out = np.zeros((n, n))
    out[rows, cols] = values
    out[cols, rows] = values
    return out


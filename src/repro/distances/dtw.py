"""Dynamic Time Warping.

The paper uses DTW both to build temporal graphs (distance between the
historical-average series of two road segments in a time interval) and to
score candidate timeline partitions (Eq. 2), because DTW "can capture the
distance between series of variable lengths while does not put too much
weight on the difference of amplitude".

One batched kernel builds every accumulated-cost matrix. It takes ``K``
equal-shape pairs and sweeps the anti-diagonals ``i + j = s`` as a
wavefront: every cell on a diagonal depends only on the two diagonals
before it, so a whole diagonal of all ``K`` pairs is one vectorised step.
Each cell does the textbook arithmetic ``cost + min(up, left, diag)``, so
the batched result is bitwise equal to the scalar recurrence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dtw_distance", "dtw_path", "dtw_batch"]

#: Accumulated-cost cells one chunk of pairs may hold (8 bytes each, so
#: 2 MB), which bounds peak memory however many pairs one call scores. On a
#: 2-vCPU x86 VM, 37,560 pairs of 12x4 ran fastest at this size (larger
#: chunks fall out of cache).
CHUNK_CELLS = 1 << 18


def _as_batch(series: np.ndarray) -> np.ndarray:
    """``(K, n)`` or ``(K, n, d)`` series stack as float64 ``(K, n, d)``."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 2:
        series = series[:, :, None]
    if series.ndim != 3:
        raise ValueError(f"expected a (K, n) or (K, n, d) stack, got shape {series.shape}")
    return series


def _accumulated_cost(a: np.ndarray, b: np.ndarray, window: int | None) -> np.ndarray:
    """Accumulated DTW cost of ``a[k]`` vs ``b[k]`` for every pair ``k``.

    ``a``: ``(K, n, d)``; ``b``: ``(K, m, d)``; ``window`` is the already
    widened Sakoe-Chiba half-width (``None`` = unconstrained). Returns
    ``acc`` of shape ``(n + m + 1, n + 1, K)`` in diagonal-major order:
    ``acc[i + j, i]`` is cell ``(i, j)`` of the usual ``(n + 1, m + 1)``
    table, whose row and column 0 are the ``inf`` border around
    ``acc[0, 0] = 0``. Cells outside the band stay ``inf``.
    """
    k, n, _ = a.shape
    m = b.shape[1]
    # Pair axis last, so a diagonal of all pairs is one contiguous block;
    # b reversed, so the samples b[s - i - 1] of a diagonal form a forward slice.
    a_t = np.ascontiguousarray(a.transpose(1, 0, 2))
    b_rev = np.ascontiguousarray(b[:, ::-1].transpose(1, 0, 2))
    acc = np.full((n + m + 1, n + 1, k), np.inf)
    acc[0, 0] = 0.0
    for s in range(2, n + m + 1):
        lo, hi = max(1, s - m), min(n, s - 1)
        if window is not None:
            lo, hi = max(lo, (s - window + 1) // 2), min(hi, (s + window) // 2)
        if lo > hi:
            continue
        diff = a_t[lo - 1:hi] - b_rev[m - s + lo:m - s + hi + 1]
        cost = np.sqrt((diff * diff).sum(axis=-1))
        up, left = acc[s - 1, lo - 1:hi], acc[s - 1, lo:hi + 1]
        step = np.minimum(np.minimum(up, left), acc[s - 2, lo - 1:hi])
        acc[s, lo:hi + 1] = cost + step
    return acc


def dtw_batch(
    a: np.ndarray,
    b: np.ndarray,
    window: int | None = None,
    normalize: bool = False,
) -> np.ndarray:
    """DTW distances of ``K`` equal-shape pairs, shape ``(K,)``.

    Parameters
    ----------
    a, b:
        Stacks of shape ``(K, n)`` / ``(K, n, d)`` and ``(K, m)`` /
        ``(K, m, d)``: ``a[k]`` is compared with ``b[k]``.
    window, normalize:
        As for :func:`dtw_distance`.
    """
    a, b = _as_batch(a), _as_batch(b)
    k, n, _ = a.shape
    m = b.shape[1]
    if b.shape[0] != k:
        raise ValueError(f"need one b series per a series, got {k} vs {b.shape[0]}")
    if n == 0 or m == 0:
        raise ValueError("DTW is undefined for empty series")
    if window is not None:
        window = max(window, abs(n - m))
    out = np.empty(k)
    chunk = max(1, CHUNK_CELLS // ((n + m + 1) * (n + 1)))
    for start in range(0, k, chunk):
        stop = start + chunk
        out[start:stop] = _accumulated_cost(a[start:stop], b[start:stop], window)[n + m, n]
    if normalize:
        out /= float(n + m)
    return out


def dtw_distance(
    a: np.ndarray,
    b: np.ndarray,
    window: int | None = None,
    normalize: bool = False,
) -> float:
    """DTW distance between two (possibly multivariate) series.

    Parameters
    ----------
    a, b:
        Series of shape ``(n,)`` or ``(n, d)``; lengths may differ.
    window:
        Optional Sakoe-Chiba band half-width restricting warping; ``None``
        means unconstrained.
    normalize:
        If True, divide by the warping-path length (returns an average
        per-step cost, comparable across series lengths).
    """
    pair = dtw_batch(np.asarray(a)[None], np.asarray(b)[None], window=window, normalize=normalize)
    return float(pair[0])


def dtw_path(a: np.ndarray, b: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the optimal alignment path (for diagnostics)."""
    a, b = _as_batch(np.asarray(a)[None]), _as_batch(np.asarray(b)[None])
    n, m = a.shape[1], b.shape[1]
    if n == 0 or m == 0:
        raise ValueError("DTW is undefined for empty series")
    acc = _accumulated_cost(a, b, None)[:, :, 0]
    # Backtrack; cell (i, j) lives at acc[i + j, i].
    path: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        choices = (acc[i + j - 2, i - 1], acc[i + j - 1, i - 1], acc[i + j - 1, i])
        move = int(np.argmin(choices))
        if move == 0:
            i, j = i - 1, j - 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return float(acc[n + m, n]), path

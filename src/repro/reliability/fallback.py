"""The serving stack's forecast of last resort.

:func:`window_mean_forecast` is the bottom rung of the engine's fallback
ladder (stale forecast, then window mean): a HistoricalAverage-style
constant forecast computed purely from the live
:class:`~repro.serve.state.StateWindow` contents, so it works even when
the model (and its weights) are unusable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_mean_forecast"]


def window_mean_forecast(window, horizon: int) -> np.ndarray:
    """Constant forecast from live state only (the ladder's last rung).

    Per ``(node, feature)``: the mean of that entry's *observed* values
    across the window (the paper's HistoricalAverage, computed on the
    ring buffer instead of training data); entries with zero
    observations fall back to the network-wide observed mean. A window
    with no observations at all cannot be forecast from — the caller
    maps that to 503.
    """
    x = np.asarray(window.x, dtype=np.float64)
    m = np.asarray(window.m, dtype=np.float64)
    observed = m.sum(axis=0)  # (N, D)
    if not observed.any():
        from ..errors import ServeError

        raise ServeError(
            "state window holds no observations; nothing to fall back on"
        )
    entry_mean = (x * m).sum(axis=0) / np.maximum(observed, 1.0)
    global_mean = (x * m).sum() / m.sum()
    mean = np.where(observed > 0, entry_mean, global_mean)  # (N, D)
    return np.repeat(mean[None], horizon, axis=0)

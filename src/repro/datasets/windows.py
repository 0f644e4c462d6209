"""Sliding-window supervised dataset construction.

The paper uses 12 historical timestamps (1 hour at 5-minute resolution) to
predict up to the next 12 timestamps. A window sample is::

    x:  (T_in,  N, D)   observed history (zeros where missing)
    m:  (T_in,  N, D)   observation mask over the history
    y:  (T_out, N, D')  forecast target
    ym: (T_out, N, D')  target validity mask (all ones when ground truth
                        from the simulator is available)
    steps: (T_in,)      time-of-day index of each history step (drives the
                        temporal-graph interval weights in HGCN)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TrafficDataset

__all__ = ["WindowSet", "make_windows"]


@dataclass
class WindowSet:
    """Batched supervised windows (see module docstring for shapes).

    ``x_daily``/``m_daily`` optionally carry the *daily-periodic segment*:
    readings at the forecast's time-of-day on the preceding days
    (ASTGCN's ``T_d`` branch). ``None`` unless requested from
    :func:`make_windows`.
    """

    x: np.ndarray
    m: np.ndarray
    y: np.ndarray
    y_mask: np.ndarray
    steps_of_day: np.ndarray
    horizon_steps: np.ndarray  # (T_out,) steps-ahead of each target row
    x_daily: np.ndarray | None = None
    m_daily: np.ndarray | None = None

    def __post_init__(self):
        if not (len(self.x) == len(self.m) == len(self.y) == len(self.y_mask)
                == len(self.steps_of_day)):
            raise ValueError("all window arrays must share the first dimension")
        if (self.x_daily is None) != (self.m_daily is None):
            raise ValueError("x_daily and m_daily must be provided together")
        if self.x_daily is not None and len(self.x_daily) != len(self.x):
            raise ValueError("x_daily must share the first dimension with x")

    @property
    def num_windows(self) -> int:
        return len(self.x)

    @property
    def input_length(self) -> int:
        return self.x.shape[1]

    @property
    def output_length(self) -> int:
        return self.y.shape[1]

    def subset(self, indices: np.ndarray) -> "WindowSet":
        """Index-sliced copy (used by the batch loader)."""
        return WindowSet(
            x=self.x[indices],
            m=self.m[indices],
            y=self.y[indices],
            y_mask=self.y_mask[indices],
            steps_of_day=self.steps_of_day[indices],
            horizon_steps=self.horizon_steps,
            x_daily=self.x_daily[indices] if self.x_daily is not None else None,
            m_daily=self.m_daily[indices] if self.m_daily is not None else None,
        )


def make_windows(
    dataset: TrafficDataset,
    input_length: int = 12,
    output_length: int = 12,
    stride: int = 1,
    target_features: list[int] | None = None,
    daily_segments: int = 0,
) -> WindowSet:
    """Slice a dataset into supervised windows.

    Targets come from ``dataset.truth`` when the simulator ground truth is
    available (mirroring the paper, where missingness is injected into the
    *historical* inputs only); otherwise targets are the raw observations
    with their mask for masked evaluation.

    ``daily_segments > 0`` additionally extracts ``x_daily``: for each
    window, ``daily_segments`` blocks of ``output_length`` readings taken
    at the forecast's time-of-day on the preceding days (ASTGCN's daily
    periodic branch, flattened to ``(W, daily_segments * T_out, N, D)``).
    Windows without enough history for every daily block are dropped.
    """
    if input_length < 1 or output_length < 1:
        raise ValueError("input_length and output_length must be >= 1")
    if daily_segments < 0:
        raise ValueError(f"daily_segments must be >= 0, got {daily_segments}")
    total = dataset.num_steps
    window_span = input_length + output_length
    if total < window_span:
        raise ValueError(
            f"dataset has {total} steps, needs at least {window_span}"
        )
    target_source = dataset.truth if dataset.truth is not None else dataset.data
    target_mask_source = (
        np.ones_like(dataset.data) if dataset.truth is not None else dataset.mask
    )
    if target_features is not None:
        target_source = target_source[:, :, target_features]
        target_mask_source = target_mask_source[:, :, target_features]

    starts = np.arange(0, total - window_span + 1, stride)
    if daily_segments > 0:
        # The earliest daily block starts daily_segments days before the
        # first forecast step; keep only windows with that much history.
        spd = dataset.steps_per_day
        min_start = daily_segments * spd - input_length
        starts = starts[starts >= min_start]
        if len(starts) == 0:
            raise ValueError(
                f"no window has {daily_segments} days of history for the "
                "daily periodic segment"
            )
    x = np.stack([dataset.data[s : s + input_length] for s in starts])
    m = np.stack([dataset.mask[s : s + input_length] for s in starts])
    y = np.stack(
        [target_source[s + input_length : s + window_span] for s in starts]
    )
    y_mask = np.stack(
        [target_mask_source[s + input_length : s + window_span] for s in starts]
    )
    steps = np.stack([dataset.steps_of_day[s : s + input_length] for s in starts])

    x_daily = m_daily = None
    if daily_segments > 0:
        spd = dataset.steps_per_day
        daily_x_blocks = []
        daily_m_blocks = []
        for s in starts:
            forecast_start = s + input_length
            blocks_x = [
                dataset.data[forecast_start - k * spd : forecast_start - k * spd + output_length]
                for k in range(daily_segments, 0, -1)
            ]
            blocks_m = [
                dataset.mask[forecast_start - k * spd : forecast_start - k * spd + output_length]
                for k in range(daily_segments, 0, -1)
            ]
            daily_x_blocks.append(np.concatenate(blocks_x, axis=0))
            daily_m_blocks.append(np.concatenate(blocks_m, axis=0))
        x_daily = np.stack(daily_x_blocks)
        m_daily = np.stack(daily_m_blocks)

    return WindowSet(
        x=x,
        m=m,
        y=y,
        y_mask=y_mask,
        steps_of_day=steps,
        horizon_steps=np.arange(1, output_length + 1),
        x_daily=x_daily,
        m_daily=m_daily,
    )

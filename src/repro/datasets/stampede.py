"""Stampede-like roving-sensor dataset builder.

The paper's private dataset comes from 15 Android phones on "Stampede"
campus shuttles logging GPS at 1 Hz; per-segment travel times for 12
monitored road segments are derived from traversals, so a segment is only
*observed* in a 5-minute bin when some shuttle happened to traverse it —
producing the temporal irregularity and spatial sparsity (very high
missing rate) characteristic of roving sensors.

We reproduce that observation process directly: a fleet of shuttles walks
the campus network; each traversal of a monitored segment during a time
bin yields one (noisy) travel-time observation; everything else is
missing. Shuttles only operate during service hours and most of their
route is *not* monitored (the 12 segments are a subset of the city), which
is what drives the missing rate to roving-sensor levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TrafficDataset
from .network import city_grid
from .traffic import TrafficFieldConfig, simulate_traffic_field

__all__ = ["StampedeConfig", "make_stampede_dataset"]


@dataclass
class StampedeConfig:
    """Fleet and observation-process parameters."""

    num_segments_rows: int = 3
    num_segments_cols: int = 4
    num_shuttles: int = 15
    num_days: int = 21
    steps_per_day: int = 288  # 5-minute bins
    service_start_hour: float = 6.0
    service_end_hour: float = 22.0
    monitored_fraction: float = 0.08  # chance the next hop is a monitored segment
    measurement_noise_sec: float = 8.0
    light_delay_sec: float = 25.0  # expected delay per traffic light
    seed: int = 0

    def __post_init__(self):
        if self.num_shuttles < 1:
            raise ValueError(f"need at least one shuttle, got {self.num_shuttles}")
        if not 0.0 < self.monitored_fraction <= 1.0:
            raise ValueError(
                f"monitored_fraction must be in (0, 1], got {self.monitored_fraction}"
            )
        if not 0 <= self.service_start_hour < self.service_end_hour <= 24:
            raise ValueError("invalid service hours")


def _travel_time_field(network, field, cfg: StampedeConfig) -> np.ndarray:
    """Ground-truth segment travel times in seconds, ``(T, N)``.

    ``tt = length / effective_speed + lights * delay``, with effective
    speed shrinking as congestion rises.
    """
    # Speed limits are in mph; convert to km/h for the km segment lengths.
    limit_kmh = network.speed_limits * 1.609
    effective = limit_kmh[None, :] * (1.0 - field.congestion)  # (T, N)
    effective = np.clip(effective, 3.0, None)
    base = network.segment_lengths[None, :] / effective * 3600.0
    # Light delay worsens with congestion (longer queues per cycle).
    lights = network.traffic_lights[None, :] * cfg.light_delay_sec * (
        1.0 + 1.5 * field.congestion
    )
    return base + lights


def make_stampede_dataset(
    config: StampedeConfig | None = None,
) -> TrafficDataset:
    """Simulate the shuttle fleet and return the (sparse) dataset.

    ``data`` holds per-bin average observed travel time (seconds) where a
    traversal happened, zero elsewhere; ``truth`` holds the full field for
    imputation scoring.
    """
    cfg = config or StampedeConfig()
    rng = np.random.default_rng(cfg.seed)
    network = city_grid(rows=cfg.num_segments_rows, cols=cfg.num_segments_cols, seed=cfg.seed)
    n = network.num_nodes

    field_cfg = TrafficFieldConfig(
        num_days=cfg.num_days,
        steps_per_day=cfg.steps_per_day,
        free_flow_speed=30.0,
        peak_congestion=0.6,
        noise_std=0.8,
        seed=cfg.seed + 1,
    )
    field = simulate_traffic_field(network, field_cfg)
    truth = _travel_time_field(network, field, cfg)  # (T, N)
    total = truth.shape[0]

    seconds_per_bin = 86400.0 / cfg.steps_per_day
    service_lo = cfg.service_start_hour / 24.0 * cfg.steps_per_day
    service_hi = cfg.service_end_hour / 24.0 * cfg.steps_per_day
    steps_of_day = field.steps_of_day
    in_service = (steps_of_day >= service_lo) & (steps_of_day < service_hi)

    obs_sum = np.zeros((total, n))
    obs_count = np.zeros((total, n))

    # Each shuttle is a renewal process: it finishes one hop, then starts
    # the next. A hop lands on a monitored segment with probability
    # `monitored_fraction`; unmonitored hops consume time silently.
    for _shuttle in range(cfg.num_shuttles):
        clock = float(rng.uniform(0, seconds_per_bin * 10))  # staggered start
        segment = int(rng.integers(n))
        while clock < total * seconds_per_bin:
            bin_index = int(clock // seconds_per_bin)
            if bin_index >= total:
                break
            if not in_service[bin_index]:
                # Jump to the next service window.
                day = bin_index // cfg.steps_per_day
                step = bin_index % cfg.steps_per_day
                if step >= service_hi:
                    day += 1
                clock = (day * cfg.steps_per_day + service_lo) * seconds_per_bin
                continue
            if rng.random() < cfg.monitored_fraction:
                # Traverse monitored segment `segment`.
                true_tt = truth[bin_index, segment]
                observed = true_tt + rng.normal(0.0, cfg.measurement_noise_sec)
                observed = max(observed, 5.0)
                obs_sum[bin_index, segment] += observed
                obs_count[bin_index, segment] += 1.0
                clock += true_tt
                # Move to an adjacent monitored segment next time.
                neighbors = list(network.graph[segment])
                segment = int(rng.choice(neighbors)) if neighbors else int(rng.integers(n))
            else:
                # Unmonitored hop: consume a plausible urban hop time.
                clock += float(rng.uniform(60.0, 240.0))

    mask2d = (obs_count > 0).astype(np.float64)
    with np.errstate(invalid="ignore"):
        observed_tt = np.where(obs_count > 0, obs_sum / np.maximum(obs_count, 1.0), 0.0)

    data = observed_tt[:, :, None]
    mask = mask2d[:, :, None]
    return TrafficDataset(
        data=data,
        mask=mask,
        truth=truth[:, :, None],
        network=network,
        steps_per_day=cfg.steps_per_day,
        steps_of_day=steps_of_day,
        feature_names=["travel_time_sec"],
        name=f"stampede-like-{n}seg",
        metadata={
            "seed": cfg.seed,
            "num_shuttles": cfg.num_shuttles,
            "clusters": field.clusters,
            "source": "simulated roving fleet (see DESIGN.md substitutions)",
        },
    )

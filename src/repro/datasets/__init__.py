"""Datasets: road networks, traffic simulation, missingness, windowing."""

from .csv_loader import load_csv_dataset, load_distances_csv, load_readings_csv
from .dataset import TrafficDataset
from .loader import BatchLoader
from .missing import (
    PATTERNS,
    BlackoutPattern,
    BlockPattern,
    CorridorOutagePattern,
    MCARPattern,
    MissingPattern,
    MixedPattern,
    MNARCongestionPattern,
    SensorFailurePattern,
    holdout_observed,
    intersect_masks,
    make_pattern,
    pattern_names,
    register_pattern,
)
from .network import RoadNetwork, city_grid, highway_corridor
from .pems import PEMS_FEATURES, make_pems_dataset
from .scalers import ZScoreScaler
from .stampede import StampedeConfig, make_stampede_dataset
from .traffic import (
    PEAK_CLUSTERS,
    TrafficField,
    TrafficFieldConfig,
    simulate_traffic_field,
)
from .windows import WindowSet, make_windows

__all__ = [
    "TrafficDataset",
    "RoadNetwork",
    "highway_corridor",
    "city_grid",
    "TrafficField",
    "TrafficFieldConfig",
    "simulate_traffic_field",
    "PEAK_CLUSTERS",
    "make_pems_dataset",
    "PEMS_FEATURES",
    "StampedeConfig",
    "make_stampede_dataset",
    "MissingPattern",
    "PATTERNS",
    "register_pattern",
    "make_pattern",
    "pattern_names",
    "MCARPattern",
    "SensorFailurePattern",
    "BlockPattern",
    "CorridorOutagePattern",
    "BlackoutPattern",
    "MNARCongestionPattern",
    "MixedPattern",
    "intersect_masks",
    "holdout_observed",
    "ZScoreScaler",
    "WindowSet",
    "make_windows",
    "BatchLoader",
    "load_csv_dataset",
    "load_readings_csv",
    "load_distances_csv",
]

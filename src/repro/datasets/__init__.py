"""Datasets: road networks, traffic simulation, missingness, windowing."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".dataset": ("TrafficDataset",),
    ".network": ("RoadNetwork", "city_grid", "highway_corridor"),
    ".traffic": ("PEAK_CLUSTERS", "TrafficField", "TrafficFieldConfig", "simulate_traffic_field"),
    ".pems": ("PEMS_FEATURES", "make_pems_dataset"),
    ".stampede": ("StampedeConfig", "make_stampede_dataset"),
    ".missing": (
        "PATTERNS", "BlackoutPattern", "BlockPattern", "CorridorOutagePattern", "MCARPattern",
        "MissingPattern", "MixedPattern", "MNARCongestionPattern", "SensorFailurePattern",
        "holdout_observed", "intersect_masks", "make_pattern", "pattern_names",
        "register_pattern",
    ),
    ".scalers": ("ZScoreScaler",),
    ".windows": ("WindowSet", "make_windows"),
    ".loader": ("BatchLoader",),
    ".csv_loader": ("load_csv_dataset", "load_distances_csv", "load_readings_csv"),
})

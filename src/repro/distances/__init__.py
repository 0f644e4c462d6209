"""Time-series distance functions (DTW / ERP / LCSS) and pairwise matrices."""

from .dtw import dtw_distance, dtw_path
from .erp import erp_distance
from .lcss import lcss_distance, lcss_similarity
from .pairwise import (
    euclidean_distance_matrix,
    get_series_metric,
    paired_distances,
    series_distance_matrix,
)

__all__ = [
    "dtw_distance",
    "dtw_path",
    "erp_distance",
    "lcss_distance",
    "lcss_similarity",
    "get_series_metric",
    "paired_distances",
    "series_distance_matrix",
    "euclidean_distance_matrix",
]

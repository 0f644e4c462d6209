"""Time-series distance functions (DTW / ERP / LCSS) and pairwise matrices."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".dtw": ("dtw_distance", "dtw_path"),
    ".erp": ("erp_distance",),
    ".lcss": ("lcss_distance", "lcss_similarity"),
    ".pairwise": ("get_series_metric", "paired_distances", "series_distance_matrix"),
})

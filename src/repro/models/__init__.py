"""Model zoo: the paper's RIHGCN, its ablations and all baselines."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".base": ("ForecastOutput", "NeuralForecaster", "StatisticalForecaster"),
    ".hgcn": ("GCNEncoder", "HGCNBlock", "LinearEncoder", "SpatialEncoder"),
    ".recurrent_imputation": ("RecurrentImputationForecaster", "build_spatial_encoder"),
    ".rihgcn": ("fc_gcn_i", "fc_lstm_i", "gcn_lstm_i", "rihgcn"),
    ".spatiotemporal": ("SpatioTemporalForecaster", "fc_gcn", "fc_lstm", "gcn_lstm"),
    ".astgcn": ("ASTGCN",),
    ".graph_wavenet": ("GraphWaveNet",),
    ".maginet": ("MagiNetForecaster", "compute_deltas"),
    ".historical_average": ("HistoricalAverage",),
    ".var": ("VectorAutoRegression",),
})

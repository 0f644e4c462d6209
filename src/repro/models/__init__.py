"""Model zoo: the paper's RIHGCN, its ablations and all baselines."""

from .astgcn import ASTGCN
from .base import ForecastOutput, NeuralForecaster, StatisticalForecaster
from .graph_wavenet import GraphWaveNet
from .hgcn import GCNEncoder, HGCNBlock, LinearEncoder, SpatialEncoder
from .historical_average import HistoricalAverage
from .maginet import MagiNetForecaster, compute_deltas
from .recurrent_imputation import (
    RecurrentImputationForecaster,
    build_spatial_encoder,
)
from .rihgcn import fc_gcn_i, fc_lstm_i, gcn_lstm_i, rihgcn
from .spatiotemporal import SpatioTemporalForecaster, fc_gcn, fc_lstm, gcn_lstm
from .var import VectorAutoRegression

__all__ = [
    "ForecastOutput",
    "NeuralForecaster",
    "StatisticalForecaster",
    "SpatialEncoder",
    "LinearEncoder",
    "GCNEncoder",
    "HGCNBlock",
    "RecurrentImputationForecaster",
    "build_spatial_encoder",
    "rihgcn",
    "gcn_lstm_i",
    "fc_gcn_i",
    "fc_lstm_i",
    "SpatioTemporalForecaster",
    "fc_lstm",
    "fc_gcn",
    "gcn_lstm",
    "ASTGCN",
    "GraphWaveNet",
    "MagiNetForecaster",
    "compute_deltas",
    "HistoricalAverage",
    "VectorAutoRegression",
]

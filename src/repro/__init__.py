"""RIHGCN reproduction: Heterogeneous Spatio-Temporal Graph Convolution
Network for Traffic Forecasting with Missing Values (ICDCS 2021).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.autodiff` -- numpy-backed reverse-mode autodiff engine
* :mod:`repro.nn` -- neural layers (Linear, LSTM, ChebConv, attention, TCN)
* :mod:`repro.optim` -- Adam, gradient clipping, early stopping
* :mod:`repro.graphs` -- Eq. 8 adjacency, Laplacians, timeline partition,
  heterogeneous graph sets
* :mod:`repro.distances` -- DTW / ERP / LCSS series distances
* :mod:`repro.datasets` -- synthetic PeMS-like and Stampede-like data,
  missingness injection, windowing
* :mod:`repro.models` -- RIHGCN, its ablations, and every baseline
* :mod:`repro.imputation` -- classical imputers (Last/KNN/MF/TD/...)
* :mod:`repro.training` -- trainer and metrics
* :mod:`repro.telemetry` -- metric registry, op profiler, trainer callbacks
* :mod:`repro.experiments` -- one entry point per paper table/figure
* :mod:`repro.serve` -- online inference: bundles, streaming state, HTTP
"""

from .autodiff import Tensor, inference_mode, no_grad
from .datasets import TrafficDataset, make_pems_dataset, make_stampede_dataset
from .graphs import HeterogeneousGraphSet, build_heterogeneous_graphs
from .models import RecurrentImputationForecaster, rihgcn
from .telemetry import Callback, EpochLogger, JSONLRunRecorder, MetricRegistry, Profiler
from .training import EvalReport, Trainer, TrainerConfig

__version__ = "1.0.0"

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "TrafficDataset",
    "make_pems_dataset",
    "make_stampede_dataset",
    "HeterogeneousGraphSet",
    "build_heterogeneous_graphs",
    "RecurrentImputationForecaster",
    "rihgcn",
    "Trainer",
    "TrainerConfig",
    "EvalReport",
    "Callback",
    "EpochLogger",
    "JSONLRunRecorder",
    "Profiler",
    "MetricRegistry",
    "__version__",
]

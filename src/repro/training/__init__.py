"""Training loop and evaluation metrics."""

from ..telemetry.callbacks import Callback, EpochLogger, JSONLRunRecorder, Profiler
from .evaluation import error_by_missingness, per_node_metrics, per_step_metrics
from .metrics import (
    MetricPair,
    evaluate_horizons,
    mae,
    masked_mae,
    masked_rmse,
    rmse,
)
from .trainer import EvalReport, Trainer, TrainerConfig, TrainingHistory

__all__ = [
    "mae",
    "rmse",
    "masked_mae",
    "masked_rmse",
    "MetricPair",
    "evaluate_horizons",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
    "EvalReport",
    "Callback",
    "EpochLogger",
    "JSONLRunRecorder",
    "Profiler",
    "per_step_metrics",
    "per_node_metrics",
    "error_by_missingness",
]

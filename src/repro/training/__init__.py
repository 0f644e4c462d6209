"""Training loop and evaluation metrics."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".metrics": ("MetricPair", "evaluate_horizons", "mae", "masked_mae", "masked_rmse", "rmse"),
    ".trainer": ("EvalReport", "Trainer", "TrainerConfig", "TrainingHistory"),
    ".evaluation": ("error_by_missingness", "per_node_metrics", "per_step_metrics"),
    "..telemetry.callbacks": ("Callback", "EpochLogger", "JSONLRunRecorder", "Profiler"),
})

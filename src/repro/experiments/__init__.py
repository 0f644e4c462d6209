"""Experiment harness: one grid runner, one named spec per paper table/figure."""

from .config import DataConfig, ModelConfig, default_trainer_config, paper_scale
from .context import ExperimentContext, prepare_context
from .gauntlet import default_scenarios, gauntlet, gauntlet_payload, run_gauntlet_smoke
from .grid import (
    DEFAULT_HORIZONS,
    HORIZON_MINUTES,
    Cell,
    Grid,
    GridSpec,
    evaluate_imputer,
    evaluate_model_imputation,
    run_grid,
    run_model,
)
from .registry import (
    ALL_MODEL_NAMES,
    IMPUTERS,
    NEURAL_MODELS,
    STATISTICAL_MODELS,
    build_model,
    is_statistical,
)
from .report import REPORT_SPECS, ReportConfig, generate_report
from .specs import fig4, fig5, rq2, sweep, table1_horizon, table1_missing, table2
from .tables import format_metric_table, format_series

__all__ = [
    "DataConfig",
    "ModelConfig",
    "default_trainer_config",
    "paper_scale",
    "ExperimentContext",
    "prepare_context",
    "ALL_MODEL_NAMES",
    "IMPUTERS",
    "NEURAL_MODELS",
    "STATISTICAL_MODELS",
    "build_model",
    "is_statistical",
    "GridSpec",
    "Cell",
    "Grid",
    "run_grid",
    "run_model",
    "evaluate_imputer",
    "evaluate_model_imputation",
    "DEFAULT_HORIZONS",
    "HORIZON_MINUTES",
    "table1_missing",
    "table1_horizon",
    "table2",
    "rq2",
    "fig4",
    "fig5",
    "sweep",
    "default_scenarios",
    "gauntlet",
    "gauntlet_payload",
    "run_gauntlet_smoke",
    "format_metric_table",
    "format_series",
    "REPORT_SPECS",
    "ReportConfig",
    "generate_report",
]

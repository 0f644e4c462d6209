"""Experiment harness: one grid runner, one named spec per paper table/figure."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".config": (
        "REPORT_SPECS", "DataConfig", "ModelConfig", "default_trainer_config", "paper_scale",
    ),
    ".context": ("ExperimentContext", "prepare_context"),
    ".registry": (
        "ALL_MODEL_NAMES", "IMPUTERS", "NEURAL_MODELS", "STATISTICAL_MODELS", "build_model",
        "is_statistical",
    ),
    ".grid": (
        "DEFAULT_HORIZONS", "HORIZON_MINUTES", "Cell", "Grid", "GridSpec", "evaluate_imputer",
        "evaluate_model_imputation", "run_grid", "run_model",
    ),
    ".specs": ("fig4", "fig5", "rq2", "sweep", "table1_horizon", "table1_missing", "table2"),
    ".gauntlet": ("default_scenarios", "gauntlet", "gauntlet_payload", "run_gauntlet_smoke"),
    ".tables": ("format_metric_table", "format_series"),
    ".report": ("ReportConfig", "generate_report"),
})

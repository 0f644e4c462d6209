"""One-shot reproduction report generator.

Runs (a configurable subset of) the paper's experiment specs and renders
a single Markdown document with every measured table/figure — the
artifact a reproduction study attaches to its claims. Used by
``python -m repro.cli report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..training import TrainerConfig
from .config import DataConfig, ModelConfig, default_trainer_config
from .grid import run_grid
from .specs import fig4, fig5, rq2, table1_horizon, table1_missing, table2

__all__ = ["ReportConfig", "generate_report", "REPORT_SPECS"]

#: every spec the report knows, in section order
REPORT_SPECS = ("table1-missing", "table1-horizon", "table2", "imputation",
                "fig4", "fig5")


@dataclass
class ReportConfig:
    """Which experiment specs to include and at what budget."""

    specs: tuple[str, ...] = REPORT_SPECS
    models: list[str] | None = None  # None = registry default
    missing_rates: list[float] = field(default_factory=lambda: [0.4, 0.8])
    graph_counts: list[int] = field(default_factory=lambda: [2, 4, 8])
    lambdas: list[float] = field(default_factory=lambda: [0.0001, 1.0, 20.0])
    data: DataConfig = field(default_factory=lambda: DataConfig())
    model: ModelConfig = field(default_factory=ModelConfig)
    trainer: TrainerConfig = field(default_factory=default_trainer_config)

    def __post_init__(self):
        unknown = set(self.specs) - set(REPORT_SPECS)
        if unknown:
            raise ValueError(f"unknown report specs {sorted(unknown)}; "
                             f"options: {list(REPORT_SPECS)}")


def _sections(cfg: ReportConfig) -> dict:
    """name -> (section heading, spec, table title, trainer config)."""
    worst = max(cfg.missing_rates)
    return {
        "table1-missing": (
            "Table I (upper) — error vs missing rate",
            table1_missing(cfg.models, cfg.missing_rates),
            "PeMS-like, 60-min horizon", cfg.trainer,
        ),
        "table1-horizon": (
            "Table I (lower) — error vs horizon",
            table1_horizon(cfg.models, worst),
            f"PeMS-like @ {worst:.0%} missing", cfg.trainer,
        ),
        "table2": (
            "Table II — Stampede roving sensors",
            table2(cfg.models, num_days=max(cfg.data.num_days, 8)),
            "Stampede-like (travel time, seconds)", cfg.trainer,
        ),
        "imputation": (
            "RQ2 — imputation comparison", rq2(cfg.missing_rates), None,
            replace(cfg.trainer, imputation_weight=5.0),
        ),
        "fig4": ("Figure 4 — number of temporal graphs",
                 fig4(cfg.graph_counts), None, cfg.trainer),
        "fig5": ("Figure 5 — imputation-loss weight",
                 fig5(cfg.lambdas), None, cfg.trainer),
    }


def generate_report(config: ReportConfig | None = None) -> str:
    """Run the configured experiments and return the Markdown report."""
    cfg = config or ReportConfig()
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    clock = time.perf_counter()
    sections: list[str] = []
    for name, (heading, spec, title, trainer) in _sections(cfg).items():
        if name in cfg.specs:
            grid = run_grid(spec, cfg.data, cfg.model, trainer)
            sections.append(f"## {heading}\n\n```\n{grid.render(title)}\n```\n")

    elapsed = time.perf_counter() - clock
    header = (
        "# RIHGCN reproduction report\n\n"
        f"Generated {started}; total runtime {elapsed:.0f}s.\n\n"
        f"Data config: `{cfg.data}`\n\n"
        f"Model config: `{cfg.model}`\n"
    )
    return header + "\n" + "\n".join(sections)

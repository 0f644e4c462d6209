"""Experiment configuration dataclasses.

Every reproduction entry point (Table I/II, Fig. 4/5, RQ2) is driven by a
``DataConfig`` + ``ModelConfig`` + ``TrainerConfig`` triple. Defaults are
deliberately smaller than the paper's setup (fewer sensors/days, smaller
hidden sizes) so the full suite runs on a CPU in minutes; the *shape* of
the results is what the reproduction targets (see DESIGN.md). Pass
``paper_scale()`` configs to run at the published scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..training.trainer import TrainerConfig

__all__ = ["DataConfig", "ModelConfig", "default_trainer_config", "paper_scale", "REPORT_SPECS"]

#: every spec the report knows, in section order (the ``report --skip``
#: choices; see :mod:`repro.experiments.report`)
REPORT_SPECS = ("table1-missing", "table1-horizon", "table2", "imputation",
                "fig4", "fig5")


@dataclass
class DataConfig:
    """What data to build and how to corrupt/window it."""

    dataset: str = "pems"  # "pems" | "stampede"
    num_nodes: int = 12
    num_days: int = 8
    steps_per_day: int = 288
    missing_rate: float | None = 0.4  # None = keep the natural mask
    #: any registered pattern kind (see docs/MISSING.md); checked by
    #: :func:`~repro.experiments.context.prepare_context` before it builds data
    missing_kind: str = "mcar"
    #: extra pattern parameters forwarded to make_pattern (e.g.
    #: corridor_size for "corridor", strength for "mnar_congestion").
    missing_params: dict = field(default_factory=dict)
    input_length: int = 12
    output_length: int = 12
    stride: int = 2
    imputation_holdout: float = 0.3  # RQ2: fraction of observed test entries hidden
    #: per-node standardization; None = auto (on for stampede travel times,
    #: off for pems speeds). See ZScoreScaler.
    per_node_scaling: bool | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dataset not in ("pems", "stampede"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.missing_rate is not None and not 0.0 <= self.missing_rate < 1.0:
            raise ValueError(f"missing_rate must be in [0, 1), got {self.missing_rate}")


@dataclass
class ModelConfig:
    """Shared architecture knobs for the neural model zoo."""

    embed_dim: int = 16  # paper: 64 GCN filters
    hidden_dim: int = 32  # paper: 128 LSTM units
    cheb_order: int = 3  # paper: K = 3
    num_graphs: int = 4  # paper default M (Fig. 4 sweeps it)
    membership_mode: str = "hard"  # temporal-graph weighting
    series_metric: str = "dtw"
    partition_downsample: int = 12
    bidirectional: bool = True
    detach_imputation: bool = False
    seed: int = 0


def default_trainer_config(**overrides) -> TrainerConfig:
    """TrainerConfig tuned for the scaled-down reproduction runs."""
    from ..training.trainer import TrainerConfig

    base = TrainerConfig(max_epochs=15, patience=4, batch_size=64)
    return replace(base, **overrides) if overrides else base


def paper_scale() -> tuple[DataConfig, ModelConfig, TrainerConfig]:
    """Configs matching the paper's published setup (slow on CPU)."""
    from ..training.trainer import TrainerConfig

    data = DataConfig(num_nodes=50, num_days=60, stride=1)
    model = ModelConfig(embed_dim=64, hidden_dim=128, num_graphs=4)
    trainer = TrainerConfig(max_epochs=100, patience=6, batch_size=64)
    return data, model, trainer

"""The paper's experiments as named :class:`~repro.experiments.grid.GridSpec`\\ s.

Each function returns the spec of one table or figure; run it with
:func:`~repro.experiments.grid.run_grid` and print ``grid.render(title)``.
``models=None`` means the registry's full comparison set.

* Table I (upper): MAE/RMSE per model at missing rates {20, 40, 60, 80} %
  (60-minute horizon). Table I (lower): per horizon {15, 30, 45, 60} min
  with the missing rate fixed at 80 %.
* Table II: the Stampede roving-sensor data at its *natural* high
  missingness (no injection), per horizon.
* RQ2 (Section IV-C2): hide 30 % of the *observed* test entries, impute
  them, score on exactly those entries at 40 % and 80 % injected missing;
  the classical imputers against RIHGCN's recurrent imputation.
* Fig. 4: RIHGCN per number of temporal graphs M at 40 % missing. The
  paper finds an interior optimum (M = 8).
* Fig. 5: RIHGCN per imputation-loss weight λ at 40 % missing: imputation
  error falls with λ and prediction error is U-shaped.
* :func:`sweep`: any other ModelConfig/TrainerConfig field, the
  sensitivity studies the paper's intro promises.
"""

from __future__ import annotations

from .grid import GridSpec
from .registry import ALL_MODEL_NAMES, IMPUTERS

__all__ = [
    "table1_missing",
    "table1_horizon",
    "table2",
    "rq2",
    "fig4",
    "fig5",
    "sweep",
]

TABLE1_RATES = (0.2, 0.4, 0.6, 0.8)
HORIZONS = (3, 6, 9, 12)
RQ2_RATES = (0.4, 0.8)
GRAPH_COUNTS = (2, 4, 8, 16)
LAMBDAS = (0.0001, 0.001, 0.01, 0.1, 1.0, 5.0, 20.0)


def _models(models) -> tuple[str, ...]:
    return tuple(models or ALL_MODEL_NAMES)


def table1_missing(models=None, rates=TABLE1_RATES) -> GridSpec:
    """Table I (upper): error vs missing rate at the full horizon."""
    return GridSpec("table1-missing", _models(models), rates=tuple(rates))


def table1_horizon(models=None, rate: float = 0.8, horizons=HORIZONS) -> GridSpec:
    """Table I (lower): error vs horizon at one (high) missing rate."""
    return GridSpec("table1-horizon", _models(models), rates=(rate,),
                    horizons=tuple(horizons), layout="horizons")


def table2(models=None, horizons=HORIZONS, num_days: int | None = None) -> GridSpec:
    """Table II: Stampede by horizon; ``num_days`` overrides the data's."""
    data = {"dataset": "stampede", "missing_rate": None}
    if num_days is not None:
        data["num_days"] = num_days
    return GridSpec("table2", _models(models), horizons=tuple(horizons),
                    data=data, layout="horizons")


def rq2(rates=RQ2_RATES, include_model: bool = True) -> GridSpec:
    """RQ2: classical imputers (and RIHGCN) on the held-out entries."""
    models = tuple(IMPUTERS) + (("RIHGCN",) if include_model else ())
    return GridSpec("imputation", models, rates=tuple(rates), show=("imp",),
                    title="Imputation performance (RQ2)")


def fig4(graph_counts=GRAPH_COUNTS) -> GridSpec:
    """Fig. 4: RIHGCN per number of temporal graphs M."""
    return GridSpec(
        "fig4", ("RIHGCN",), rates=(0.4,), override="num_graphs",
        values=tuple(graph_counts), layout="series", show=("pred", "imp"),
        title="Fig. 4: performance vs number of temporal graphs (40% missing)",
        x_label="M",
    )


def fig5(lambdas=LAMBDAS) -> GridSpec:
    """Fig. 5: RIHGCN per imputation-loss weight λ."""
    return GridSpec(
        "fig5", ("RIHGCN",), rates=(0.4,), override="imputation_weight",
        values=tuple(lambdas), layout="series", show=("imp", "pred"),
        title="Fig. 5: performance vs imputation-loss weight lambda (40% missing)",
        x_label="lambda",
    )


def sweep(override: str, values, model: str = "RIHGCN") -> GridSpec:
    """Prediction error of ``model`` per value of one config field."""
    return GridSpec(f"sweep-{override}", (model,), override=override,
                    values=tuple(values), layout="series",
                    title=f"Sensitivity to {override}")

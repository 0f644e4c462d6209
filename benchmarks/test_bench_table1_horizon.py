"""Table I (lower): PeMS prediction MAE/RMSE vs horizon at 80% missing.

Expected shape: error grows with horizon for every learned model; RIHGCN
stays lowest across horizons.
"""

import pytest

from bench_config import (
    PREDICTION_MODELS,
    model_config,
    pems_data_config,
    run_once,
    trainer_config,
)

from repro.experiments import run_grid, table1_horizon

pytestmark = pytest.mark.bench

HORIZONS = [3, 6, 9, 12]


def test_table1_horizon_sweep(benchmark):
    grid = run_once(
        benchmark,
        lambda: run_grid(
            table1_horizon(PREDICTION_MODELS, 0.8, HORIZONS),
            pems_data_config(), model_config(), trainer_config(),
        ),
    )
    print()
    print(grid.render("Table I (lower): PeMS, 80% missing, by horizon"))

    # Error is (weakly) increasing with horizon for the learned models.
    for cell in grid.cells:
        maes = [cell.metric_at(h).mae for h in HORIZONS]
        assert maes[-1] >= maes[0] * 0.9, (
            f"{cell.model}: 60-min error unexpectedly far below 15-min error"
        )
    # RIHGCN near-best at the full horizon.
    best = min(cell.metric_at().mae for cell in grid.cells)
    assert grid.cell("RIHGCN").metric_at().mae <= best * 1.1

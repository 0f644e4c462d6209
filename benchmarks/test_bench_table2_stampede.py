"""Table II: Stampede (roving sensors) prediction MAE/RMSE vs horizon.

The dataset's missingness is *natural* (shuttle traversal process, ~85-90%
missing at 5-minute bins). Expected shape per the paper: differences
between methods are smaller than on PeMS (the high missing rate flattens
everyone toward climatology), imputation-based variants still lead, and
RIHGCN/GCN-LSTM-I sit at the top.
"""

import pytest

from bench_config import (
    PREDICTION_MODELS,
    model_config,
    run_once,
    stampede_data_config,
    trainer_config,
)

from repro.experiments import prepare_context, run_grid, table2

pytestmark = pytest.mark.bench

HORIZONS = [3, 6, 9, 12]


def test_table2_stampede(benchmark):
    data_cfg = stampede_data_config()
    grid = run_once(
        benchmark,
        lambda: run_grid(
            table2(PREDICTION_MODELS, HORIZONS),
            data_cfg, model_config(), trainer_config(),
        ),
    )
    natural = prepare_context(data_cfg, model_config()).corrupted.missing_rate
    print()
    print(f"natural missing rate: {natural:.1%}")
    print(grid.render("Table II: Stampede (travel time, seconds), by horizon"))

    assert natural > 0.5, "roving data should be mostly missing"
    # RIHGCN among the best *learned* models at 60 minutes (ties are common
    # on this data — the paper's own Table II margins are ~1%; its Table II
    # does not include HA).
    best = min(
        cell.metric_at().mae for cell in grid.cells
        if cell.model not in ("HA", "VAR")
    )
    assert grid.cell("RIHGCN").metric_at().mae <= best * 1.10

"""Table I (upper): PeMS prediction MAE/RMSE vs missing rate.

Regenerates the paper's upper Table I rows. Expected shape (not absolute
values): RIHGCN lowest error everywhere; imputation-enhanced variants beat
their mean-filled counterparts; gaps widen as the missing rate grows; VAR
degrades fastest.
"""

import pytest

from bench_config import (
    PREDICTION_MODELS,
    SCALE,
    cell_record,
    emit_bench_record,
    model_config,
    pems_data_config,
    run_once,
    trainer_config,
)

from repro.experiments import run_grid, table1_missing

pytestmark = pytest.mark.bench

MISSING_RATES = {"fast": [0.4, 0.8], "small": [0.2, 0.4, 0.6, 0.8],
                 "full": [0.2, 0.4, 0.6, 0.8]}[SCALE]


def test_table1_missing_rate_sweep(benchmark):
    grid = run_once(
        benchmark,
        lambda: run_grid(
            table1_missing(PREDICTION_MODELS, MISSING_RATES),
            pems_data_config(), model_config(), trainer_config(),
        ),
    )
    print()
    print(grid.render("Table I (upper): PeMS, 60-min horizon, by missing rate"))

    emit_bench_record("table1_missing_rate", {
        "dataset": "pems",
        "missing_rates": MISSING_RATES,
        "runs": [cell_record(c) for c in grid.cells],
    })

    # Shape assertions from the paper, at the highest missing rate.
    last = {c.model: c.metric_at() for c in grid.select(rate=MISSING_RATES[-1])}
    for name, pair in last.items():
        if name == "RIHGCN":
            continue
        assert last["RIHGCN"].mae <= pair.mae * 1.05, (
            f"RIHGCN should be (near-)best at the highest missing rate; "
            f"beaten by {name}"
        )
    if "GCN-LSTM" in last and "GCN-LSTM-I" in last:
        assert last["GCN-LSTM-I"].mae <= last["GCN-LSTM"].mae, (
            "imputation-enhanced variant should win at 80% missing"
        )

"""Missing-pattern gauntlet bench: the model x scenario x rate grid.

Runs every gauntlet model against the full scenario vocabulary (uniform
MCAR, burst blocks, corridor outages, blackouts, congestion-coupled
MNAR) and emits ``BENCH_missing_gauntlet.json``. The committed copy of
that record (generated at ``fast`` scale) is the regression reference
``repro smoke gauntlet`` gates against in CI — regenerate it with::

    REPRO_BENCH_SCALE=fast REPRO_BENCH_OUT=benchmarks \
        pytest benchmarks/test_bench_missing_gauntlet.py -m bench -s
"""

import numpy as np
import pytest

from bench_config import (
    SCALE,
    emit_bench_record,
    model_config,
    pems_data_config,
    run_once,
    trainer_config,
)

from repro.datasets import MissingPattern

from repro.experiments import run_missing_gauntlet

pytestmark = pytest.mark.bench

GAUNTLET_MODELS = {
    "fast": ["HA", "GCN-LSTM", "GCN-LSTM-I", "MagiNet"],
    "small": ["HA", "GCN-LSTM", "FC-LSTM-I", "GCN-LSTM-I", "MagiNet",
              "RIHGCN"],
    "full": ["HA", "GCN-LSTM", "Graph WaveNet", "FC-LSTM-I", "GCN-LSTM-I",
             "MagiNet", "RIHGCN"],
}[SCALE]
# Rates stop at 0.6: beyond that, block overlap pushes achieved coverage
# far enough below nominal to break the achieved-rate gate.
GAUNTLET_RATES = {
    "fast": [0.3, 0.6],
    "small": [0.3, 0.6],
    "full": [0.2, 0.4, 0.6],
}[SCALE]


def test_bench_missing_gauntlet(benchmark):
    data_cfg = pems_data_config()

    def run():
        return run_missing_gauntlet(
            models=GAUNTLET_MODELS,
            rates=GAUNTLET_RATES,
            data_config=data_cfg,
            model_config=model_config(),
            trainer_config=trainer_config(),
            verbose=True,
        )

    result = run_once(benchmark, run)
    print()
    print(result.render())
    path = emit_bench_record("missing_gauntlet", result.to_payload())
    print(f"record: {path}")

    # Grid must be complete and sane before the record is worth committing.
    assert len(result.cells) == (
        len(GAUNTLET_MODELS) * len(result.scenarios) * len(GAUNTLET_RATES)
    )
    for cell in result.cells:
        assert np.isfinite([cell.mae, cell.rmse, cell.achieved_rate]).all()
        assert cell.mae > 0
    # Achieved corruption must land near each scenario's nominal rate.
    tolerance = {
        s.name: s.rate_tolerance + 0.05 for s in result.scenarios
    }
    for cell in result.cells:
        assert abs(cell.achieved_rate - cell.rate) <= tolerance[cell.scenario]
    # Scenario definitions in the record must round-trip (smoke relies on it).
    for spec in result.to_payload()["scenarios"]:
        assert MissingPattern.from_json_dict(spec).to_json_dict() == spec

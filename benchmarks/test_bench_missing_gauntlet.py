"""Missing-pattern gauntlet bench: the model x scenario x rate grid.

Runs every gauntlet model against the full scenario vocabulary (uniform
MCAR, burst blocks, corridor outages, blackouts, congestion-coupled
MNAR) and emits ``BENCH_missing_gauntlet.json``. The committed copy of
that record (generated at ``fast`` scale) is the regression reference
``repro smoke gauntlet`` gates against in CI — regenerate it with::

    REPRO_BENCH_SCALE=fast REPRO_BENCH_OUT=benchmarks \
        pytest benchmarks/test_bench_missing_gauntlet.py -m bench -s
"""

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

from repro.experiments import gauntlet, gauntlet_payload, run_gauntlet_smoke, run_grid

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
        return run_grid(
            gauntlet(GAUNTLET_MODELS, GAUNTLET_RATES, seed=data_cfg.seed),
            data_cfg, model_config(), trainer_config(), verbose=True,
        )

    grid = run_once(benchmark, run)
    print()
    print(grid.render())
    payload = gauntlet_payload(grid)
    path = emit_bench_record("missing_gauntlet", payload)
    print(f"record: {path}")

    # The record must pass the smoke's own offline checks (schema, complete
    # and finite grid, required scenarios, achieved rates near nominal,
    # shared chaos/offline mask path) before it is worth committing.
    report = run_gauntlet_smoke(path, live=False)
    assert report["passed"], report["details"]
    for cell in payload["grid"]:
        assert cell["mae"] > 0
    # Scenario definitions in the record must round-trip (smoke relies on it).
    for spec in payload["scenarios"]:
        assert MissingPattern.from_json_dict(spec).to_json_dict() == spec

"""Tests for the missing-pattern gauntlet grid and its CI smoke gate."""

import json

import numpy as np
import pytest

from repro.datasets import make_pattern
from repro.experiments import (
    DataConfig,
    ModelConfig,
    default_scenarios,
    default_trainer_config,
    gauntlet,
    gauntlet_payload,
    run_gauntlet_smoke,
    run_grid,
)
from repro.experiments.gauntlet import REQUIRED_KINDS

TINY_DATA = DataConfig(
    num_nodes=4, num_days=2, steps_per_day=48,
    input_length=6, output_length=3, stride=4,
)
TINY_MODEL = ModelConfig(
    embed_dim=4, hidden_dim=8, num_graphs=2, partition_downsample=4
)


def tiny_scenarios():
    return [
        make_pattern("corridor", rate=0.3, corridor_size=2, seed=0,
                     name="corridor-outage"),
        make_pattern("blackout", rate=0.3, seed=0, name="blackout-windows"),
        make_pattern("mnar_congestion", rate=0.3, seed=0,
                     name="congestion-mnar"),
    ]


@pytest.fixture(scope="module")
def tiny_grid():
    return run_grid(
        gauntlet(["HA"], [0.3], tiny_scenarios()), TINY_DATA, TINY_MODEL,
    )


def record_from(result, scale="fast") -> dict:
    record = {"bench": "missing_gauntlet", "scale": scale}
    record.update(gauntlet_payload(result))
    return record


class TestGrid:
    def test_complete_and_finite(self, tiny_grid):
        assert len(tiny_grid.cells) == 3  # 1 model x 3 scenarios x 1 rate
        for cell in tiny_grid.cells:
            pair = cell.metric_at()
            assert np.isfinite([pair.mae, pair.rmse, cell.achieved_rate]).all()

    def test_baseline_ratio_is_one_for_baseline(self, tiny_grid):
        for cell in tiny_grid.cells:
            if cell.model == "HA":
                assert cell.ratio_vs_baseline == pytest.approx(1.0)

    def test_cell_lookup(self, tiny_grid):
        cell = tiny_grid.cell("HA", pattern="blackout-windows", rate=0.3)
        assert cell.pattern == "blackout-windows"
        with pytest.raises(KeyError):
            tiny_grid.cell("HA", pattern="nope", rate=0.3)

    def test_render_and_payload(self, tiny_grid):
        text = tiny_grid.render()
        assert "corridor-outage" in text and "HA" in text
        payload = gauntlet_payload(tiny_grid)
        assert {c["scenario"] for c in payload["grid"]} == {
            s.name for s in tiny_grid.spec.patterns
        }
        json.dumps(payload)  # record must be JSON-clean

    def test_baseline_ratio_independent_of_model_order(self):
        """Every model gets its ratio, whether listed before HA or after."""
        scenarios = tiny_scenarios()[:1]
        ratios = []
        for models in (("GCN-LSTM-I", "HA"), ("HA", "GCN-LSTM-I")):
            grid = run_grid(
                gauntlet(models, [0.3], scenarios), TINY_DATA, TINY_MODEL,
                default_trainer_config(max_epochs=1),
            )
            ratios.append(grid.cell("GCN-LSTM-I").ratio_vs_baseline)
        assert ratios[0] is not None
        assert ratios[0] == ratios[1]

    def test_default_scenarios_cover_required_kinds(self):
        kinds = {s.kind for s in default_scenarios()}
        assert set(REQUIRED_KINDS) <= kinds


class TestSmoke:
    def _write(self, tmp_path, record) -> str:
        path = tmp_path / "BENCH_missing_gauntlet.json"
        path.write_text(json.dumps(record))
        return str(path)

    def test_valid_record_passes_offline_checks(self, tiny_grid, tmp_path):
        path = self._write(tmp_path, record_from(tiny_grid))
        report = run_gauntlet_smoke(path, live=False)
        assert report["passed"], report["details"]
        assert report["checks"]["shared_mask_path"]

    def test_missing_record_fails(self, tmp_path):
        report = run_gauntlet_smoke(str(tmp_path / "absent.json"), live=False)
        assert not report["passed"]
        assert not report["checks"]["record_loads"]

    def test_incomplete_grid_fails(self, tiny_grid, tmp_path):
        record = record_from(tiny_grid)
        record["grid"] = record["grid"][:-1]
        report = run_gauntlet_smoke(self._write(tmp_path, record), live=False)
        assert not report["checks"]["grid_complete"]
        assert not report["passed"]

    def test_missing_required_scenario_fails(self, tiny_grid, tmp_path):
        record = record_from(tiny_grid)
        keep = [s for s in record["scenarios"] if s["pattern"] != "blackout"]
        record["scenarios"] = keep
        record["grid"] = [
            c for c in record["grid"] if c["scenario"] != "blackout-windows"
        ]
        report = run_gauntlet_smoke(self._write(tmp_path, record), live=False)
        assert not report["checks"]["required_scenarios"]

    def test_off_target_rates_fail(self, tiny_grid, tmp_path):
        record = record_from(tiny_grid)
        for cell in record["grid"]:
            cell["achieved_rate"] = 0.95
        report = run_gauntlet_smoke(self._write(tmp_path, record), live=False)
        assert not report["checks"]["achieved_rates"]

    def test_live_regression_gate(self, tiny_grid, tmp_path):
        """Live re-run against its own record: ratios cannot regress."""
        record = record_from(tiny_grid)
        path = self._write(tmp_path, record)
        report = run_gauntlet_smoke(
            path, data_config=TINY_DATA, model_config=TINY_MODEL, live=True,
        )
        assert report["passed"], report["details"]
        assert "within bounds" in report["details"]["no_regression"]
        assert "live" in report

    def test_committed_record_is_valid(self):
        """The repo's committed bench record must satisfy the gate."""
        from pathlib import Path

        record = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "BENCH_missing_gauntlet.json"
        )
        report = run_gauntlet_smoke(str(record), live=False)
        assert report["passed"], report["details"]

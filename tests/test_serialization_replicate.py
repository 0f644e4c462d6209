"""Tests for multi-seed replication over the experiment grid."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import DataConfig, GridSpec, run_grid

#: the seed axis re-seeds data generation (mask draw, simulator) and model
#: initialization together, so the spread reflects the full pipeline
SEED_DATA = DataConfig(num_nodes=4, num_days=3, steps_per_day=96,
                       input_length=6, output_length=4, stride=8)


def seed_spec(seeds) -> GridSpec:
    return GridSpec("seeds", ("HA",), horizons=(2, 4), seeds=tuple(seeds))


class TestReplicate:
    def test_replicate_metric(self):
        cell = run_grid(seed_spec([1, 2, 3]), SEED_DATA).cell("HA")
        assert cell.seeds == (1, 2, 3)
        assert len(cell.runs) == 3
        assert cell.metric_at(4).mae == pytest.approx(
            np.mean([r.metric_at(4).mae for r in cell.runs])
        )

    def test_replicate_metric_needs_seeds(self):
        with pytest.raises(ValueError):
            seed_spec([])

    def test_replicate_model_runs_ha(self):
        """A seeds=(0, 1) cell is the mean of two single-seed grids."""
        spec = seed_spec([0, 1])
        merged = run_grid(spec, SEED_DATA).cell("HA")
        singles = [
            run_grid(replace(spec, seeds=(seed,)), SEED_DATA).cell("HA")
            for seed in (0, 1)
        ]
        assert [r.seeds for r in merged.runs] == [(0,), (1,)]
        for h in (2, 4):
            for metric in ("mae", "rmse"):
                assert getattr(merged.metric_at(h), metric) == pytest.approx(
                    np.mean([getattr(s.metric_at(h), metric) for s in singles])
                )
        assert merged.metric_at(4).rmse >= merged.metric_at(4).mae
        assert singles[0].spread[4].mae == 0.0

    def test_seed_variation_nonzero(self):
        """Different seeds should produce (slightly) different datasets."""
        cell = run_grid(seed_spec([0, 1]), SEED_DATA).cell("HA")
        maes = [r.metric_at(4).mae for r in cell.runs]
        assert cell.spread[4].mae == pytest.approx(np.std(maes))
        assert cell.spread[4].mae > 0

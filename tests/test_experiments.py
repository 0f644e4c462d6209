"""Integration tests for the experiment harness (tiny configurations)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import holdout_observed
from repro.experiments import (
    ALL_MODEL_NAMES,
    IMPUTERS,
    DataConfig,
    GridSpec,
    ModelConfig,
    build_model,
    default_trainer_config,
    evaluate_imputer,
    evaluate_model_imputation,
    format_metric_table,
    format_series,
    is_statistical,
    prepare_context,
    rq2,
    run_grid,
    run_model,
    sweep,
    table1_horizon,
    table1_missing,
    table2,
)
from repro.imputation import Imputer, MeanImputer
from repro.models import RecurrentImputationForecaster
from repro.training import MetricPair, Trainer

TINY_DATA = DataConfig(
    dataset="pems", num_nodes=5, num_days=3, steps_per_day=96,
    input_length=6, output_length=4, stride=8, missing_rate=0.4, seed=0,
)
TINY_MODEL = ModelConfig(embed_dim=6, hidden_dim=8, num_graphs=2,
                         partition_downsample=6)
TINY_TRAINER = default_trainer_config(max_epochs=2, batch_size=32)


@pytest.fixture(scope="module")
def ctx():
    return prepare_context(TINY_DATA, TINY_MODEL)


class TestPrepareContext:
    def test_splits_are_scaled(self, ctx):
        # Train split observed entries should be roughly standardized.
        observed = ctx.train.mask > 0
        values = ctx.train.data[observed]
        assert abs(values.mean()) < 0.3
        assert 0.5 < values.std() < 1.5

    def test_missing_rate_applied(self, ctx):
        assert ctx.corrupted.missing_rate == pytest.approx(0.4, abs=0.02)

    def test_windows_built(self, ctx):
        assert ctx.train_windows.num_windows > 0
        assert ctx.val_windows.num_windows > 0
        assert ctx.test_windows.num_windows > 0

    def test_graph_cache(self, ctx):
        g1 = ctx.graphs(2)
        g2 = ctx.graphs(2)
        assert g1 is g2
        assert g1.num_temporal == 2

    def test_holdout_artifacts(self, ctx):
        assert ctx.test_holdout_windows is not None
        assert ctx.holdout_mask is not None
        # Holdout windows hide strictly more than the plain test windows.
        assert ctx.test_holdout_windows.m.sum() < ctx.test_windows.m.sum()

    def test_holdout_drawn_once_from_the_rq2_stream(self, ctx):
        """The stored series holdout is the seed + 7 draw RQ2 always used."""
        reduced, holdout = holdout_observed(
            ctx.test.mask, TINY_DATA.imputation_holdout,
            np.random.default_rng(TINY_DATA.seed + 7),
        )
        np.testing.assert_array_equal(ctx.holdout_mask, holdout)
        np.testing.assert_array_equal(ctx.reduced_mask, reduced)
        np.testing.assert_array_equal(ctx.test_holdout_windows.m[0],
                                      reduced[:TINY_DATA.input_length])

    def test_graph_cache_keys_on_membership_mode(self, ctx):
        """Contexts sharing one cache never reuse another mode's graphs."""
        soft = replace(ctx, model_config=replace(ctx.model_config,
                                                 membership_mode="soft"))
        assert soft._graph_cache is ctx._graph_cache
        hard_graphs, soft_graphs = ctx.graphs(), soft.graphs()
        assert hard_graphs is not soft_graphs
        assert (hard_graphs.membership_mode, soft_graphs.membership_mode) == (
            "hard", "soft")
        assert ctx.graphs() is hard_graphs

    def test_stampede_context(self):
        cfg = DataConfig(
            dataset="stampede", num_days=4, steps_per_day=96,
            input_length=6, output_length=4, stride=8, missing_rate=None,
        )
        stamp_ctx = prepare_context(cfg, TINY_MODEL)
        assert stamp_ctx.num_nodes == 12
        assert stamp_ctx.corrupted.missing_rate > 0.3

    def test_sensor_missing_kind(self):
        from dataclasses import replace

        cfg = replace(TINY_DATA, missing_kind="sensor")
        sensor_ctx = prepare_context(cfg, TINY_MODEL)
        missing = sensor_ctx.corrupted.mask == 0
        assert (missing[:, :, 0] == missing[:, :, 1]).all()

    def test_block_missing_kind(self):
        from dataclasses import replace

        cfg = replace(TINY_DATA, missing_kind="block")
        block_ctx = prepare_context(cfg, TINY_MODEL)
        assert block_ctx.corrupted.missing_rate > 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataConfig(dataset="metr-la")
        with pytest.raises(ValueError):
            DataConfig(missing_rate=1.5)

    def test_unknown_missing_kind_fails_before_any_data_is_built(self, monkeypatch):
        import repro.experiments.context as context

        def no_data(cfg):
            raise AssertionError("dataset built before missing_kind was checked")

        monkeypatch.setattr(context, "_build_dataset", no_data)
        with pytest.raises(ValueError, match=(
            r"^unknown missing_kind 'adversarial'; registered patterns: \['blackout', "
        )):
            prepare_context(replace(TINY_DATA, missing_kind="adversarial"), TINY_MODEL)


class TestRegistry:
    def test_all_models_buildable(self, ctx):
        for name in ALL_MODEL_NAMES:
            model = build_model(name, ctx)
            assert model is not None

    def test_unknown_model(self, ctx):
        with pytest.raises(KeyError):
            build_model("TransformerXL", ctx)

    def test_is_statistical(self):
        assert is_statistical("HA")
        assert is_statistical("VAR")
        assert not is_statistical("RIHGCN")


class TestRunModel:
    def test_statistical_model(self, ctx):
        result = run_model("HA", ctx, horizons=[2, 4])
        assert set(result.horizon_metrics) == {2, 4}
        assert result.metric_at(4).mae > 0
        assert result.epochs == 0

    def test_neural_model(self, ctx):
        result = run_model("FC-LSTM", ctx, TINY_TRAINER, horizons=[4])
        assert result.num_parameters > 0
        assert result.epochs >= 1
        assert result.metric_at(4).rmse >= result.metric_at(4).mae

    def test_horizons_clamped_to_output_length(self, ctx):
        result = run_model("HA", ctx, horizons=[2, 400])
        assert set(result.horizon_metrics) == {2}

    def test_imputation_evaluation_flag(self, ctx):
        result = run_model(
            "FC-LSTM-I", ctx, TINY_TRAINER, horizons=[4], evaluate_imputation=True
        )
        assert result.imputation is not None
        assert result.imputation.mae > 0


class TestImputationEvaluation:
    def test_classical_imputer(self, ctx):
        pair = evaluate_imputer(MeanImputer(), ctx)
        assert pair.mae > 0
        assert pair.rmse >= pair.mae

    def test_model_imputation(self, ctx):
        model = build_model("FC-LSTM-I", ctx)
        assert isinstance(model, RecurrentImputationForecaster)
        Trainer(model, TINY_TRAINER).fit(ctx.train_windows, None)
        pair = evaluate_model_imputation(model, ctx)
        assert np.isfinite(pair.mae)
        assert pair.rmse >= pair.mae

    def test_default_imputers_complete(self, ctx):
        assert {"Last", "KNN", "MF", "TD"}.issubset(IMPUTERS)
        for name in IMPUTERS:
            assert isinstance(build_model(name, ctx), Imputer)

    def test_imputer_is_a_model_kind(self, ctx):
        """run_model dispatches an imputer: imputation only, no forecast."""
        cell = run_model("Mean", ctx)
        assert cell.horizon_metrics == {}
        assert cell.imputation == evaluate_imputer(MeanImputer(), ctx)

    def test_requires_holdout_context(self):
        from dataclasses import replace

        cfg = replace(TINY_DATA, imputation_holdout=0.0)
        bare_ctx = prepare_context(cfg, TINY_MODEL)
        with pytest.raises(ValueError):
            evaluate_imputer(MeanImputer(), bare_ctx)


class TestTableRunners:
    def test_table1_missing_rates_structure(self):
        grid = run_grid(
            table1_missing(["HA", "VAR"], [0.2, 0.6]),
            TINY_DATA, TINY_MODEL, TINY_TRAINER,
        )
        assert [c.rate for c in grid.select(model="HA")] == [0.2, 0.6]
        assert len(grid.select(model="HA")) == 2
        rendered = grid.render("t")
        assert "HA" in rendered and "60%" in rendered

    def test_table1_horizons_structure(self):
        grid = run_grid(
            table1_horizon(["HA"], horizons=[2, 4]),
            TINY_DATA, TINY_MODEL, TINY_TRAINER,
        )
        assert len(grid.cell("HA").horizon_metrics) == 2

    def test_table2_runs_on_stampede(self):
        grid = run_grid(
            table2(["HA"], horizons=[2, 4]),
            DataConfig(
                dataset="stampede", num_days=4, steps_per_day=96,
                input_length=6, output_length=4, stride=8,
            ),
            TINY_MODEL, TINY_TRAINER,
        )
        assert len(grid.cell("HA").horizon_metrics) == 2


class TestGrid:
    def test_shared_context_matches_fresh_context_per_m(self):
        """A Fig. 4-style sweep on one context is bitwise a fresh run per M."""
        spec = GridSpec("m", ("RIHGCN",), override="num_graphs", values=(2, 3),
                        show=("pred", "imp"), layout="series")
        grid = run_grid(spec, TINY_DATA, TINY_MODEL, TINY_TRAINER)
        for m in (2, 3):
            fresh = prepare_context(TINY_DATA, replace(TINY_MODEL, num_graphs=m))
            assert fresh.graphs().num_temporal == m
            alone = run_model("RIHGCN", fresh, TINY_TRAINER, [4],
                              evaluate_imputation=True)
            cell = grid.cell("RIHGCN", value=m)
            assert cell.horizon_metrics == alone.horizon_metrics
            assert cell.imputation == alone.imputation
            assert cell.num_parameters == alone.num_parameters
        assert "pred MAE" in grid.render("t")

    def test_membership_mode_override_matches_fresh_context(self):
        grid = run_grid(
            sweep("membership_mode", ["hard", "soft"], model="RIHGCN"),
            TINY_DATA, TINY_MODEL, TINY_TRAINER,
        )
        for mode in ("hard", "soft"):
            fresh = prepare_context(
                TINY_DATA, replace(TINY_MODEL, membership_mode=mode)
            )
            alone = run_model("RIHGCN", fresh, TINY_TRAINER, [4])
            assert grid.cell("RIHGCN", value=mode).horizon_metrics == (
                alone.horizon_metrics
            )

    def test_cell_records_effectiveness_and_efficiency(self):
        grid = run_grid(GridSpec("e", ("HA", "FC-LSTM"), rates=(0.4,)),
                        TINY_DATA, TINY_MODEL, TINY_TRAINER)
        ha, lstm = grid.cell("HA"), grid.cell("FC-LSTM")
        assert ha.achieved_rate == pytest.approx(0.4, abs=0.02)
        assert ha.achieved_rate == lstm.achieved_rate  # one shared context
        assert (ha.epochs, ha.num_parameters) == (0, 0)
        assert lstm.epochs >= 1 and lstm.num_parameters > 0
        assert lstm.train_seconds > 0

    def test_lookup_errors(self):
        grid = run_grid(table1_missing(["HA"], [0.2, 0.6]), TINY_DATA)
        assert grid.cell("HA", rate=0.6).rate == 0.6
        with pytest.raises(KeyError):
            grid.cell("HA")  # two rates match
        with pytest.raises(KeyError):
            grid.cell("VAR", rate=0.2)

    def test_rq2_spec_renders_imputation(self):
        grid = run_grid(rq2([0.4], include_model=False), TINY_DATA)
        assert [c.model for c in grid.cells] == list(IMPUTERS)
        text = grid.render()
        assert "Imputation performance (RQ2)" in text and "40%" in text

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec("x", ("HA",), seeds=())
        with pytest.raises(ValueError):
            GridSpec("x", ("HA",), layout="pie")
        with pytest.raises(ValueError, match="available"):
            GridSpec("x", ("HA", "TransformerXL"))

    def test_unknown_model_fails_before_any_context(self, monkeypatch):
        """A bad name raises at spec time, not after earlier models trained."""
        import repro.experiments.grid as grid_module

        def no_context(*args, **kwargs):
            raise AssertionError("prepare_context ran before the name check")

        monkeypatch.setattr(grid_module, "prepare_context", no_context)
        with pytest.raises(ValueError, match="STGCN"):
            run_grid(table1_missing(["HA", "GCN-LSTM", "STGCN"], [0.4]), TINY_DATA)


class TestFormatting:
    def test_metric_table_alignment(self):
        text = format_metric_table(
            "Title",
            ["a", "b"],
            [("m1", [MetricPair(1, 2), MetricPair(3, 4)])],
        )
        assert "Title" in text
        assert "1.0000" in text and "4.0000" in text

    def test_metric_table_validates_row_length(self):
        with pytest.raises(ValueError):
            format_metric_table("t", ["a", "b"], [("m", [MetricPair(1, 2)])])

    def test_series_formatting(self):
        text = format_series("Fig", "x", [1, 2], {"y": [0.5, 0.25]})
        assert "0.5000" in text and "0.2500" in text

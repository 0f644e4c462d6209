"""Tests for missingness/graph analysis utilities and rolling forecasts."""

import numpy as np
import pytest

from repro.datasets import (
    MCARPattern,
    StampedeConfig,
    ZScoreScaler,
    gap_length_distribution,
    make_pems_dataset,
    make_stampede_dataset,
    profile_missingness,
)
from repro.graphs import (
    HeterogeneousGraphSet,
    TimelinePartition,
    edge_density,
    edge_jaccard,
    graph_disagreement_matrix,
    heterogeneity_score,
    weighted_similarity,
)
from repro.models import fc_lstm_i
from repro.training import Trainer, TrainerConfig, rolling_forecast


class TestGapLengths:
    def test_single_gap(self):
        mask = np.ones((10, 1, 1))
        mask[3:6] = 0.0
        gaps = gap_length_distribution(mask)
        assert gaps.tolist() == [3]

    def test_multiple_series(self):
        mask = np.ones((6, 2, 1))
        mask[0:2, 0] = 0.0
        mask[5:6, 1] = 0.0
        gaps = sorted(gap_length_distribution(mask).tolist())
        assert gaps == [1, 2]

    def test_no_gaps(self):
        assert gap_length_distribution(np.ones((5, 2, 1))).size == 0

    def test_fully_missing_series(self):
        mask = np.zeros((7, 1, 1))
        assert gap_length_distribution(mask).tolist() == [7]

    def test_2d_mask_accepted(self):
        mask = np.ones((5, 2))
        mask[1, 0] = 0.0
        assert gap_length_distribution(mask).tolist() == [1]

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            gap_length_distribution(np.ones(5))


class TestMissingnessProfile:
    def test_pems_mcar_profile(self):
        ds = make_pems_dataset(num_nodes=5, num_days=3, steps_per_day=96, seed=0)
        ds = ds.with_mask(MCARPattern(rate=0.4).mask(ds.data.shape, rng=np.random.default_rng(1)))
        profile = profile_missingness(ds)
        assert profile.missing_rate == pytest.approx(0.4, abs=0.02)
        # MCAR: per-hour missingness is flat.
        assert profile.per_hour_missing.std() < 0.05
        assert profile.fully_missing_nodes == 0

    def test_stampede_structured_profile(self):
        ds = make_stampede_dataset(StampedeConfig(num_days=5, steps_per_day=96,
                                                  seed=0))
        profile = profile_missingness(ds)
        # Structured: night hours fully missing, service hours not.
        assert profile.per_hour_missing[2] == pytest.approx(1.0)
        assert profile.per_hour_missing[9] < 1.0
        assert profile.mean_gap_length > 1.0

    def test_describe_renders(self):
        ds = make_pems_dataset(num_nodes=3, num_days=2, steps_per_day=96, seed=0)
        text = profile_missingness(ds).describe()
        assert "missing rate" in text
        assert "00:00" in text


class TestGraphAnalysis:
    def _graphs(self):
        part = TimelinePartition(boundaries=(0, 24), steps_per_day=48)
        geo = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        t1 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
        t2 = geo.copy()
        return HeterogeneousGraphSet(geographic=geo, temporal=[t1, t2],
                                     partition=part)

    def test_edge_density(self):
        assert edge_density(np.zeros((4, 4))) == 0.0
        full = np.ones((4, 4))
        assert edge_density(full) == 1.0
        assert edge_density(np.zeros((1, 1))) == 0.0

    def test_jaccard_bounds_and_identity(self):
        g = self._graphs()
        assert edge_jaccard(g.geographic, g.geographic) == 1.0
        assert edge_jaccard(g.geographic, g.temporal[0]) == 0.0
        assert edge_jaccard(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0

    def test_weighted_similarity(self):
        g = self._graphs()
        assert weighted_similarity(g.geographic, g.geographic) == pytest.approx(1.0)
        assert weighted_similarity(g.geographic, g.temporal[0]) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            weighted_similarity(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_disagreement_matrix(self):
        g = self._graphs()
        mat = graph_disagreement_matrix(g)
        assert mat.shape == (3, 3)
        assert np.allclose(np.diag(mat), 0.0)
        assert mat[0, 1] == pytest.approx(1.0)  # orthogonal edge sets
        assert mat[0, 2] == pytest.approx(0.0)  # identical graphs

    def test_heterogeneity_score(self):
        g = self._graphs()
        # temporal[0] fully disagrees, temporal[1] fully agrees -> mean 0.5.
        assert heterogeneity_score(g) == pytest.approx(0.5)

    def test_simulator_produces_heterogeneity(self):
        """The PeMS-like simulator must yield exploitable temporal structure."""
        from repro.graphs import PartitionConfig, build_heterogeneous_graphs

        ds = make_pems_dataset(num_nodes=8, num_days=5, steps_per_day=96, seed=0)
        hg = build_heterogeneous_graphs(
            ds.data, ds.mask, ds.network.distances, steps_per_day=96,
            num_intervals=3,
            partition_config=PartitionConfig(num_intervals=3, downsample_to=6),
        )
        assert heterogeneity_score(hg) > 0.1


class TestRollingForecast:
    @pytest.fixture(scope="class")
    def setting(self):
        ds = make_pems_dataset(num_nodes=4, num_days=3, steps_per_day=96, seed=0)
        ds = ds.with_mask(MCARPattern(rate=0.3).mask(ds.data.shape, rng=np.random.default_rng(1)))
        scaler = ZScoreScaler().fit(ds.data, ds.mask)
        from dataclasses import replace

        scaled = replace(ds, data=scaler.transform(ds.data, ds.mask),
                         truth=scaler.transform(ds.truth))
        model = fc_lstm_i(input_length=6, output_length=4, num_nodes=4,
                          num_features=4, embed_dim=6, hidden_dim=8, seed=0)
        from repro.datasets import make_windows

        Trainer(model, TrainerConfig(max_epochs=2, batch_size=32)).fit(
            make_windows(scaled, 6, 4, stride=4), None
        )
        return model, scaled, scaler

    def test_trace_shapes_and_coverage(self, setting):
        model, scaled, scaler = setting
        trace = rolling_forecast(model, scaled, scaler=scaler)
        assert trace.prediction.shape == scaled.data.shape
        # Everything after the first input window is covered (tiling).
        assert not trace.covered[:6].any()
        assert trace.covered[6:].mean() > 0.9

    def test_metrics_positive(self, setting):
        model, scaled, scaler = setting
        trace = rolling_forecast(model, scaled, scaler=scaler)
        pair = trace.metrics(feature=0)
        assert pair.rmse >= pair.mae > 0

    def test_overlapping_refresh_averages(self, setting):
        model, scaled, scaler = setting
        tiled = rolling_forecast(model, scaled, scaler=scaler, refresh_every=4)
        overlapped = rolling_forecast(model, scaled, scaler=scaler,
                                      refresh_every=2)
        assert overlapped.covered.sum() >= tiled.covered.sum()

    def test_metrics_by_step_of_day(self, setting):
        model, scaled, scaler = setting
        trace = rolling_forecast(model, scaled, scaler=scaler)
        buckets = trace.metrics_by_step_of_day(scaled.steps_of_day, 96,
                                               buckets=24)
        assert len(buckets) == 24
        assert all(np.isfinite(b.mae) for b in buckets)

    def test_refresh_validation(self, setting):
        model, scaled, scaler = setting
        with pytest.raises(ValueError):
            rolling_forecast(model, scaled, refresh_every=0)

    def test_short_dataset_rejected(self, setting):
        model, scaled, _scaler = setting
        with pytest.raises(ValueError):
            rolling_forecast(model, scaled.slice_steps(0, 8))
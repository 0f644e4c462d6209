"""Experiment context: dataset -> corruption -> scaling -> windows -> graphs.

Centralizes the data pipeline every experiment shares so each grid spec
only declares *what* varies. Heterogeneous graph sets are cached per
graph-affecting model setting, so one context serves every model and
override of a grid cell (Fig. 4 sweeps M over the same data).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from ..datasets import (
    StampedeConfig,
    TrafficDataset,
    WindowSet,
    ZScoreScaler,
    holdout_observed,
    make_pattern,
    make_pems_dataset,
    make_stampede_dataset,
    make_windows,
    pattern_names,
)
from ..graphs import (
    HeterogeneousGraphSet,
    PartitionConfig,
    build_heterogeneous_graphs,
    gaussian_kernel_adjacency,
)
from .config import DataConfig, ModelConfig

__all__ = ["ExperimentContext", "prepare_context", "corruption_pattern"]


def _build_dataset(cfg: DataConfig) -> TrafficDataset:
    if cfg.dataset == "pems":
        return make_pems_dataset(
            num_nodes=cfg.num_nodes,
            num_days=cfg.num_days,
            steps_per_day=cfg.steps_per_day,
            seed=cfg.seed,
        )
    return make_stampede_dataset(
        StampedeConfig(
            num_days=cfg.num_days,
            steps_per_day=cfg.steps_per_day,
            seed=cfg.seed,
        )
    )


def corruption_pattern(cfg: DataConfig):
    """The :class:`~repro.datasets.MissingPattern` a DataConfig describes.

    Returns ``None`` when the config keeps the natural mask. The pattern
    seed is ``cfg.seed + 1`` — the stream the pre-pattern pipeline used —
    so existing experiment results are mask-for-mask reproducible. An
    unknown ``missing_kind`` raises ``ValueError``, natural mask or not.
    """
    if cfg.missing_kind not in pattern_names():
        raise ValueError(
            f"unknown missing_kind {cfg.missing_kind!r}; "
            f"registered patterns: {pattern_names()}"
        )
    params = dict(cfg.missing_params)
    if cfg.missing_rate is None and not params:
        return None
    if cfg.missing_rate is not None and cfg.missing_kind != "mixed":
        params.setdefault("rate", cfg.missing_rate)
    return make_pattern(cfg.missing_kind, seed=cfg.seed + 1, **params)


def _corrupt(dataset: TrafficDataset, pattern) -> TrafficDataset:
    """Apply ``pattern``'s missingness on top of the natural mask."""
    if pattern is None:
        return dataset
    # Structured kinds may need the sensor adjacency or the readings.
    injected = pattern.mask(
        dataset.data.shape,
        adjacency=gaussian_kernel_adjacency(dataset.network.distances),
        data=dataset.data,
    )
    return dataset.with_mask(dataset.mask * injected)


@dataclass
class ExperimentContext:
    """Everything an experiment needs, built once per configuration."""

    data_config: DataConfig
    model_config: ModelConfig
    raw: TrafficDataset  # before corruption (truth available)
    corrupted: TrafficDataset  # scaled? no — original units, corrupted mask
    scaler: ZScoreScaler
    train: TrafficDataset  # scaled splits
    val: TrafficDataset
    test: TrafficDataset
    train_windows: WindowSet
    val_windows: WindowSet
    test_windows: WindowSet
    adjacency: np.ndarray  # geographic (Eq. 8)
    # RQ2 artifacts: extra holdout applied to the test split, drawn once.
    holdout_mask: np.ndarray | None = None  # series-level hidden entries
    reduced_mask: np.ndarray | None = None  # test mask minus the holdout
    test_holdout_windows: WindowSet | None = None
    _graph_cache: dict[tuple, HeterogeneousGraphSet] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.raw.num_nodes

    @property
    def num_features(self) -> int:
        return self.raw.num_features

    def graphs(self, num_intervals: int | None = None) -> HeterogeneousGraphSet:
        """Heterogeneous graph set built from *training* history.

        Cached on every ModelConfig field the set is built from, so
        contexts that share the cache under different model configs never
        reuse each other's graphs.
        """
        mc = self.model_config
        m = num_intervals or mc.num_graphs
        key = (m, mc.series_metric, mc.partition_downsample, mc.membership_mode)
        if key not in self._graph_cache:
            self._graph_cache[key] = build_heterogeneous_graphs(
                self.train.data,
                self.train.mask,
                self.raw.network.distances,
                steps_per_day=self.raw.steps_per_day,
                num_intervals=m,
                metric=mc.series_metric,
                partition_config=PartitionConfig(
                    num_intervals=m,
                    metric=mc.series_metric,
                    downsample_to=mc.partition_downsample,
                ),
                membership_mode=mc.membership_mode,
            )
        return self._graph_cache[key]


def prepare_context(
    data_cfg: DataConfig,
    model_cfg: ModelConfig | None = None,
) -> ExperimentContext:
    """Build the full pipeline for one experiment configuration."""
    model_cfg = model_cfg or ModelConfig()
    pattern = corruption_pattern(data_cfg)  # fails on a bad kind before any data
    raw = _build_dataset(data_cfg)
    corrupted = _corrupt(raw, pattern)

    train_u, val_u, test_u = corrupted.chronological_split()
    per_node = data_cfg.per_node_scaling
    if per_node is None:
        # Travel times carry large per-segment offsets; speeds do not.
        per_node = data_cfg.dataset == "stampede"
    scaler = ZScoreScaler(per_node=per_node).fit(train_u.data, train_u.mask)

    def scale(ds: TrafficDataset) -> TrafficDataset:
        return dc_replace(
            ds,
            data=scaler.transform(ds.data, ds.mask),
            truth=scaler.transform(ds.truth) if ds.truth is not None else None,
        )

    train, val, test = scale(train_u), scale(val_u), scale(test_u)
    window_args = dict(
        input_length=data_cfg.input_length,
        output_length=data_cfg.output_length,
        stride=data_cfg.stride,
    )
    train_windows = make_windows(train, **window_args)
    val_windows = make_windows(val, **window_args)
    test_windows = make_windows(test, **window_args)

    adjacency = gaussian_kernel_adjacency(raw.network.distances)

    ctx = ExperimentContext(
        data_config=data_cfg,
        model_config=model_cfg,
        raw=raw,
        corrupted=corrupted,
        scaler=scaler,
        train=train,
        val=val,
        test=test,
        train_windows=train_windows,
        val_windows=val_windows,
        test_windows=test_windows,
        adjacency=adjacency,
    )

    # RQ2: hide a further fraction of the *observed* test entries.
    if data_cfg.imputation_holdout:
        rng = np.random.default_rng(data_cfg.seed + 7)
        reduced_mask, holdout = holdout_observed(
            test.mask, data_cfg.imputation_holdout, rng
        )
        test_holdout = dc_replace(test, data=test.data * reduced_mask, mask=reduced_mask)
        ctx.holdout_mask, ctx.reduced_mask = holdout, reduced_mask
        ctx.test_holdout_windows = make_windows(test_holdout, **window_args)
    return ctx

"""Model registry: the names used in Tables I/II mapped to builders.

Each builder takes the experiment context and returns a fresh model. The
registry covers the paper's full comparison set:

* statistical: HA, VAR
* mean-filled neural: FC-LSTM, FC-GCN, GCN-LSTM, ASTGCN, Graph WaveNet
* imputation-enhanced ablations: FC-LSTM-I, FC-GCN-I, GCN-LSTM-I
* proposed: RIHGCN

plus MagiNet, the mask-conditioned baseline the missing-pattern gauntlet
runs, and the classical imputers RQ2 compares RIHGCN's imputation against
(:data:`IMPUTERS`), which :func:`build_model` dispatches the same way.
"""

from __future__ import annotations

from typing import Callable

from ..imputation import (
    Imputer,
    KNNImputer,
    LastObservedImputer,
    LinearInterpolationImputer,
    MatrixFactorizationImputer,
    MeanImputer,
    TensorDecompositionImputer,
)
from ..models import (
    ASTGCN,
    GraphWaveNet,
    HistoricalAverage,
    MagiNetForecaster,
    NeuralForecaster,
    StatisticalForecaster,
    VectorAutoRegression,
    fc_gcn,
    fc_gcn_i,
    fc_lstm,
    fc_lstm_i,
    gcn_lstm,
    gcn_lstm_i,
    rihgcn,
)
from .context import ExperimentContext

__all__ = [
    "NEURAL_MODELS",
    "STATISTICAL_MODELS",
    "ALL_MODEL_NAMES",
    "IMPUTERS",
    "build_model",
    "is_statistical",
]


def _dims(ctx: ExperimentContext) -> dict:
    cfg = ctx.data_config
    return dict(
        input_length=cfg.input_length,
        output_length=cfg.output_length,
        num_nodes=ctx.num_nodes,
        num_features=ctx.num_features,
    )


def _nn_common(ctx: ExperimentContext) -> dict:
    mc = ctx.model_config
    return dict(
        embed_dim=mc.embed_dim,
        hidden_dim=mc.hidden_dim,
        cheb_order=mc.cheb_order,
        seed=mc.seed,
    )


def _imputation_common(ctx: ExperimentContext) -> dict:
    mc = ctx.model_config
    return dict(
        **_nn_common(ctx),
        bidirectional=mc.bidirectional,
        detach_imputation=mc.detach_imputation,
    )


STATISTICAL_MODELS: dict[str, Callable[[ExperimentContext], StatisticalForecaster]] = {
    "HA": lambda ctx: HistoricalAverage(),
    "VAR": lambda ctx: VectorAutoRegression(lags=3),
}

NEURAL_MODELS: dict[str, Callable[[ExperimentContext], NeuralForecaster]] = {
    "ASTGCN": lambda ctx: ASTGCN(
        adjacency=ctx.adjacency,
        hidden_channels=ctx.model_config.embed_dim,
        cheb_order=ctx.model_config.cheb_order,
        seed=ctx.model_config.seed,
        **_dims(ctx),
    ),
    "Graph WaveNet": lambda ctx: GraphWaveNet(
        adjacency=ctx.adjacency,
        residual_channels=ctx.model_config.embed_dim,
        seed=ctx.model_config.seed,
        **_dims(ctx),
    ),
    "FC-LSTM": lambda ctx: fc_lstm(**_dims(ctx), **_nn_common(ctx)),
    "FC-GCN": lambda ctx: fc_gcn(
        adjacency=ctx.adjacency, **_dims(ctx), **_nn_common(ctx)
    ),
    "GCN-LSTM": lambda ctx: gcn_lstm(
        adjacency=ctx.adjacency, **_dims(ctx), **_nn_common(ctx)
    ),
    "MagiNet": lambda ctx: MagiNetForecaster(
        embed_dim=ctx.model_config.embed_dim,
        hidden_dim=ctx.model_config.hidden_dim,
        seed=ctx.model_config.seed,
        **_dims(ctx),
    ),
    "FC-LSTM-I": lambda ctx: fc_lstm_i(**_dims(ctx), **_imputation_common(ctx)),
    "FC-GCN-I": lambda ctx: fc_gcn_i(
        adjacency=ctx.adjacency, **_dims(ctx), **_imputation_common(ctx)
    ),
    "GCN-LSTM-I": lambda ctx: gcn_lstm_i(
        adjacency=ctx.adjacency, **_dims(ctx), **_imputation_common(ctx)
    ),
    "RIHGCN": lambda ctx: rihgcn(
        graphs=ctx.graphs(), **_dims(ctx), **_imputation_common(ctx)
    ),
}

#: every forecaster in table-row order (the default ``--models`` set)
ALL_MODEL_NAMES: list[str] = [*STATISTICAL_MODELS, *NEURAL_MODELS]

#: RQ2's classical baselines (plus two trivial references), scored by
#: :func:`~repro.experiments.grid.evaluate_imputer`
IMPUTERS: dict[str, Callable[[ExperimentContext], Imputer]] = {
    "Mean": lambda ctx: MeanImputer(),
    "Last": lambda ctx: LastObservedImputer(),
    "Interp": lambda ctx: LinearInterpolationImputer(),
    "KNN": lambda ctx: KNNImputer(k=min(3, max(ctx.num_nodes - 1, 1))),
    "MF": lambda ctx: MatrixFactorizationImputer(
        rank=max(2, ctx.num_nodes // 3), iterations=10
    ),
    "TD": lambda ctx: TensorDecompositionImputer(
        rank=4, steps_per_day=ctx.raw.steps_per_day, iterations=10
    ),
}


def is_statistical(name: str) -> bool:
    return name in STATISTICAL_MODELS


def build_model(name: str, ctx: ExperimentContext):
    """Instantiate a registered model or imputer for the given context."""
    for registry in (STATISTICAL_MODELS, NEURAL_MODELS, IMPUTERS):
        if name in registry:
            return registry[name](ctx)
    raise KeyError(
        f"unknown model {name!r}; available: {ALL_MODEL_NAMES} "
        f"and imputers {list(IMPUTERS)}"
    )

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

Builders read models through the lazy ``repro.models`` package, so a
process that builds one model (a server loading a bundle) loads only that
model's modules; the imputer package is imported on the first imputer built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .. import models

if TYPE_CHECKING:
    from types import ModuleType

    from ..imputation.base import Imputer
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


STATISTICAL_MODELS: dict[str, Callable[[ExperimentContext], models.StatisticalForecaster]] = {
    "HA": lambda ctx: models.HistoricalAverage(),
    "VAR": lambda ctx: models.VectorAutoRegression(lags=3),
}

NEURAL_MODELS: dict[str, Callable[[ExperimentContext], models.NeuralForecaster]] = {
    "ASTGCN": lambda ctx: models.ASTGCN(
        adjacency=ctx.adjacency,
        hidden_channels=ctx.model_config.embed_dim,
        cheb_order=ctx.model_config.cheb_order,
        seed=ctx.model_config.seed,
        **_dims(ctx),
    ),
    "Graph WaveNet": lambda ctx: models.GraphWaveNet(
        adjacency=ctx.adjacency,
        residual_channels=ctx.model_config.embed_dim,
        seed=ctx.model_config.seed,
        **_dims(ctx),
    ),
    "FC-LSTM": lambda ctx: models.fc_lstm(**_dims(ctx), **_nn_common(ctx)),
    "FC-GCN": lambda ctx: models.fc_gcn(
        adjacency=ctx.adjacency, **_dims(ctx), **_nn_common(ctx)
    ),
    "GCN-LSTM": lambda ctx: models.gcn_lstm(
        adjacency=ctx.adjacency, **_dims(ctx), **_nn_common(ctx)
    ),
    "MagiNet": lambda ctx: models.MagiNetForecaster(
        embed_dim=ctx.model_config.embed_dim,
        hidden_dim=ctx.model_config.hidden_dim,
        seed=ctx.model_config.seed,
        **_dims(ctx),
    ),
    "FC-LSTM-I": lambda ctx: models.fc_lstm_i(**_dims(ctx), **_imputation_common(ctx)),
    "FC-GCN-I": lambda ctx: models.fc_gcn_i(
        adjacency=ctx.adjacency, **_dims(ctx), **_imputation_common(ctx)
    ),
    "GCN-LSTM-I": lambda ctx: models.gcn_lstm_i(
        adjacency=ctx.adjacency, **_dims(ctx), **_imputation_common(ctx)
    ),
    "RIHGCN": lambda ctx: models.rihgcn(
        graphs=ctx.graphs(), **_dims(ctx), **_imputation_common(ctx)
    ),
}

#: every forecaster in table-row order (the default ``--models`` set)
ALL_MODEL_NAMES: list[str] = [*STATISTICAL_MODELS, *NEURAL_MODELS]


def _imputation() -> ModuleType:
    """``repro.imputation``; a server builds no imputer and never loads it."""
    from .. import imputation

    return imputation


#: RQ2's classical baselines (plus two trivial references), scored by
#: :func:`~repro.experiments.grid.evaluate_imputer`
IMPUTERS: dict[str, Callable[[ExperimentContext], Imputer]] = {
    "Mean": lambda ctx: _imputation().MeanImputer(),
    "Last": lambda ctx: _imputation().LastObservedImputer(),
    "Interp": lambda ctx: _imputation().LinearInterpolationImputer(),
    "KNN": lambda ctx: _imputation().KNNImputer(k=min(3, max(ctx.num_nodes - 1, 1))),
    "MF": lambda ctx: _imputation().MatrixFactorizationImputer(
        rank=max(2, ctx.num_nodes // 3), iterations=10
    ),
    "TD": lambda ctx: _imputation().TensorDecompositionImputer(
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

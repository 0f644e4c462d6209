"""One experiment grid: every paper table and figure is a spec over it.

A :class:`GridSpec` names its axes — models, missing patterns, missing
rates, scored horizons, one model-or-trainer field override and seeds — and
:func:`run_grid` walks them. It builds one :class:`ExperimentContext` per
(pattern, rate, seed) and reuses it for every model and override value of
that cell. Each (model, pattern, rate, value) becomes one :class:`Cell`
carrying effectiveness (MAE/RMSE per horizon, optional imputation error)
and efficiency (train seconds, epochs, parameters), averaged over seeds
with their spread. :meth:`Grid.render` prints the paper-style table.

:func:`run_model` is the per-(model, context) step. Prediction metrics
are cumulative MAE/RMSE at 15/30/45/60-minute horizons (3/6/9/12
five-minute steps) over the primary feature (average speed for PeMS-like,
travel time for Stampede-like) in original units. Imputation metrics
(RQ2) score the held-out observed entries of the test split, also in
original units.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..autodiff import no_grad
from ..datasets import MissingPattern
from ..imputation import Imputer
from ..models import RecurrentImputationForecaster
from ..training import MetricPair, Trainer, TrainerConfig, evaluate_horizons, masked_mae, masked_rmse
from .config import DataConfig, ModelConfig, default_trainer_config
from .context import ExperimentContext, prepare_context
from .registry import ALL_MODEL_NAMES, IMPUTERS, build_model, is_statistical
from .tables import format_metric_table, format_series

__all__ = [
    "GridSpec",
    "Cell",
    "Grid",
    "run_grid",
    "run_model",
    "evaluate_imputer",
    "evaluate_model_imputation",
    "DEFAULT_HORIZONS",
    "HORIZON_MINUTES",
]

#: cumulative horizons in steps and their label in minutes (5-min data)
DEFAULT_HORIZONS = [3, 6, 9, 12]
HORIZON_MINUTES = {3: 15, 6: 30, 9: 45, 12: 60}

_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}
_TRAINER_FIELDS = {f.name for f in fields(TrainerConfig)}


@dataclass(frozen=True)
class GridSpec:
    """The axes of one experiment and how to render it.

    Every entry of ``models`` must be a registered forecaster or imputer;
    an unknown name raises ``ValueError`` here, before any data is built.
    ``None`` on the ``rates``, ``patterns`` and ``seeds`` axes keeps what
    the :class:`DataConfig` passed to :func:`run_grid` says. A pattern is
    re-targeted to each rate. ``override`` names the :class:`ModelConfig`
    (checked first) or :class:`TrainerConfig` field that takes each of
    ``values`` in turn. A seed sets ``DataConfig.seed`` and
    ``ModelConfig.seed`` together. ``data`` holds DataConfig overrides the
    spec always applies.

    ``layout`` picks the rendering: ``"rates"`` (models x rates),
    ``"horizons"`` (models x horizons), ``"series"`` (one row per override
    value) or ``"gauntlet"`` (pattern/rate rows x models). ``show`` lists
    ``"pred"`` and/or ``"imp"`` (imputation, which is then scored) in
    column order; a table layout shows the first. ``baseline`` names the
    model whose MAE every cell's ``ratio_vs_baseline`` divides by.
    """

    name: str
    models: tuple[str, ...]
    rates: tuple[float | None, ...] = (None,)
    patterns: tuple[MissingPattern | None, ...] = (None,)
    horizons: tuple[int, ...] = ()  # () = the DataConfig's output length
    override: str | None = None
    values: tuple = (None,)
    seeds: tuple[int | None, ...] = (None,)
    data: dict = field(default_factory=dict)
    layout: str = "rates"
    show: tuple[str, ...] = ("pred",)
    baseline: str | None = None
    title: str = ""
    x_label: str | None = None  # series x-axis label (default: override)

    def __post_init__(self):
        if self.override is not None and self.override not in _MODEL_FIELDS | _TRAINER_FIELDS:
            raise ValueError(
                f"{self.override!r} is not a ModelConfig or TrainerConfig field; "
                f"options: {sorted(_MODEL_FIELDS | _TRAINER_FIELDS)}"
            )
        for axis in ("models", "rates", "patterns", "values", "seeds"):
            if not getattr(self, axis):
                raise ValueError(f"grid axis {axis!r} needs at least one entry")
        unknown = [m for m in self.models if m not in ALL_MODEL_NAMES and m not in IMPUTERS]
        if unknown:
            raise ValueError(
                f"unknown model(s) {unknown}; available: {ALL_MODEL_NAMES} "
                f"and imputers {list(IMPUTERS)}"
            )
        if self.layout not in ("rates", "horizons", "series", "gauntlet"):
            raise ValueError(f"unknown grid layout {self.layout!r}")


@dataclass
class Cell:
    """One (model, pattern, rate, value) grid entry, merged over seeds.

    Metrics are seed means and ``spread`` their standard deviation (zero
    for one seed); ``train_seconds`` and ``epochs`` total the seeds'
    cost. ``runs`` keeps the per-seed cells when there is more than one.
    """

    model: str
    horizon_metrics: dict[int, MetricPair]
    pattern: str | None = None
    rate: float | None = None
    value: object = None
    seeds: tuple = ()
    spread: dict[int, MetricPair] = field(default_factory=dict)
    imputation: MetricPair | None = None
    achieved_rate: float = 0.0
    train_seconds: float = 0.0
    epochs: int = 0
    num_parameters: int = 0
    ratio_vs_baseline: float | None = None
    runs: tuple[Cell, ...] = ()

    def metric_at(self, horizon: int | None = None) -> MetricPair:
        """Prediction metrics at ``horizon`` (default: the longest scored)."""
        return self.horizon_metrics[horizon or max(self.horizon_metrics)]


def _same(have, want) -> bool:
    if isinstance(have, float) and isinstance(want, (int, float)):
        return math.isclose(have, want)
    return have == want


@dataclass
class Grid:
    """The cells of one :func:`run_grid` call, in axis order."""

    spec: GridSpec
    horizons: list[int]
    cells: list[Cell]

    def select(self, **axes) -> list[Cell]:
        """Cells whose attributes match every ``axis=value`` given."""
        return [
            c for c in self.cells
            if all(_same(getattr(c, k), v) for k, v in axes.items())
        ]

    def cell(self, model: str, **axes) -> Cell:
        """The one cell of ``model`` matching ``axes``; KeyError otherwise."""
        found = self.select(model=model, **axes)
        if len(found) != 1:
            raise KeyError(f"{len(found)} cells match {model!r} {axes}")
        return found[0]

    def _pair(self, cell: Cell, kind: str) -> MetricPair:
        return cell.imputation if kind == "imp" else cell.metric_at(self.horizons[-1])

    def render(self, title: str | None = None) -> str:
        spec = self.spec
        title = title or spec.title
        if spec.layout == "gauntlet":
            return self._render_gauntlet(title)
        if spec.layout == "series":
            series = {}
            for kind in spec.show:
                prefix = f"{kind} " if spec.show != ("pred",) else ""
                pairs = [self._pair(self.cell(spec.models[0], value=v), kind)
                         for v in spec.values]
                series[prefix + "MAE"] = [p.mae for p in pairs]
                series[prefix + "RMSE"] = [p.rmse for p in pairs]
            return format_series(title, spec.x_label or spec.override,
                                 list(spec.values), series)
        if spec.layout == "rates":
            labels = [f"{int(r * 100)}%" for r in spec.rates]
            rows = [
                (m, [self._pair(self.cell(m, rate=r), spec.show[0]) for r in spec.rates])
                for m in spec.models
            ]
        else:
            labels = [f"{HORIZON_MINUTES.get(h, h * 5)} min" for h in self.horizons]
            rows = [
                (m, [self.cell(m).horizon_metrics[h] for h in self.horizons])
                for m in spec.models
            ]
        return format_metric_table(title, labels, rows)

    def _render_gauntlet(self, title: str) -> str:
        models = self.spec.models
        width = max(len(m) for m in models) + 2
        header = f"{'scenario':<18} {'rate':>5} " + "".join(
            f"{m:>{width}}" for m in models
        )
        lines = [title, header, "-" * len(header)]
        for pattern in self.spec.patterns:
            for rate in self.spec.rates:
                row = [self.cell(m, pattern=pattern.name, rate=rate) for m in models]
                lines.append(
                    f"{pattern.name:<18} {rate:>5.0%} "
                    + "".join(f"{c.metric_at().mae:>{width}.4f}" for c in row)
                    + f"   (achieved {row[0].achieved_rate:.0%})"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The grid walk
# ----------------------------------------------------------------------
def _data_config(
    base: DataConfig,
    pattern: MissingPattern | None,
    rate: float | None,
    seed: int | None,
) -> DataConfig:
    cfg = base if seed is None else replace(base, seed=seed)
    if pattern is not None:
        if rate is not None:
            pattern = pattern.with_rate(rate)
        return replace(
            cfg,
            missing_kind=pattern.kind,
            missing_rate=None,
            missing_params=pattern.to_json_dict()["params"],
        )
    return cfg if rate is None else replace(cfg, missing_rate=rate)


def _injected_rate(ctx: ExperimentContext) -> float:
    """Fraction of naturally observed entries the corruption removed."""
    natural = float(ctx.raw.mask.sum())
    if natural <= 0:
        return 0.0
    return 1.0 - float(ctx.corrupted.mask.sum()) / natural


def _merge(runs: list[Cell]) -> Cell:
    """Fold per-seed cells into one: means, spread, total cost."""
    if len(runs) == 1:
        return runs[0]

    def stat(pairs: list[MetricPair], fn) -> MetricPair:
        return MetricPair(
            mae=float(fn([p.mae for p in pairs])),
            rmse=float(fn([p.rmse for p in pairs])),
        )

    first = runs[0]
    per_horizon = {h: [r.horizon_metrics[h] for r in runs] for h in first.horizon_metrics}
    return replace(
        first,
        seeds=tuple(s for r in runs for s in r.seeds),
        horizon_metrics={h: stat(p, np.mean) for h, p in per_horizon.items()},
        spread={h: stat(p, np.std) for h, p in per_horizon.items()},
        imputation=(
            None if first.imputation is None
            else stat([r.imputation for r in runs], np.mean)
        ),
        achieved_rate=float(np.mean([r.achieved_rate for r in runs])),
        train_seconds=sum(r.train_seconds for r in runs),
        epochs=sum(r.epochs for r in runs),
        runs=tuple(runs),
    )


def _describe(cell: Cell, field_name: str | None) -> str:
    parts = [f"  {cell.model:14s}"]
    if field_name is not None:
        parts.append(f"{field_name}={cell.value}")
    if cell.horizon_metrics:
        pair = cell.metric_at()
        parts.append(f"MAE={pair.mae:8.4f} RMSE={pair.rmse:8.4f}")
    if cell.imputation is not None:
        parts.append(("| " if cell.horizon_metrics else "") + f"imp {cell.imputation}")
    parts.append(f"({cell.train_seconds:.1f}s)")
    return " ".join(parts)


def run_grid(
    spec: GridSpec,
    data_config: DataConfig | None = None,
    model_config: ModelConfig | None = None,
    trainer_config: TrainerConfig | None = None,
    verbose: bool = False,
) -> Grid:
    """Run every cell of ``spec`` and return the merged :class:`Grid`."""
    base_data = replace(data_config or DataConfig(), **spec.data)
    base_model = model_config or ModelConfig()
    base_trainer = trainer_config or default_trainer_config()
    horizons = [
        h for h in (spec.horizons or [base_data.output_length])
        if h <= base_data.output_length
    ]
    score_imputation = "imp" in spec.show
    runs: dict[tuple, list[Cell]] = {}

    for i, pattern in enumerate(spec.patterns):
        for j, rate in enumerate(spec.rates):
            for seed in spec.seeds:
                data_cfg = _data_config(base_data, pattern, rate, seed)
                model_cfg = base_model if seed is None else replace(base_model, seed=seed)
                ctx = prepare_context(data_cfg, model_cfg)
                achieved = _injected_rate(ctx)
                if verbose:
                    where = pattern.name if pattern is not None else data_cfg.dataset
                    at = f" @ {rate:.0%}" if rate is not None else ""
                    print(f"{where}{at} seed {data_cfg.seed}: "
                          f"{ctx.corrupted.missing_rate:.1%} missing "
                          f"({achieved:.1%} injected)")
                for k, model in enumerate(spec.models):
                    for v, value in enumerate(spec.values):
                        run_ctx, trainer_cfg = ctx, base_trainer
                        if spec.override in _MODEL_FIELDS:
                            run_ctx = replace(ctx, model_config=replace(
                                model_cfg, **{spec.override: value}))
                        elif spec.override is not None:
                            trainer_cfg = replace(base_trainer, **{spec.override: value})
                        cell = replace(
                            run_model(model, run_ctx, trainer_cfg, horizons,
                                      score_imputation),
                            pattern=pattern.name if pattern is not None else None,
                            rate=rate if rate is not None else data_cfg.missing_rate,
                            value=value,
                            seeds=(data_cfg.seed,),
                            achieved_rate=achieved,
                        )
                        runs.setdefault((i, j, k, v), []).append(cell)
                        if verbose:
                            print(_describe(cell, spec.override))

    cells = [_merge(seed_runs) for seed_runs in runs.values()]
    if spec.baseline is not None:
        # After every model has run, so the ratio never depends on order.
        base = {
            (c.pattern, c.rate, c.value): c.metric_at().mae
            for c in cells if c.model == spec.baseline
        }
        for c in cells:
            ref = base.get((c.pattern, c.rate, c.value))
            c.ratio_vs_baseline = c.metric_at().mae / ref if ref else None
    return Grid(spec=spec, horizons=horizons, cells=cells)


# ----------------------------------------------------------------------
# One (model, context) run
# ----------------------------------------------------------------------
def _score_prediction(
    pred_scaled: np.ndarray,
    ctx: ExperimentContext,
    horizons: list[int],
    target_feature: int = 0,
) -> dict[int, MetricPair]:
    windows = ctx.test_windows
    pred = ctx.scaler.inverse_transform(pred_scaled)
    target = ctx.scaler.inverse_transform(windows.y)
    sl = slice(target_feature, target_feature + 1)
    return evaluate_horizons(
        pred[..., sl], target[..., sl], windows.y_mask[..., sl], horizons
    )


def run_model(
    name: str,
    ctx: ExperimentContext,
    trainer_config: TrainerConfig | None = None,
    horizons: list[int] | None = None,
    evaluate_imputation: bool = False,
) -> Cell:
    """Train (if needed) and evaluate one registered model or imputer.

    A classical imputer (:data:`~repro.experiments.registry.IMPUTERS`)
    only fills the held-out entries, so its cell has no prediction
    metrics. ``evaluate_imputation`` also scores a neural imputation
    model's built-in imputation.
    """
    horizons = horizons or list(DEFAULT_HORIZONS)
    horizons = [h for h in horizons if h <= ctx.data_config.output_length]
    start = time.perf_counter()

    model = build_model(name, ctx)
    if name in IMPUTERS:
        return Cell(model=name, horizon_metrics={},
                    imputation=evaluate_imputer(model, ctx),
                    train_seconds=time.perf_counter() - start)

    if is_statistical(name):
        model.fit(ctx.train.data, ctx.train.mask)
        pred = model.predict(
            ctx.test_windows.x, ctx.test_windows.m, ctx.data_config.output_length
        )
        epochs = num_parameters = 0
    else:
        trainer = Trainer(model, trainer_config)
        epochs = trainer.fit(ctx.train_windows, ctx.val_windows).num_epochs
        pred = trainer.predict(ctx.test_windows)
        num_parameters = model.num_parameters()
    metrics = _score_prediction(pred, ctx, horizons)
    imputation = None
    if evaluate_imputation and isinstance(model, RecurrentImputationForecaster):
        imputation = evaluate_model_imputation(model, ctx)
    return Cell(
        model=name,
        horizon_metrics=metrics,
        spread={h: MetricPair(0.0, 0.0) for h in metrics},
        imputation=imputation,
        train_seconds=time.perf_counter() - start,
        epochs=epochs,
        num_parameters=num_parameters,
    )


# ----------------------------------------------------------------------
# Imputation evaluation (RQ2)
# ----------------------------------------------------------------------
def _holdout_truth(ctx: ExperimentContext) -> tuple[np.ndarray, np.ndarray]:
    """(series-level holdout mask, unscaled test truth); needs a holdout."""
    if ctx.holdout_mask is None:
        raise ValueError("context was built without an imputation holdout")
    test = ctx.test
    truth = ctx.scaler.inverse_transform(
        test.truth if test.truth is not None else test.data
    )
    return ctx.holdout_mask, truth


def evaluate_imputer(imputer: Imputer, ctx: ExperimentContext) -> MetricPair:
    """Score a classical imputer on the held-out test entries.

    The imputer sees the test split with the extra 30 % holdout removed
    (in original units) and is scored on exactly those hidden entries.
    """
    holdout, truth = _holdout_truth(ctx)
    reduced = ctx.reduced_mask
    filled = imputer(ctx.scaler.inverse_transform(ctx.test.data) * reduced, reduced)
    return MetricPair(
        mae=masked_mae(filled, truth, holdout),
        rmse=masked_rmse(filled, truth, holdout),
    )


def evaluate_model_imputation(
    model: RecurrentImputationForecaster,
    ctx: ExperimentContext,
) -> MetricPair:
    """Score the model's built-in imputation on the held-out entries.

    The model imputes each test window (with the extra holdout hidden);
    overlapping window estimates are averaged back into a series, then
    compared to the ground truth on the held-out entries in original
    units — the same protocol as :func:`evaluate_imputer`.
    """
    holdout, truth = _holdout_truth(ctx)
    windows = ctx.test_holdout_windows
    acc = np.zeros(ctx.test.data.shape)
    count = np.zeros(ctx.test.data.shape)
    stride = ctx.data_config.stride
    length = ctx.data_config.input_length

    batch_size = 64
    with no_grad():
        for start in range(0, windows.num_windows, batch_size):
            sl = slice(start, start + batch_size)
            imputed = model.impute(
                windows.x[sl], windows.m[sl], windows.steps_of_day[sl]
            )
            for offset, win in enumerate(imputed):
                pos = (start + offset) * stride
                acc[pos : pos + length] += win
                count[pos : pos + length] += 1.0
    covered = count > 0
    series = np.where(covered, acc / np.maximum(count, 1.0), 0.0)
    series_unscaled = ctx.scaler.inverse_transform(series)
    holdout = holdout * covered  # only score positions some window covered
    return MetricPair(
        mae=masked_mae(series_unscaled, truth, holdout),
        rmse=masked_rmse(series_unscaled, truth, holdout),
    )

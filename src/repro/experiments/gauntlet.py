"""Missing-pattern gauntlet: a model x scenario x rate benchmark grid.

The gauntlet stresses every forecaster against the full missing-pattern
vocabulary (:mod:`repro.datasets.missing`) instead of the single MCAR
column Table I uses: uniform drops, burst blocks, spatially correlated
corridor outages, network-wide blackouts and congestion-coupled MNAR.
:func:`gauntlet` is its :class:`~repro.experiments.grid.GridSpec`: each
cell trains one model on one corrupted context and reports its error
plus the ratio against the HA baseline on the *same* corruption, so
regressions are visible independent of scenario difficulty.
:func:`gauntlet_payload` is the ``BENCH_missing_gauntlet.json`` record.

:func:`run_gauntlet_smoke` backs ``repro smoke gauntlet``: it
validates the committed record (schema, grid completeness, required
scenarios, achieved rates), proves chaos sensor drops and offline masks
share one pattern code path, and re-runs a small live subset to check
the baseline ratios have not regressed.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..datasets import MissingPattern, make_pattern
from ..training import TrainerConfig
from .config import DataConfig, ModelConfig
from .grid import Grid, GridSpec, run_grid

__all__ = [
    "default_scenarios",
    "gauntlet",
    "gauntlet_payload",
    "run_gauntlet_smoke",
    "DEFAULT_RATES",
    "DEFAULT_MODELS",
    "SMOKE_MODELS",
    "REQUIRED_KINDS",
]

#: pattern kinds the committed record must always exercise
REQUIRED_KINDS = ("corridor", "blackout", "mnar_congestion")

DEFAULT_RATES = (0.3, 0.6)
DEFAULT_MODELS = ("HA", "GCN-LSTM", "GCN-LSTM-I", "MagiNet")
#: cheap subset the CI smoke re-runs live (baseline + one mask-aware model)
SMOKE_MODELS = ("HA", "GCN-LSTM-I")
BASELINE_MODEL = "HA"


def default_scenarios(seed: int = 0) -> list[MissingPattern]:
    """The named scenario vocabulary the gauntlet runs by default.

    Rates here are placeholders — the grid re-derives each scenario at
    every requested rate via :meth:`MissingPattern.with_rate`.
    """
    return [
        make_pattern("mcar", seed=seed, name="uniform", rate=0.3),
        make_pattern("block", seed=seed, name="burst-blocks", rate=0.3),
        # corridor_size=2 keeps the achievable rate fine-grained even on
        # the 6-node fast-scale network (size 3 quantizes to 0/50/100%).
        make_pattern(
            "corridor", seed=seed, name="corridor-outage",
            rate=0.3, corridor_size=2,
        ),
        make_pattern("blackout", seed=seed, name="blackout-windows", rate=0.3),
        make_pattern(
            "mnar_congestion", seed=seed, name="congestion-mnar", rate=0.3,
        ),
    ]


def gauntlet(
    models=None,
    rates=None,
    scenarios: list[MissingPattern] | None = None,
    seed: int = 0,
) -> GridSpec:
    """The model x scenario x rate grid (scenarios default to
    :func:`default_scenarios` at ``seed``)."""
    return GridSpec(
        "gauntlet",
        tuple(models or DEFAULT_MODELS),
        rates=tuple(float(r) for r in (rates or DEFAULT_RATES)),
        patterns=tuple(scenarios if scenarios is not None
                       else default_scenarios(seed=seed)),
        layout="gauntlet",
        baseline=BASELINE_MODEL,
        title="Missing-pattern gauntlet (MAE)",
    )


def gauntlet_payload(grid: Grid) -> dict:
    """JSON payload for ``BENCH_missing_gauntlet.json``."""
    spec = grid.spec
    return {
        "baseline": spec.baseline,
        "models": list(spec.models),
        "rates": list(spec.rates),
        "scenarios": [s.to_json_dict() for s in spec.patterns],
        "grid": [
            {
                "model": c.model,
                "scenario": c.pattern,
                "rate": c.rate,
                "mae": c.metric_at().mae,
                "rmse": c.metric_at().rmse,
                "achieved_rate": c.achieved_rate,
                "train_seconds": c.train_seconds,
                "ratio_vs_baseline": c.ratio_vs_baseline,
            }
            for c in grid.cells
        ],
    }


# ----------------------------------------------------------------------
# CI smoke: validate the committed record + no-regression gate
# ----------------------------------------------------------------------
_CELL_KEYS = {"model", "scenario", "rate", "mae", "rmse", "achieved_rate"}

#: extra headroom on top of each pattern's own rate tolerance, and on the
#: committed baseline ratios (tiny contexts are noisy by construction)
RATE_SLACK = 0.05
RATIO_SLACK = 0.5
RATIO_FLOOR = 0.25


def _load_record(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_schema(record: dict) -> tuple[bool, str]:
    missing = [
        key for key in ("bench", "scale", "models", "rates", "scenarios", "grid")
        if key not in record
    ]
    if missing:
        return False, f"record missing keys: {missing}"
    bad = [
        i for i, cell in enumerate(record["grid"])
        if not _CELL_KEYS <= set(cell)
    ]
    if bad:
        return False, f"grid cells missing fields at indices {bad[:5]}"
    return True, f"{len(record['grid'])} cells"


def _check_grid_complete(record: dict) -> tuple[bool, str]:
    names = [s["name"] for s in record["scenarios"]]
    want = {
        (m, s, round(float(r), 6))
        for m in record["models"]
        for s in names
        for r in record["rates"]
    }
    have = {
        (c["model"], c["scenario"], round(float(c["rate"]), 6))
        for c in record["grid"]
    }
    if want != have:
        return False, (f"missing cells {sorted(want - have)[:3]}, "
                       f"extra {sorted(have - want)[:3]}")
    finite = all(
        np.isfinite([c["mae"], c["rmse"], c["achieved_rate"]]).all()
        for c in record["grid"]
    )
    if not finite:
        return False, "non-finite metrics in grid"
    return True, f"{len(want)} cells, all finite"


def _check_required_kinds(record: dict) -> tuple[bool, str]:
    kinds = {s["pattern"] for s in record["scenarios"]}
    absent = [k for k in REQUIRED_KINDS if k not in kinds]
    if absent:
        return False, f"record lacks required scenario kinds: {absent}"
    return True, ", ".join(sorted(kinds))


def _check_achieved_rates(record: dict) -> tuple[bool, str]:
    tolerances = {}
    for spec in record["scenarios"]:
        pattern = MissingPattern.from_json_dict(spec)
        tolerances[pattern.name] = pattern.rate_tolerance + RATE_SLACK
    worst = 0.0
    for cell in record["grid"]:
        gap = abs(cell["achieved_rate"] - cell["rate"])
        worst = max(worst, gap - tolerances[cell["scenario"]])
    if worst > 0:
        return False, f"achieved rate off target by {worst:.3f} beyond tolerance"
    return True, "all achieved rates within tolerance"


def _check_shared_mask_path(record: dict) -> tuple[bool, str]:
    """Chaos sensor drops and offline masks come from one pattern object.

    Rebuilds a sensor-dropping scenario from the committed record, renders
    the offline mask, wraps the *same* scenario JSON in a
    :class:`~repro.reliability.FaultPlan`, and requires the chaos-resolved
    dropped sensors to be exactly the offline mask's fully dark sensors.
    """
    from ..reliability import FaultPlan

    spec = next(
        (s for s in record["scenarios"] if s["pattern"] == "corridor"),
        record["scenarios"][0],
    )
    pattern = MissingPattern.from_json_dict(spec)
    num_nodes, steps = 8, 48
    offline = pattern.mask((steps, num_nodes, 1))
    dark = {
        n for n in range(num_nodes)
        if float(offline[:, n].max()) == 0.0
    }
    plan = FaultPlan(dropped_sensors=spec)
    resolved = set(plan.injector().resolve_dropped(num_nodes))
    if resolved != dark:
        return False, (f"chaos drops {sorted(resolved)} != offline dark "
                       f"sensors {sorted(dark)} for {pattern.name}")
    return True, f"{pattern.name}: {sorted(resolved)} on both paths"


def run_gauntlet_smoke(
    record_path: str,
    data_config: DataConfig | None = None,
    model_config: ModelConfig | None = None,
    trainer_config: TrainerConfig | None = None,
    live: bool = True,
    verbose: bool = False,
) -> dict:
    """Validate the committed gauntlet record; optionally re-run a subset.

    Returns ``{"passed", "checks", "details", ...}``; ``checks`` maps
    check name to pass/fail and ``details`` carries one line each.
    ``verbose`` prints the live re-run's progress.
    """
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}

    def run_check(name: str, fn, *args) -> bool:
        try:
            ok, detail = fn(*args)
        except Exception as error:  # a broken record must fail, not crash
            ok, detail = False, f"{type(error).__name__}: {error}"
        checks[name] = ok
        details[name] = detail
        return ok

    report: dict = {"record_path": os.path.abspath(record_path)}
    if not run_check(
        "record_loads",
        lambda p: (_load_record(p) is not None, p),
        record_path,
    ):
        report.update(passed=False, checks=checks, details=details)
        return report
    record = _load_record(record_path)

    schema_ok = run_check("record_schema", _check_schema, record)
    if schema_ok:
        run_check("grid_complete", _check_grid_complete, record)
        run_check("required_scenarios", _check_required_kinds, record)
        run_check("achieved_rates", _check_achieved_rates, record)
        run_check("shared_mask_path", _check_shared_mask_path, record)

    if schema_ok and live:
        models = [m for m in SMOKE_MODELS if m in record["models"]]
        rate = float(record["rates"][0])
        scenarios = [
            MissingPattern.from_json_dict(s) for s in record["scenarios"]
            if s["pattern"] in REQUIRED_KINDS
        ]
        result = run_grid(
            gauntlet(models, [rate], scenarios),
            data_config, model_config, trainer_config, verbose,
        )
        committed = {
            (c["model"], c["scenario"], round(float(c["rate"]), 6)): c
            for c in record["grid"]
        }
        regressions = []
        for cell in result.cells:
            if cell.ratio_vs_baseline is None:
                continue
            ref = committed.get(
                (cell.model, cell.pattern, round(cell.rate, 6))
            )
            if ref is None or ref.get("ratio_vs_baseline") is None:
                continue
            bound = ref["ratio_vs_baseline"] * (1.0 + RATIO_SLACK) + RATIO_FLOOR
            if cell.ratio_vs_baseline > bound:
                regressions.append(
                    f"{cell.model}/{cell.pattern}@{cell.rate:.0%}: "
                    f"{cell.ratio_vs_baseline:.2f}x > bound {bound:.2f}x"
                )
        checks["no_regression"] = not regressions
        details["no_regression"] = (
            "; ".join(regressions) if regressions
            else f"{len(result.cells)} live cells within bounds"
        )
        report["live"] = gauntlet_payload(result)

    report.update(
        passed=all(checks.values()), checks=checks, details=details
    )
    return report

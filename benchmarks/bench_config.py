"""Shared configuration for the benchmark suite.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:

* ``fast``  — minutes-long smoke scale (fewest models/epochs);
* ``small`` — default; reproduces every trend in a few minutes per bench;
* ``full``  — all 11 models, more data and epochs (tens of minutes per
  bench; closest to the paper's relative numbers).

Each bench prints the same rows/series the paper reports, so running
``pytest benchmarks/ -m bench -s`` regenerates the tables. Benches are
marked ``bench`` and excluded from the default pytest run.

Besides the printed tables, benches emit machine-readable
``BENCH_<name>.json`` records via :func:`emit_bench_record` into
``REPRO_BENCH_OUT`` (default: this directory), so perf trajectories can
be tracked across commits.
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.experiments import DataConfig, ModelConfig, default_trainer_config

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
if SCALE not in ("fast", "small", "full"):
    raise ValueError(f"REPRO_BENCH_SCALE must be fast|small|full, got {SCALE!r}")

_PEMS_DATA = {
    "fast": dict(num_nodes=6, num_days=4, stride=6),
    "small": dict(num_nodes=10, num_days=6, stride=3),
    "full": dict(num_nodes=16, num_days=10, stride=1),
}
_STAMPEDE_DATA = {
    "fast": dict(num_days=6, stride=6),
    "small": dict(num_days=10, stride=3),
    "full": dict(num_days=21, stride=1),
}
_MODEL = {
    "fast": dict(embed_dim=8, hidden_dim=16, num_graphs=3, partition_downsample=8),
    "small": dict(embed_dim=16, hidden_dim=32, num_graphs=4, partition_downsample=12),
    "full": dict(embed_dim=32, hidden_dim=64, num_graphs=4, partition_downsample=16),
}
_EPOCHS = {"fast": 4, "small": 10, "full": 30}

#: model subsets per scale (full = the paper's entire comparison set)
PREDICTION_MODELS = {
    "fast": ["HA", "GCN-LSTM", "GCN-LSTM-I", "RIHGCN"],
    "small": ["HA", "VAR", "FC-LSTM", "GCN-LSTM", "Graph WaveNet",
              "FC-LSTM-I", "GCN-LSTM-I", "RIHGCN"],
    "full": ["HA", "VAR", "ASTGCN", "Graph WaveNet", "FC-LSTM", "FC-GCN",
             "GCN-LSTM", "FC-LSTM-I", "FC-GCN-I", "GCN-LSTM-I", "RIHGCN"],
}[SCALE]


def pems_data_config(**overrides) -> DataConfig:
    kwargs = dict(_PEMS_DATA[SCALE])
    kwargs.update(overrides)
    return DataConfig(dataset="pems", **kwargs)


def stampede_data_config(**overrides) -> DataConfig:
    kwargs = dict(_STAMPEDE_DATA[SCALE])
    kwargs.update(overrides)
    return DataConfig(dataset="stampede", missing_rate=None, **kwargs)


def model_config(**overrides) -> ModelConfig:
    kwargs = dict(_MODEL[SCALE])
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def trainer_config(**overrides):
    kwargs = dict(max_epochs=_EPOCHS[SCALE], patience=4)
    kwargs.update(overrides)
    return default_trainer_config(**kwargs)


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def cell_record(cell) -> dict:
    """Flatten one :class:`~repro.experiments.Cell` for a bench record."""
    return {
        "model": cell.model,
        "rate": cell.rate,
        "train_seconds": cell.train_seconds,
        "num_parameters": cell.num_parameters,
        "epochs": cell.epochs,
        "metrics": {
            str(h): {"mae": pair.mae, "rmse": pair.rmse}
            for h, pair in cell.horizon_metrics.items()
        },
    }


def emit_bench_record(name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    ``payload`` is merged over a standard envelope (bench name, scale,
    timestamp, platform), so every record is self-describing.
    """
    out_dir = os.environ.get("REPRO_BENCH_OUT", os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "bench": name,
        "scale": SCALE,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    record.update(payload)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return path

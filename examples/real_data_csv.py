"""Running RIHGCN on real CSV data (METR-LA-style format).

Demonstrates the path a downstream user takes with their own feed:

1. export readings to CSV (one column per sensor, blank cells = missing)
   and distances to CSV (dense matrix or `from,to,distance` edge list);
2. load with :func:`repro.datasets.load_csv_dataset`;
3. run the identical pipeline the paper experiments use.

Since this repository is offline, the "real" CSVs are first exported from
the simulator — the loading path is exactly what real data would follow.

Usage::

    python examples/real_data_csv.py
"""

import csv
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.datasets import (
    ZScoreScaler,
    load_csv_dataset,
    make_pattern,
    make_pems_dataset,
    make_windows,
)
from repro.graphs import PartitionConfig, build_heterogeneous_graphs
from repro.models import rihgcn
from repro.training import EpochLogger, Trainer, TrainerConfig


def export_csvs(directory: Path) -> tuple[Path, Path]:
    """Write simulator output in the community CSV format."""
    dataset = make_pems_dataset(num_nodes=8, num_days=5, seed=3)
    corrupted = dataset.with_mask(
        make_pattern("mcar", rate=0.3, seed=4).mask(dataset.data.shape)
    )
    readings_path = directory / "speeds.csv"
    with open(readings_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        names = [f"sensor_{i}" for i in range(corrupted.num_nodes)]
        writer.writerow(["timestamp", *names])
        for t in range(corrupted.num_steps):
            row = [str(t)]
            for i in range(corrupted.num_nodes):
                if corrupted.mask[t, i, 0] > 0:
                    row.append(f"{corrupted.data[t, i, 0]:.3f}")
                else:
                    row.append("")  # missing reading
            writer.writerow(row)

    distances_path = directory / "distances.csv"
    with open(distances_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["from", "to", "distance"])
        dist = dataset.network.distances
        for i in range(corrupted.num_nodes):
            for j in range(i + 1, corrupted.num_nodes):
                writer.writerow([f"sensor_{i}", f"sensor_{j}", f"{dist[i, j]:.4f}"])
    return readings_path, distances_path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        readings_path, distances_path = export_csvs(Path(tmp))
        print(f"exported CSVs to {tmp}")

        dataset = load_csv_dataset(
            readings_path, distances_path, steps_per_day=288,
            name="metr-la-style",
        )
        print(f"loaded: {dataset.name}  T={dataset.num_steps} "
              f"N={dataset.num_nodes}  missing={dataset.missing_rate:.1%}")

        train_raw, val_raw, test_raw = dataset.chronological_split()
        scaler = ZScoreScaler().fit(train_raw.data, train_raw.mask)

        def scale(ds):
            return replace(ds, data=scaler.transform(ds.data, ds.mask))

        train, val, test = scale(train_raw), scale(val_raw), scale(test_raw)
        graphs = build_heterogeneous_graphs(
            train.data, train.mask, dataset.network.distances,
            steps_per_day=288, num_intervals=3,
            partition_config=PartitionConfig(num_intervals=3, downsample_to=8),
        )
        model = rihgcn(
            graphs=graphs, input_length=12, output_length=12,
            num_nodes=dataset.num_nodes, num_features=1,
            embed_dim=12, hidden_dim=24, seed=0,
        )
        trainer = Trainer(model, TrainerConfig(max_epochs=6))
        trainer.fit(make_windows(train, stride=3), make_windows(val, stride=3),
                    callbacks=[EpochLogger()])
        report = trainer.evaluate(make_windows(test, stride=3), scaler=scaler,
                                  target_feature=0)
        # Real data has no simulator truth: metrics cover observed targets.
        print(f"\ntest (observed targets only): MAE={report.mae:.3f} RMSE={report.rmse:.3f}")


if __name__ == "__main__":
    main()

"""Quickstart: train RIHGCN on PeMS-like data with 40% missing values.

Runs in ~1-2 minutes on a laptop CPU. Walks through the full public API:
build data -> inject missingness -> scale -> window -> build heterogeneous
graphs -> train with the joint loss -> evaluate forecast and imputation.

Usage::

    python examples/quickstart.py
"""

from dataclasses import replace

from repro.datasets import ZScoreScaler, make_pattern, make_pems_dataset, make_windows
from repro.graphs import PartitionConfig, build_heterogeneous_graphs
from repro.models import rihgcn
from repro.training import EpochLogger, Trainer, TrainerConfig


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Data: a synthetic PeMS-like freeway corridor (see DESIGN.md for
    #    why the simulator stands in for the real district-07 feed).
    # ------------------------------------------------------------------
    dataset = make_pems_dataset(num_nodes=10, num_days=6, seed=0)
    print(f"dataset: {dataset.name}  T={dataset.num_steps} N={dataset.num_nodes} "
          f"D={dataset.num_features}")

    # 2. Drop 40% of the historical values uniformly at random (Table I).
    pattern = make_pattern("mcar", rate=0.4, seed=1)
    corrupted = dataset.with_mask(pattern.mask(dataset.data.shape))
    print(f"injected missing rate: {corrupted.missing_rate:.1%}")

    # 3. Chronological 7:2:1 split, Z-score scaling fit on observed train.
    train_raw, val_raw, test_raw = corrupted.chronological_split()
    scaler = ZScoreScaler().fit(train_raw.data, train_raw.mask)

    def scale(ds):
        return replace(ds, data=scaler.transform(ds.data, ds.mask),
                       truth=scaler.transform(ds.truth))

    train, val, test = scale(train_raw), scale(val_raw), scale(test_raw)

    # 4. Sliding windows: 12 steps (1 h) in -> 12 steps out.
    windows = dict(input_length=12, output_length=12, stride=2)
    train_w = make_windows(train, **windows)
    val_w = make_windows(val, **windows)
    test_w = make_windows(test, **windows)
    print(f"windows: train={train_w.num_windows} val={val_w.num_windows} "
          f"test={test_w.num_windows}")

    # 5. Heterogeneous graphs from *training* history: geographic graph +
    #    M=4 temporal graphs over DTW-optimized time intervals (Eq. 2).
    graphs = build_heterogeneous_graphs(
        train.data, train.mask, dataset.network.distances,
        steps_per_day=dataset.steps_per_day, num_intervals=4,
        partition_config=PartitionConfig(num_intervals=4, downsample_to=12),
    )
    hours = [b * 24 / dataset.steps_per_day for b in graphs.partition.boundaries]
    print(f"timeline intervals start at hours: {[f'{h:.0f}' for h in hours]}")

    # 6. The model: bidirectional recurrent imputation + HGCN + LSTM.
    model = rihgcn(
        graphs=graphs, input_length=12, output_length=12,
        num_nodes=dataset.num_nodes, num_features=dataset.num_features,
        embed_dim=16, hidden_dim=32, seed=0,
    )
    print(f"RIHGCN parameters: {model.num_parameters():,}")

    # 7. Train with the joint objective L = L_c + lambda * L_m.
    trainer = Trainer(model, TrainerConfig(max_epochs=10, patience=4,
                                           imputation_weight=1.0))
    trainer.fit(train_w, val_w, callbacks=[EpochLogger()])

    # 8. Evaluate the forecast in mph on the average-speed channel.
    report = trainer.evaluate(test_w, scaler=scaler, target_feature=0)
    print(f"\ntest forecast (60-min horizon): MAE={report.mae:.3f} mph  "
          f"RMSE={report.rmse:.3f} mph")

    # 9. Use the built-in imputation to fill one window's missing history.
    filled = model.impute(test_w.x[:1], test_w.m[:1], test_w.steps_of_day[:1])
    n_missing = int((test_w.m[:1] == 0).sum())
    print(f"imputed {n_missing} missing history entries in the first test window")


if __name__ == "__main__":
    main()

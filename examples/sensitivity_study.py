"""Hyper-parameter sensitivity study (extends the paper's RQ3/RQ4).

Sweeps three knobs of RIHGCN on one PeMS-like context and prints the
sensitivity curves:

* Chebyshev order K (paper fixes K=3);
* LSTM hidden size (paper: 128);
* the imputation-loss weight lambda (Fig. 5's sweep; a TrainerConfig
  field sweeps the same way as a ModelConfig one).

Usage::

    python examples/sensitivity_study.py [--epochs 8]
"""

import argparse

from repro.experiments import (
    DataConfig,
    ModelConfig,
    default_trainer_config,
    run_grid,
    sweep,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    data_cfg = DataConfig(num_nodes=8, num_days=5, stride=4, missing_rate=0.4)
    model_cfg = ModelConfig(embed_dim=12, hidden_dim=24, num_graphs=3,
                            partition_downsample=8)
    trainer_cfg = default_trainer_config(max_epochs=args.epochs)

    studies = [
        ("cheb_order", [1, 2, 3], "Chebyshev order K (paper uses K=3)"),
        ("hidden_dim", [8, 24, 48], "LSTM hidden size"),
        ("imputation_weight", [0.001, 1.0, 10.0], "lambda (cf. Fig. 5)"),
    ]
    for field, values, label in studies:
        print(f"sweeping {label} ...")
        grid = run_grid(sweep(field, values, model="RIHGCN"),
                        data_cfg, model_cfg, trainer_cfg, verbose=True)
        print(grid.render(f"RIHGCN prediction error vs {label}"))
        best = min(grid.cells, key=lambda cell: cell.metric_at().mae)
        print(f"best {field} = {best.value}\n")


if __name__ == "__main__":
    main()

"""Table-I-style study: how missing data hurts each model family.

Compares a statistical baseline (HA), a mean-filled spatio-temporal model
(GCN-LSTM), its imputation-enhanced variant (GCN-LSTM-I), and the full
RIHGCN across missing rates — the paper's central comparison, scaled to a
few minutes of CPU.

Usage::

    python examples/pems_missing_rates.py [--rates 0.2 0.6] [--epochs 10]
"""

import argparse

from repro.experiments import (
    DataConfig,
    ModelConfig,
    default_trainer_config,
    run_grid,
    table1_missing,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rates", type=float, nargs="+", default=[0.2, 0.6])
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument(
        "--models", nargs="+",
        default=["HA", "GCN-LSTM", "GCN-LSTM-I", "RIHGCN"],
    )
    args = parser.parse_args()

    grid = run_grid(
        table1_missing(args.models, args.rates),
        DataConfig(num_nodes=10, num_days=6, stride=3),
        ModelConfig(embed_dim=16, hidden_dim=32, num_graphs=4),
        default_trainer_config(max_epochs=args.epochs),
        verbose=True,
    )
    print()
    print(grid.render("PeMS-like prediction error (60-min horizon) by missing rate"))
    print(
        "\nExpected shape (paper Table I): RIHGCN < GCN-LSTM-I < GCN-LSTM < HA,"
        "\nwith the gaps widening as the missing rate grows."
    )


if __name__ == "__main__":
    main()

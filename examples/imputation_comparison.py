"""RQ2 scenario: comparing imputation methods on traffic data.

Hides 30% of the observed test entries and scores each method on exactly
those entries — classical imputers (Mean/Last/Interp/KNN/MF/TD) against
RIHGCN's jointly-trained recurrent imputation.

Usage::

    python examples/imputation_comparison.py [--rates 0.4 0.8]
"""

import argparse

from repro.experiments import (
    DataConfig,
    ModelConfig,
    default_trainer_config,
    rq2,
    run_grid,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rates", type=float, nargs="+", default=[0.4])
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    grid = run_grid(
        rq2(args.rates),
        DataConfig(num_nodes=10, num_days=6, stride=3),
        ModelConfig(embed_dim=16, hidden_dim=32, num_graphs=4),
        # Imputation-heavy lambda per Fig. 5 (imputation improves with
        # lambda; 5 is still inside the good prediction basin).
        default_trainer_config(max_epochs=args.epochs, imputation_weight=5.0),
        verbose=True,
    )
    print()
    print(grid.render("Imputation MAE/RMSE (mph) on held-out observed entries"))
    print(
        "\nExpected shape (paper RQ2): the learned joint imputation beats"
        "\nLast/KNN/MF/TD, with a growing margin at higher missing rates."
    )


if __name__ == "__main__":
    main()

"""Deployment-style analysis of a trained forecaster.

Trains RIHGCN once, then breaks its test error down the way a traffic
operations team would inspect it:

* error vs forecast step (how fast does quality decay over the hour?);
* error per road segment (which sensors are hard?);
* error stratified by how incomplete the input window was (the paper's
  robustness-to-missingness claim, measured per window);
* bundle round-trip (export the trained model, reload, verify).

Usage::

    python examples/forecast_analysis.py
"""

import os
import tempfile

import numpy as np

from repro.autodiff import no_grad
from repro.experiments import (
    DataConfig,
    ModelConfig,
    build_model,
    default_trainer_config,
    prepare_context,
)
from repro.serve import export_bundle, load_bundle
from repro.training import (
    Trainer,
    error_by_missingness,
    per_node_metrics,
    per_step_metrics,
)


def main() -> None:
    data_cfg = DataConfig(num_nodes=10, num_days=6, stride=3, missing_rate=0.5)
    model_cfg = ModelConfig(embed_dim=16, hidden_dim=32, num_graphs=4)
    ctx = prepare_context(data_cfg, model_cfg)

    print("training RIHGCN at 50% missing ...")
    model = build_model("RIHGCN", ctx)
    trainer = Trainer(model, default_trainer_config(max_epochs=10))
    trainer.fit(ctx.train_windows, ctx.val_windows)

    windows = ctx.test_windows
    pred = ctx.scaler.inverse_transform(trainer.predict(windows))
    target = ctx.scaler.inverse_transform(windows.y)
    mask = windows.y_mask

    print("\nerror by forecast step (minutes ahead):")
    for i, pair in enumerate(per_step_metrics(pred, target, mask)):
        minutes = (i + 1) * 5
        bar = "#" * int(pair.mae * 8)
        print(f"  +{minutes:3d} min  MAE={pair.mae:6.3f}  {bar}")

    print("\nerror by road segment (cluster in parentheses):")
    clusters = ctx.raw.metadata.get("clusters", ["?"] * ctx.num_nodes)
    for node, pair in enumerate(per_node_metrics(pred, target, mask)):
        print(f"  node {node:2d} ({clusters[node]:8s})  MAE={pair.mae:6.3f}")

    print("\nerror by input-window completeness:")
    for missing_rate, pair in error_by_missingness(
        pred, target, mask, windows.m, bins=3
    ):
        print(f"  ~{missing_rate:5.1%} of history missing -> MAE={pair.mae:6.3f}")

    # Bundle round-trip: the serving format is the one on-disk weight format.
    with tempfile.TemporaryDirectory() as tmp:
        path = export_bundle(model, "RIHGCN", ctx, os.path.join(tmp, "rihgcn"))
        clone = load_bundle(path).model
        with no_grad():
            a = model(windows.x[:4], windows.m[:4], windows.steps_of_day[:4])
            b = clone(windows.x[:4], windows.m[:4], windows.steps_of_day[:4])
    assert np.array_equal(a.prediction.data, b.prediction.data)
    print("\nbundle round-trip OK (forecasts identical)")


if __name__ == "__main__":
    main()

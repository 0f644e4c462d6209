"""The training layers, traced in a trainer child process.

Training has no workload of its own (README.md says why): the traced
``stream-fresh`` run calls :func:`traced`, which launches this file as a
script. The child generates the data, builds RIHGCN and trains
``EPOCHS`` epochs with early stopping off, with timing wrappers around
the training layers; it writes the per-epoch layer medians and the
validation losses to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import stats

#: epochs of the traced training pass
EPOCHS = 6

#: span name -> per-epoch metric; spans inside validation count only there.
_EPOCH_LAYERS = {"train.loader": "train.loader_s", "train.forward": "train.forward_s",
                 "train.backward": "train.backward_s", "train.clip": "train.clip_s",
                 "train.optim": "train.optim_s", "train.validate": "train.validate_s"}


def child(seed: int, epochs: int, out: str) -> None:
    from dataclasses import replace

    import serving
    import spans as spanlib
    from repro.experiments import build_model, default_trainer_config, prepare_context
    from repro.telemetry import Callback
    from repro.training import Trainer

    recorder = spanlib.SpanRecorder()
    spanlib.install(recorder, spanlib.TRAIN_LAYERS)
    ctx = prepare_context(*serving.configs())
    model = build_model("RIHGCN", ctx)

    class Epochs(Callback):
        def __init__(self):
            self.spans = []

        def on_epoch_start(self, trainer, epoch):
            self.spans.append([time.perf_counter(), None])

        def on_epoch_end(self, trainer, epoch, logs):
            self.spans[-1][1] = time.perf_counter()

    # The seed orders the batches; early stopping is off (patience > epochs).
    config = replace(default_trainer_config(max_epochs=epochs), patience=epochs + 1, seed=seed)
    timer = Epochs()
    history = Trainer(model, config).fit(ctx.train_windows, ctx.val_windows, callbacks=[timer])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"layers": epoch_layers(recorder.spans, timer.spans),
                   "val_loss": list(history.val_loss)}, handle)


def epoch_layers(spans: list, epochs: list) -> dict:
    """Median per-epoch seconds in each training layer, and the median epoch."""
    validate = [s for s in spans if s["name"] == "train.validate"]
    per_epoch = {name: [] for name in _EPOCH_LAYERS.values()}
    for start, end in epochs:
        totals = dict.fromkeys(_EPOCH_LAYERS.values(), 0.0)
        for span in spans:
            metric = _EPOCH_LAYERS.get(span["name"])
            if metric is None or not (start <= span["start"] and span["end"] <= end):
                continue
            nested = span["name"] != "train.validate" and any(
                v["start"] <= span["start"] and span["end"] <= v["end"] for v in validate)
            if not nested:
                totals[metric] += span["end"] - span["start"]
        for metric, value in totals.items():
            per_epoch[metric].append(value)
    layers = {metric: stats.median(values) for metric, values in per_epoch.items()}
    layers["train.epoch_s"] = stats.median([end - start for start, end in epochs])
    return layers


def traced(root: str, seed: int, workdir: str) -> dict:
    """Run the traced training pass; returns ``{"layers", "val_loss"}``."""
    out = os.path.join(workdir, "train-traced.json")
    argv = [sys.executable, os.path.join(root, "perfbench", "training.py"),
            "--seed", str(seed), "--epochs", str(EPOCHS), "--out", out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")])
    with open(os.path.join(workdir, "train.log"), "ab") as log:
        subprocess.run(argv, stdout=log, stderr=log, env=env, cwd=root, check=True,
                       timeout=120)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    child(args.seed, args.epochs, args.out)

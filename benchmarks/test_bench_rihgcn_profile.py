"""Instrumented RIHGCN training run: epoch timings + autodiff hotspots.

Unlike the table/figure benches (which reproduce paper numbers), this
bench characterises *where the time goes*: it trains the headline model
with the telemetry stack attached and emits a ``BENCH_rihgcn_profile.json``
record with per-epoch seconds, losses, the per-op profile of one epoch,
the dtype policy, and allocation totals.

It is also the perf gate for the float32 hot-path work: at ``small``
scale under the default float32 policy it asserts

* steady-state epochs are >= ``SPEEDUP_FLOOR`` times faster than the
  frozen float64 baseline below (measured on the same machine class),
* the val-loss trajectory stays within 2% relative of the float64 run,
* the fused LSTM gate split actually removed the sliced ``getitem``
  traffic, and matmul allocates less than the float64 run,
* (CI smoke) epoch time has not regressed more than
  ``REPRO_BENCH_TOLERANCE`` (default 10%) against the committed
  ``BENCH_rihgcn_profile.json`` record at the same scale.
"""

import json
import os

import numpy as np
import pytest

from bench_config import SCALE, emit_bench_record, model_config, pems_data_config, trainer_config

from repro.autodiff import default_dtype
from repro.experiments import build_model, prepare_context
from repro.telemetry import JSONLRunRecorder, Profiler
from repro.training import Trainer

pytestmark = pytest.mark.bench

MISSING_RATE = 0.4
EPOCHS = {"fast": 2, "small": 4, "full": 8}[SCALE]

#: minimum steady-state speedup over the float64 baseline (ISSUE 4 bar)
SPEEDUP_FLOOR = 1.5

#: frozen float64 run (scale="small", same machine class) — the numbers
#: committed in BENCH_rihgcn_profile.json before the float32 policy landed.
BASELINE_FLOAT64 = {
    "scale": "small",
    "dtype": "float64",
    "epoch_seconds": [2.399956, 1.585901, 1.579866, 1.532634],
    "val_loss": [1.706379, 1.536266, 1.415848, 1.325787],
    "matmul_alloc_bytes": 387663360,
    "getitem_calls": 864,
    "num_parameters": 71384,
}


def _steady_mean(epoch_seconds):
    """Mean epoch time excluding the first (cache-warming) epoch."""
    tail = epoch_seconds[1:] if len(epoch_seconds) > 1 else epoch_seconds
    return sum(tail) / len(tail)


def _committed_record():
    """The checked-in bench record next to this file, if any."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_rihgcn_profile.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def test_rihgcn_profile(tmp_path):
    ctx = prepare_context(
        pems_data_config(missing_rate=MISSING_RATE), model_config()
    )
    model = build_model("RIHGCN", ctx)
    trainer = Trainer(model, trainer_config(max_epochs=EPOCHS))
    profiler = Profiler(epoch=1, top=None)
    recorder = JSONLRunRecorder(
        str(tmp_path / "rihgcn_profile.jsonl"),
        extra={"dataset": "pems", "missing_rate": MISSING_RATE},
    )
    history = trainer.fit(
        ctx.train_windows, ctx.val_windows, callbacks=[recorder, profiler]
    )

    assert history.num_epochs >= 2
    assert profiler.report_text is not None
    all_stats = profiler.profiler.as_dict()
    hotspots = all_stats[:12]
    assert hotspots and hotspots[0]["calls"] > 0
    by_op = {row["op"]: row for row in all_stats}
    profile_totals = {
        "alloc_bytes": sum(row["alloc_bytes"] for row in all_stats),
        "peak_bytes": max(row["peak_bytes"] for row in all_stats),
    }
    dtype = str(np.dtype(default_dtype()))
    steady = _steady_mean(history.epoch_seconds)

    print()
    print(f"RIHGCN {history.num_epochs} epochs ({dtype}), "
          f"mean epoch {sum(history.epoch_seconds) / history.num_epochs:.2f}s, "
          f"steady {steady:.2f}s, "
          f"alloc {profile_totals['alloc_bytes'] / 1e6:.0f}MB")
    print(profiler.report_text)

    emit_bench_record("rihgcn_profile", {
        "model": "RIHGCN",
        "dataset": "pems",
        "missing_rate": MISSING_RATE,
        "dtype": dtype,
        "num_parameters": model.num_parameters(),
        "epochs": history.num_epochs,
        "epoch_seconds": list(history.epoch_seconds),
        "steady_epoch_seconds": steady,
        "train_loss": list(history.train_loss),
        "val_loss": list(history.val_loss),
        "final_train_loss": history.train_loss[-1],
        "profile_totals": profile_totals,
        "op_hotspots": hotspots,
        "baseline_float64": BASELINE_FLOAT64,
    })

    # Structural, at every scale: the profiler times every op it counts,
    # including the ones defined outside Tensor's methods.
    untimed = [row["op"] for row in all_stats if row["forward_seconds"] <= 0]
    assert not untimed, f"profiled ops with no forward time: {untimed}"

    # ---- perf gates (same configuration as the frozen baseline) ------
    if SCALE != BASELINE_FLOAT64["scale"] or dtype != "float32":
        return

    # The fused kernels must show up structurally regardless of timing:
    # the LSTM gate reads no longer go through sliced getitem, and the
    # ChebConv K-hop loop is one fused op.
    assert "split" in by_op, "fused LSTM gate split missing from profile"
    assert "cheb_propagate" in by_op, "fused ChebConv propagation missing"
    getitem_calls = by_op.get("getitem", {}).get("calls", 0)
    assert getitem_calls < BASELINE_FLOAT64["getitem_calls"], (
        f"getitem calls did not drop: {getitem_calls} vs float64 "
        f"baseline {BASELINE_FLOAT64['getitem_calls']}"
    )
    matmul_alloc = by_op["matmul"]["alloc_bytes"]
    assert matmul_alloc < BASELINE_FLOAT64["matmul_alloc_bytes"], (
        f"matmul alloc_bytes did not drop: {matmul_alloc} vs "
        f"{BASELINE_FLOAT64['matmul_alloc_bytes']}"
    )

    # Accuracy guard: float32 must track the float64 val-loss trajectory.
    for epoch, (got, want) in enumerate(
        zip(history.val_loss, BASELINE_FLOAT64["val_loss"])
    ):
        rel = abs(got - want) / abs(want)
        assert rel <= 0.02, (
            f"epoch {epoch} val_loss {got:.4f} deviates {rel:.1%} from "
            f"float64 baseline {want:.4f} (>2%)"
        )

    # Wall-clock gates are skippable on exotic hardware via a huge
    # tolerance, but run by default (including the CI smoke job).
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.10"))
    baseline_steady = _steady_mean(BASELINE_FLOAT64["epoch_seconds"])
    speedup = baseline_steady / steady
    print(f"steady-state speedup vs float64 baseline: {speedup:.2f}x")
    assert speedup >= SPEEDUP_FLOOR or tolerance > 10.0, (
        f"steady epoch {steady:.3f}s is only {speedup:.2f}x faster than "
        f"the float64 baseline {baseline_steady:.3f}s (< {SPEEDUP_FLOOR}x)"
    )

    committed = _committed_record()
    if committed is None or committed.get("scale") != SCALE:
        return
    committed_steady = _steady_mean(committed["epoch_seconds"])
    if committed.get("dtype", "float64") != dtype:
        return  # committed record predates the policy switch; no regression gate
    assert steady <= committed_steady * (1.0 + tolerance), (
        f"epoch time regressed >{tolerance:.0%}: steady {steady:.3f}s vs "
        f"committed {committed_steady:.3f}s"
    )

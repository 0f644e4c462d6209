"""Serving-path load benchmark: micro-batching and no-grad dividends.

Two comparisons on the RIHGCN profile configuration, emitted as
``BENCH_serve_latency.json``:

* **no-grad forward vs grad-mode forward** — the inference fast path
  skips backward-closure and auxiliary-array allocation, so a single
  forward should be measurably faster;
* **micro-batched vs sequential serving** — the same closed-loop client
  workload against a fusing engine (``max_batch_size=8``) and a
  one-forward-per-request baseline; batching amortises per-call autodiff
  dispatch across the ``(B, L, N, D)`` kernels and should carry ≥2×
  the throughput;
* **planned replay vs eager no-grad forward** — the compiled execution
  plan replays the same forward with zero Tensor allocation and zero
  graph construction; the acceptance target is ≥2× on p50;
* **int8 vs float32 forecasts** — the quantized bundle must stay within
  the 1 % relative-MAE accuracy gate of its float32 source;
* **shadow-on vs shadow-off live latency** — a 100 % mirror fraction
  shadow deployment replays every live forecast against a candidate
  engine off the request path; the live p50 must not move by more than
  a few percent (the on-path cost is one ``put_nowait``).

Latency percentiles come from the load generator's per-request
wall-clock measurements (p50/p95/p99 in milliseconds). The planned p50
is additionally gated against the committed ``BENCH_serve_latency.json``
record at the same scale (``REPRO_BENCH_TOLERANCE``, default 10 %).
"""

import json
import os
import time

import numpy as np
import pytest

from bench_config import SCALE, emit_bench_record, model_config, pems_data_config

from repro.autodiff import no_grad, trace
from repro.experiments import build_model, prepare_context
from repro.serve import (
    export_bundle,
    load_bundle,
    quantization_mae_drift,
    quantize_bundle,
)
from repro.serve.loadgen import compare_batched_sequential

pytestmark = pytest.mark.bench

MISSING_RATE = 0.4
CLIENTS = {"fast": 4, "small": 8, "full": 8}[SCALE]
REQUESTS = {"fast": 10, "small": 25, "full": 60}[SCALE]
FORWARD_REPEATS = {"fast": 5, "small": 10, "full": 20}[SCALE]
PLAN_REPEATS = {"fast": 10, "small": 30, "full": 60}[SCALE]
SHADOW_ROUNDS = {"fast": 20, "small": 40, "full": 80}[SCALE]
QUANT_GATE = 0.01


def _committed_record():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_serve_latency.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _latencies_ms(fn, repeats):
    fn()  # warm-up outside the timed region
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        out.append((time.perf_counter() - start) * 1e3)
    return out


def _drive_live(pool, tenant, rounds, seed, start_step, pace_s):
    """Observe-then-forecast ``rounds`` times; per-forecast latency in ms.

    Each round writes one full-network reading so every forecast is a
    cache miss (a real model forward), then sleeps ``pace_s`` to model
    steady-state traffic below saturation. The pacing matters: mirror
    replays are designed to soak up slack capacity between requests, so
    a back-to-back closed loop would measure CPU saturation, not the
    on-path cost of mirroring (one ``put_nowait``).
    """
    runtime = pool.runtime(tenant)
    n, d = runtime.store.num_nodes, runtime.store.num_features
    rng = np.random.default_rng(seed)
    latencies = []
    for index in range(rounds):
        pool.observe(tenant, start_step + index,
                     rng.normal(60.0, 5.0, size=(n, d)))
        start = time.perf_counter()
        result = pool.forecast(tenant)
        latencies.append((time.perf_counter() - start) * 1e3)
        assert result.degraded is None
        time.sleep(pace_s)
        # absorb any replay that outlived the pace window, so one round's
        # mirror work never contends with the next round's live forward
        # (no-op while no shadow is attached)
        pool.drain_shadow(timeout=10.0)
    return latencies


def _time_forward(model, x, m, steps, repeats):
    model(x, m, steps)  # warm-up outside the timed region
    start = time.perf_counter()
    for _ in range(repeats):
        model(x, m, steps)
    return (time.perf_counter() - start) / repeats * 1e3


def test_serve_latency(tmp_path):
    ctx = prepare_context(pems_data_config(missing_rate=MISSING_RATE), model_config())
    model = build_model("RIHGCN", ctx)
    base = str(tmp_path / "rihgcn")
    export_bundle(model, "RIHGCN", ctx, base)
    bundle = load_bundle(base)

    # -- no-grad vs grad-mode single forward -------------------------------
    rng = np.random.default_rng(0)
    shape = (1, bundle.input_length, bundle.num_nodes, bundle.num_features)
    x = rng.normal(size=shape)
    m = np.ones_like(x)
    steps = np.tile(np.arange(bundle.input_length), (1, 1))
    grad_ms = _time_forward(model, x, m, steps, FORWARD_REPEATS)
    with no_grad():
        nograd_ms = _time_forward(model, x, m, steps, FORWARD_REPEATS)
    assert nograd_ms < grad_ms, (
        f"no-grad forward ({nograd_ms:.2f}ms) should beat grad-mode "
        f"({grad_ms:.2f}ms)"
    )

    # -- planned replay vs eager no-grad forward ---------------------------
    inputs, _signature = model.plan_inputs(x, m, steps)
    plan, _ = trace(model.plan_forward, inputs)

    def eager_forward():
        with no_grad():
            model.plan_forward(**inputs)

    eager_lat = _latencies_ms(eager_forward, PLAN_REPEATS)
    planned_lat = _latencies_ms(
        lambda: plan.replay(inputs, copy=False), PLAN_REPEATS
    )
    eager_p50 = float(np.percentile(eager_lat, 50))
    planned_p50 = float(np.percentile(planned_lat, 50))
    plan_speedup = eager_p50 / planned_p50
    # Acceptance target is >=2x p50; the assert is looser so a loaded CI
    # machine doesn't flake the bench (the JSON keeps the real ratio).
    assert plan_speedup >= 1.3, (
        f"planned replay p50 {planned_p50:.2f}ms vs eager {eager_p50:.2f}ms "
        f"({plan_speedup:.2f}x) below threshold"
    )
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.10"))
    committed = _committed_record()
    if committed is not None and committed.get("scale") == SCALE:
        committed_p50 = committed.get("planned", {}).get("planned_p50_ms")
        if committed_p50 is not None:
            assert planned_p50 <= committed_p50 * (1.0 + tolerance), (
                f"planned p50 regressed: {planned_p50:.3f}ms vs "
                f"committed {committed_p50:.3f}ms (+{tolerance:.0%} gate)"
            )

    # -- int8 vs float32 accuracy ------------------------------------------
    int8_base = str(tmp_path / "rihgcn-int8")
    quantize_bundle(base, int8_base, mode="int8", gate=QUANT_GATE)
    int8_drift = quantization_mae_drift(base, int8_base)
    int8_ratio = (os.path.getsize(base + ".npz")
                  / os.path.getsize(int8_base + ".npz"))
    assert int8_drift <= QUANT_GATE, (
        f"int8 forecasts drift {int8_drift:.3%} relative MAE from float32, "
        f"above the {QUANT_GATE:.0%} gate"
    )

    # -- micro-batched vs sequential closed-loop serving -------------------
    # plan=False isolates the micro-batching effect: with plans on, the
    # sequential baseline replays a compiled plan per request and the
    # batching dividend (amortised graph construction) mostly vanishes.
    comparison = compare_batched_sequential(
        bundle,
        num_clients=CLIENTS,
        requests_per_client=REQUESTS,
        max_batch_size=8,
        max_wait_s=0.004,
        plan=False,
    )
    ratio = comparison["batched_over_sequential_throughput"]
    assert comparison["sequential"]["errors"] == 0
    assert comparison["batched"]["errors"] == 0
    # The acceptance target is >=2x on the profile config; keep the assert
    # a little looser so a loaded CI machine doesn't flake the bench.
    assert ratio >= 1.5, f"micro-batching ratio {ratio:.2f} below threshold"

    # -- shadow mirroring overhead on the live path ------------------------
    from repro.serve import EnginePool, ShadowConfig
    from repro.telemetry import MetricRegistry

    candidate = load_bundle(base)
    pool = EnginePool(registry=MetricRegistry())
    pool.add_tenant("bench", bundle)
    with pool:
        warm_rng = np.random.default_rng(1)
        n, d = bundle.num_nodes, bundle.num_features
        for step in range(bundle.input_length):
            pool.observe("bench", step, warm_rng.normal(60.0, 5.0, size=(n, d)))
        start_step = bundle.input_length
        # pace at ~2x a single no-grad forward: below saturation, with
        # enough slack for the mirror replay to finish between rounds
        pace_s = max(0.005, 2.0 * nograd_ms / 1e3)
        # unmeasured warmup: the first rounds after pool start pay
        # cold-cache costs that would bias whichever phase runs first
        _drive_live(pool, "bench", max(5, SHADOW_ROUNDS // 4), 9, start_step,
                    pace_s)
        start_step += max(5, SHADOW_ROUNDS // 4)
        off_latencies = _drive_live(
            pool, "bench", SHADOW_ROUNDS, 2, start_step, pace_s
        )
        pool.start_shadow(
            "bench", ShadowConfig(bundle="candidate", mirror_fraction=1.0),
            bundle=candidate,
        )
        on_latencies = _drive_live(
            pool, "bench", SHADOW_ROUNDS, 3, start_step + SHADOW_ROUNDS, pace_s
        )
        assert pool.drain_shadow(timeout=30.0)
        shadow_snapshot = pool.stop_shadow("bench")
    off_p50 = float(np.percentile(off_latencies, 50))
    on_p50 = float(np.percentile(on_latencies, 50))
    overhead_ratio = on_p50 / off_p50
    assert shadow_snapshot["mirrored"] == SHADOW_ROUNDS
    assert shadow_snapshot["errors"] == 0
    # Acceptance target is <=5% p50 movement; the assert is looser so a
    # noisy CI box doesn't flake the bench (the JSON keeps the real ratio).
    assert overhead_ratio <= 1.5, (
        f"shadow mirroring moved live p50 by {overhead_ratio:.2f}x "
        f"({off_p50:.1f}ms -> {on_p50:.1f}ms)"
    )

    seq, bat = comparison["sequential"], comparison["batched"]
    print()
    print(f"no-grad forward: {nograd_ms:.2f}ms vs grad-mode {grad_ms:.2f}ms "
          f"({grad_ms / nograd_ms:.2f}x)")
    print(f"planned:    p50 {planned_p50:.2f}ms vs eager no-grad "
          f"{eager_p50:.2f}ms ({plan_speedup:.2f}x, "
          f"{plan.stats.steps} steps)")
    print(f"int8:       {int8_drift:.4%} relative MAE drift "
          f"(gate {QUANT_GATE:.0%}), {int8_ratio:.2f}x smaller npz")
    print(f"sequential: {seq['throughput_rps']:.0f} req/s "
          f"p50 {seq['latency_ms_p50']:.1f}ms p99 {seq['latency_ms_p99']:.1f}ms")
    print(f"batched:    {bat['throughput_rps']:.0f} req/s "
          f"p50 {bat['latency_ms_p50']:.1f}ms p99 {bat['latency_ms_p99']:.1f}ms "
          f"(mean batch {bat['mean_batch_size']:.1f})")
    print(f"throughput ratio: {ratio:.2f}x")
    print(f"shadow:     live p50 {off_p50:.1f}ms -> {on_p50:.1f}ms "
          f"({(overhead_ratio - 1) * 100:+.1f}%) over {SHADOW_ROUNDS} rounds, "
          f"{shadow_snapshot['compared']} mirror comparisons")

    emit_bench_record("serve_latency", {
        "model": "RIHGCN",
        "dataset": "pems",
        "missing_rate": MISSING_RATE,
        "num_clients": CLIENTS,
        "requests_per_client": REQUESTS,
        "forward_grad_ms": grad_ms,
        "forward_nograd_ms": nograd_ms,
        "forward_nograd_speedup": grad_ms / nograd_ms,
        "planned": {
            "repeats": PLAN_REPEATS,
            "eager_p50_ms": eager_p50,
            "planned_p50_ms": planned_p50,
            "planned_over_eager_p50_speedup": plan_speedup,
            "plan_steps": plan.stats.steps,
            "arena_bytes": plan.stats.arena_bytes,
            "compile_seconds": plan.stats.compile_seconds,
        },
        "int8": {
            "relative_mae_drift": int8_drift,
            "gate": QUANT_GATE,
            "npz_shrink_ratio": int8_ratio,
        },
        "sequential": seq,
        "batched": bat,
        "batched_over_sequential_throughput": ratio,
        "shadow": {
            "rounds": SHADOW_ROUNDS,
            "mirror_fraction": 1.0,
            "live_p50_ms_shadow_off": off_p50,
            "live_p50_ms_shadow_on": on_p50,
            "live_p50_overhead_ratio": overhead_ratio,
            "mirrored": shadow_snapshot["mirrored"],
            "compared": shadow_snapshot["compared"],
            "divergence_mean_abs": shadow_snapshot["divergence_mean_abs"],
        },
    })

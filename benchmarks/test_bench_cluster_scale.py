"""Cluster scale bench: aggregate throughput vs worker count.

Emitted as ``BENCH_cluster_scale.json``:

* **identity control** — a no-fault 2-shard cluster must produce
  forecasts identical (<= 1e-6, float64 policy) to the single-process
  engine on the same observation stream;
* **throughput vs workers** — the same closed-loop per-node workload
  (zipf popularity, observe/forecast alternation) against a
  single-process HTTP server and 1/2/4-worker clusters. On one core the
  win comes from *subgraph-local forwards*: a per-node forecast on a
  shard runs the sliced model over ``N/S + halo`` nodes instead of all
  ``N``, so 2 workers must carry >= 1.5x the single-process throughput.
"""

import json
import threading

import numpy as np
import pytest

from bench_config import SCALE, emit_bench_record

from repro.autodiff import dtype_policy
from repro.serve import ServeApp, bind_http
from repro.serve.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    HTTPShardClient,
    LocalCluster,
    build_plan,
    corridor_adjacency,
    make_demo_bundle,
    shard_quality,
)
from repro.serve.loadgen import run_load
from repro.telemetry import MetricRegistry

pytestmark = pytest.mark.bench

NODES = {"fast": 64, "small": 128, "full": 512}[SCALE]
IDENTITY_NODES = {"fast": 48, "small": 96, "full": 128}[SCALE]
CLIENTS = {"fast": 2, "small": 4, "full": 4}[SCALE]
REQUESTS = {"fast": 6, "small": 10, "full": 20}[SCALE]  # pairs per client
WORKERS = {"fast": [1, 2], "small": [1, 2], "full": [1, 2, 4]}[SCALE]
THRESHOLD_2W = 1.5


def _warm(handle, num_nodes, steps=12, seed=9):
    rng = np.random.default_rng(seed)
    for step in range(steps):
        body = json.dumps({
            "step": step,
            "values": rng.normal(60.0, 3.0, size=(num_nodes, 1)).tolist(),
        }).encode()
        assert handle("POST", "/observe", body).status == 200


def _drive(handle):
    return run_load(
        handle,
        num_nodes=NODES,
        num_features=1,
        start_step=1000,
        num_clients=CLIENTS,
        requests_per_client=REQUESTS,
        seed=1,
    )


def _identity_control(tmp_path):
    """No-fault 2-shard forecasts vs single-process, float64, <= 1e-6."""
    with dtype_policy("float64"):
        bundle = make_demo_bundle(
            str(tmp_path / "identity"), num_nodes=IDENTITY_NODES
        )
        single = ServeApp(bundle, registry=MetricRegistry())
        single.pool.start()
        try:
            with LocalCluster(bundle, config=ClusterConfig(num_shards=2)) as c:
                rng = np.random.default_rng(0)
                for step in range(bundle.input_length + 4):
                    body = json.dumps({
                        "step": step,
                        "values": rng.normal(
                            60.0, 3.0, size=(IDENTITY_NODES, 1)
                        ).tolist(),
                    }).encode()
                    assert single.handle("POST", "/observe", body, None).status == 200
                    assert c.handle("POST", "/observe", body, None).status == 200
                lhs = single.handle("GET", "/forecast", None, None)
                rhs = c.handle("GET", "/forecast", None, None)
        finally:
            single.pool.stop()
    assert lhs.status == 200 and rhs.status == 200
    assert rhs.body["degraded"] is None
    diff = float(np.max(np.abs(
        np.asarray(lhs.body["prediction"], dtype=np.float64)
        - np.asarray(rhs.body["prediction"], dtype=np.float64)
    )))
    return diff


def test_cluster_scale(tmp_path):
    identity_diff = _identity_control(tmp_path)
    assert identity_diff <= 1e-6, (
        f"2-shard cluster diverged from single-process: {identity_diff:.2e}"
    )

    bundle_path = str(tmp_path / "bundle")
    bundle = make_demo_bundle(bundle_path, num_nodes=NODES)

    # -- single-process baseline over real sockets ---------------------
    app = ServeApp(bundle, registry=MetricRegistry())
    server = bind_http(app, "127.0.0.1", 0)
    app.pool.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = HTTPShardClient("127.0.0.1", server.server_address[1],
                                 default_timeout_s=30.0)
        _warm(client.request, NODES)
        baseline = _drive(client.request)
    finally:
        server.shutdown()
        app.pool.stop()
    assert baseline.server_errors == 0 and baseline.crashes == 0

    # -- 1/2/4-worker clusters -----------------------------------------
    per_worker = {}
    plans = {}
    for workers in WORKERS:
        config = ClusterConfig(num_shards=workers, load_factor=1.0,
                               shard_deadline_s=30.0)
        plan = build_plan(bundle, config)
        plans[workers] = shard_quality(plan, corridor_adjacency(NODES))
        with ClusterSupervisor(bundle_path, plan, config=config) as sup:
            _warm(sup.handle, NODES)
            report = _drive(sup.handle)
        assert report.server_errors == 0 and report.crashes == 0, (
            f"{workers}-worker cluster failed requests: {report}"
        )
        per_worker[workers] = report

    ratios = {
        w: per_worker[w].throughput_rps / baseline.throughput_rps
        for w in WORKERS
    }

    print()
    print(f"identity control: max |diff| {identity_diff:.2e} (float64)")
    print(f"single-process: {baseline.throughput_rps:.0f} forecasts/s "
          f"p50 {baseline.latency_ms_p50:.1f}ms "
          f"p99 {baseline.latency_ms_p99:.1f}ms")
    for w in WORKERS:
        rep = per_worker[w]
        print(f"{w} worker(s):    {rep.throughput_rps:.0f} forecasts/s "
              f"p50 {rep.latency_ms_p50:.1f}ms "
              f"p99 {rep.latency_ms_p99:.1f}ms  ({ratios[w]:.2f}x, "
              f"owned {plans[w]['owned_sizes']}, "
              f"replication x{plans[w]['replication_factor']:.2f})")

    emit_bench_record("cluster_scale", {
        "num_nodes": NODES,
        "model": "GCN-LSTM",
        "num_clients": CLIENTS,
        "requests_per_client": REQUESTS,
        "identity": {
            "num_nodes": IDENTITY_NODES,
            "dtype": "float64",
            "max_abs_diff": identity_diff,
            "tol": 1e-6,
        },
        "single_process": baseline.to_json_dict(),
        "clusters": {
            str(w): {
                "report": per_worker[w].to_json_dict(),
                "throughput_over_single_process": ratios[w],
                "plan_quality": plans[w],
            }
            for w in WORKERS
        },
        "threshold_2_workers": THRESHOLD_2W,
    })

    if 2 in ratios:
        # acceptance target: >=1.5x aggregate throughput at 2 workers;
        # the assert is slightly looser so a loaded CI box doesn't flake
        # the bench (the JSON record keeps the real ratio).
        assert ratios[2] >= 1.3, (
            f"2-worker throughput ratio {ratios[2]:.2f} below threshold"
        )

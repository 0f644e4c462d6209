"""Cluster smoke harness: identity control + seeded chaos + tracing.

Three phases, all against a deterministic corridor-graph demo bundle:

1. **Identity** (in-process, float64 policy): the same observation
   stream is fed to a sharded :class:`~.local.LocalCluster` and a
   single-process :class:`~repro.serve.http.ServeApp`; their full-network
   forecasts must agree to :data:`IDENTITY_TOL`. Float64
   makes the check meaningful: shard-local forwards slice the full
   graph's Chebyshev basis, which regroups BLAS accumulations —
   bit-for-bit under float64 at these magnitudes, not under float32.
2. **Chaos** (real worker processes by default): drive closed-loop
   load through the router, fill the router's last-good cache with one
   whole-network forecast, kill one seeded-random shard, keep driving,
   then restart it warmed from a replica snapshot. The verdict checks
   what ``docs/CLUSTER.md`` promises: forecasts stay at least
   ``availability_floor`` available (2xx, degraded included); the only
   5xx allowed are observations, during the outage, of nodes no live
   shard holds, each with ``Retry-After``; none after recovery.
3. **Trace** (same worker mode as chaos): with ``trace_sample=1.0``,
   kill one shard of a three-shard cluster and issue a single
   scatter-gather forecast. The router's merged ``/traces`` must hold
   ONE trace whose spans cover the router service plus at least two
   shard worker services, including a halo-failover ``shard_call`` hop;
   the critical-path analyzer must attribute the trace to a dominant
   phase.

Returns a JSON-ready report; ``report["passed"]`` gates CI.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from urllib.parse import parse_qsl, urlparse

import numpy as np

from ...autodiff import dtype_policy
from ...telemetry import critical_path, format_critical_path
from ..config import ServeConfig
from .config import ClusterConfig
from .demo import corridor_adjacency, make_demo_bundle
from .local import LocalCluster, build_plan
from .process import ClusterSupervisor
from .sharding import shard_quality

__all__ = ["run_cluster_smoke"]

_SHARD_SERVICE = re.compile(r"^s\d+$")

#: demo model, steps streamed before each forecast, identity tolerance
MODEL_NAME = "GCN-LSTM"
STREAM_STEPS = 24
IDENTITY_TOL = 1e-6


def _drive_stream(handle, values_stream) -> list:
    """POST each (step, values) through an app's ``handle``; return acks."""
    acks = []
    for step, values in values_stream:
        body = json.dumps({
            "step": int(step),
            "values": np.asarray(values).tolist(),
        }).encode()
        response = handle("POST", "/observe", body, None)
        acks.append(response.status)
    return acks


def _make_stream(num_nodes: int, steps: int, seed: int):
    """Deterministic synthetic traffic stream shared by both sides."""
    rng = np.random.default_rng(seed)
    base = 60.0 + 5.0 * np.sin(
        np.linspace(0.0, 2.0 * np.pi, num_nodes)
    )
    for step in range(steps):
        values = base + rng.normal(0.0, 2.0, size=num_nodes)
        yield step, values.reshape(num_nodes, 1)


def _identity_phase(workdir: str, num_nodes: int, num_shards: int, seed: int) -> dict:
    from ..http import ServeApp

    with dtype_policy("float64"):
        bundle = make_demo_bundle(
            os.path.join(workdir, "identity_bundle.npz"),
            num_nodes=num_nodes,
            model_name=MODEL_NAME,
            seed=seed,
        )
        config = ClusterConfig(num_shards=num_shards)
        single = ServeApp(bundle)
        single.pool.start()
        try:
            with LocalCluster(bundle, config=config) as cluster:
                stream = list(_make_stream(num_nodes, STREAM_STEPS, seed))
                single_acks = _drive_stream(single.handle, stream)
                cluster_acks = _drive_stream(cluster.handle, stream)
                single_resp = single.handle("GET", "/forecast", None, None)
                cluster_resp = cluster.handle("GET", "/forecast", None, None)
                plan_stats = shard_quality(
                    cluster.plan, corridor_adjacency(num_nodes)
                )
        finally:
            single.pool.stop()
    ok = (
        single_resp.status == 200
        and cluster_resp.status == 200
        and not cluster_resp.body.get("degraded")
    )
    max_diff = float("inf")
    if ok:
        lhs = np.asarray(single_resp.body["prediction"], dtype=np.float64)
        rhs = np.asarray(cluster_resp.body["prediction"], dtype=np.float64)
        max_diff = (
            float(np.max(np.abs(lhs - rhs)))
            if lhs.shape == rhs.shape else float("inf")
        )
    return {
        "steps": STREAM_STEPS,
        "dtype": "float64",
        "tol": IDENTITY_TOL,
        "single_status": single_resp.status,
        "cluster_status": cluster_resp.status,
        "observe_ok": (
            all(s == 200 for s in single_acks)
            and all(s == 200 for s in cluster_acks)
        ),
        "max_abs_diff": max_diff,
        "identical": ok and max_diff <= IDENTITY_TOL,
        "plan_quality": plan_stats,
    }


def _open_cluster(processes: bool, bundle_path: str, bundle, plan, config):
    """``(cluster, kill, restart)`` over worker processes or in-process.

    ``restart(shard)`` brings a killed shard back warmed from a replica
    and returns the warm source (``None`` or ``False`` when cold).
    """
    if not processes:
        cluster = LocalCluster(bundle, config=config, plan=plan)
        return cluster, cluster.kill, cluster.revive
    sup = ClusterSupervisor(bundle_path, plan, config=config)

    def restart(shard: int):
        warmed = sup.restart_shard(shard, warm=True).get("warmed_from")
        sup.wait_healthy(timeout_s=10.0)
        return warmed

    return sup, sup.kill_shard, restart


def _chaos_phase(
    workdir: str,
    num_nodes: int,
    num_shards: int,
    seed: int,
    processes: bool,
    requests_per_phase: int,
) -> dict:
    from ..loadgen import run_load

    bundle_path = os.path.join(workdir, "chaos_bundle.npz")
    bundle = make_demo_bundle(
        bundle_path, num_nodes=num_nodes, model_name=MODEL_NAME, seed=seed
    )
    config = ClusterConfig(num_shards=num_shards)
    plan = build_plan(bundle, config)
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(num_shards))
    answers: list[tuple] = []  # one (phase, method, node, status, Retry-After) each

    def load(handle, phase: int, start_step: int):
        def recorded(method, path, body=None, headers=None):
            response = handle(method, path, body, headers)
            query = json.loads(body) if body else dict(parse_qsl(urlparse(path).query))
            answers.append((
                phase, method, int(query["node"]), response.status,
                response.headers.get("Retry-After"),
            ))
            return response

        return run_load(
            recorded,
            num_nodes=num_nodes,
            num_features=1,
            start_step=start_step,
            num_clients=2,
            requests_per_client=requests_per_phase // 4,
            seed=seed + 1 + phase,
        )

    report: dict = {"mode": "processes" if processes else "local", "victim": victim}
    cluster, kill, restart = _open_cluster(processes, bundle_path, bundle, plan, config)
    with cluster:
        _drive_stream(cluster.handle, _make_stream(num_nodes, 6, seed))
        phases = [load(cluster.handle, 0, 6)]
        cluster.handle("GET", "/forecast", None)  # fills the last-good cache
        kill(victim)
        phases.append(load(cluster.handle, 1, 200))
        report["warmed"] = restart(victim)
        phases.append(load(cluster.handle, 2, 400))
        report["healthz_after"] = cluster.router.healthz().body

    report["phases"] = [p.to_json_dict() for p in phases]
    requests = sum(p.requests for p in phases)
    report["availability"] = sum(p.ok for p in phases) / requests if requests else 0.0
    forecasts = [a[3] for a in answers if a[1] == "GET"]
    report["forecast_availability"] = (
        sum(200 <= status < 300 for status in forecasts) / max(len(forecasts), 1)
    )
    report["crashes"] = sum(p.crashes for p in phases)
    report["unheld_nodes"] = [
        node for node in range(num_nodes) if set(plan.holders_of(node)) == {victim}
    ]
    report["server_errors"] = [
        dict(zip(("phase", "method", "node", "status", "retry_after"), a))
        for a in answers if a[3] >= 500
    ]
    report["degraded_seen"] = any(p.degraded > 0 for p in phases)
    return report


def _trace_phase(workdir: str, num_nodes: int, seed: int, processes: bool) -> dict:
    """One request, one merged cross-process trace, one critical path."""
    bundle_path = os.path.join(workdir, "trace_bundle.npz")
    bundle = make_demo_bundle(
        bundle_path, num_nodes=num_nodes, model_name=MODEL_NAME, seed=seed
    )
    # Three shards so that with one killed, a single scatter-gather
    # trace still touches two live worker processes plus the failover
    # leg pulling the victim's boundary rows from a replica's halo.
    config = ClusterConfig(
        num_shards=3, serve=ServeConfig(trace_sample=1.0)
    )
    plan = build_plan(bundle, config)
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(3))

    cluster, kill, _ = _open_cluster(processes, bundle_path, bundle, plan, config)
    with cluster:
        _drive_stream(cluster.handle, _make_stream(num_nodes, STREAM_STEPS, seed))
        kill(victim)
        forecast = cluster.handle("GET", "/forecast", None, None)
        traces_resp = cluster.handle("GET", "/traces", None, None)

    report: dict = {
        "victim": victim,
        "mode": "processes" if processes else "local",
        "forecast_status": forecast.status,
        "forecast_degraded": (
            forecast.body.get("degraded")
            if isinstance(forecast.body, dict) else None
        ),
        "failed_sources": (
            traces_resp.body.get("failed_sources", [])
            if isinstance(traces_resp.body, dict) else []
        ),
        "merged": False,
        "failover_hop": False,
        "dominant_phase": None,
    }
    traces = (
        traces_resp.body.get("traces", [])
        if isinstance(traces_resp.body, dict) else []
    )
    report["num_traces"] = len(traces)
    for trace in traces:
        spans = trace.get("spans", [])
        services = {span.get("service") for span in spans if span.get("service")}
        failover_hop = any(
            span.get("name") == "shard_call"
            and span.get("attributes", {}).get("failover")
            for span in spans
        )
        shard_services = {s for s in services if _SHARD_SERVICE.match(s)}
        if "router" not in services or len(shard_services) < 2 or not failover_hop:
            continue
        path = critical_path(trace)
        report.update({
            "merged": True,
            "failover_hop": True,
            "trace_id": trace.get("trace_id"),
            "services": sorted(services),
            "num_spans": len(spans),
            "dominant_phase": path["dominant_phase"],
            "phases_ms": path["phases"],
            "critical_path": format_critical_path(trace),
        })
        break
    return report


def run_cluster_smoke(
    num_nodes: int = 48,
    num_shards: int = 2,
    seed: int = 0,
    chaos: bool = True,
    processes: bool = True,
    availability_floor: float = 0.99,
    requests_per_phase: int = 60,
) -> dict:
    """Run the identity phase, then with ``chaos`` the chaos and trace phases.

    ``report["passed"]`` is the verdict.
    """
    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as workdir:
        report: dict = {
            "num_nodes": num_nodes,
            "num_shards": num_shards,
            "model_name": MODEL_NAME,
            "seed": seed,
            "identity": _identity_phase(workdir, num_nodes, num_shards, seed),
        }
        checks = {
            "identity_within_tol": report["identity"]["identical"],
            "observations_accepted": report["identity"]["observe_ok"],
        }
        if chaos:
            report["chaos"] = chaos_report = _chaos_phase(
                workdir, num_nodes, num_shards, seed, processes,
                requests_per_phase,
            )
            report["trace"] = _trace_phase(workdir, num_nodes, seed, processes)
            errors = chaos_report["server_errors"]
            observe_errors = [e for e in errors if e["method"] == "POST"]
            checks.update({
                "forecast_availability_floor": (
                    chaos_report["forecast_availability"] >= availability_floor
                ),
                # observing a node no live shard holds has nowhere to go
                "observe_errors_only_unheld_nodes": all(
                    e["phase"] == 1 and e["node"] in chaos_report["unheld_nodes"]
                    and e["retry_after"] is not None
                    for e in observe_errors
                ),
                "no_other_server_errors": (
                    len(observe_errors) == len(errors)
                    and chaos_report["crashes"] == 0
                ),
                "no_server_errors_after_recovery": (
                    chaos_report["phases"][-1]["server_errors"] == 0
                ),
                # ``warmed`` is the source shard id (0 is a valid one),
                # or None / False when no replica snapshot was replayed
                "shard_warmed_from_replica": (
                    chaos_report["warmed"] is not None
                    and chaos_report["warmed"] is not False
                ),
                "merged_trace_spans_processes": report["trace"]["merged"],
                "trace_failover_hop": report["trace"]["failover_hop"],
                "trace_critical_path": report["trace"]["dominant_phase"] is not None,
            })
    report["availability_floor"] = availability_floor
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report

"""Cluster smoke harness: identity control + seeded chaos + tracing.

Three phases, all against a deterministic corridor-graph demo bundle:

1. **Identity** (in-process, float64 policy): the same observation
   stream is fed to a sharded :class:`~.local.LocalCluster` and a
   single-process :class:`~repro.serve.http.ServeApp`; their full-network
   forecasts must agree to ``identity_tol`` (default 1e-6). Float64
   makes the check meaningful: shard-local forwards slice the full
   graph's Chebyshev basis, which regroups BLAS accumulations —
   bit-for-bit under float64 at these magnitudes, not under float32.
2. **Chaos** (real worker processes by default): drive closed-loop
   load through the router, kill one seeded-random shard mid-run, keep
   driving, then restart it warmed from a replica snapshot. Aggregate
   availability (2xx responses, degraded included) must stay above
   ``availability_floor``.
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

import numpy as np

from ...autodiff import dtype_policy
from ...graphs import shard_quality
from ...telemetry import critical_path, format_critical_path
from ..config import ServeConfig
from .config import ClusterConfig
from .demo import corridor_adjacency, make_demo_bundle
from .local import LocalCluster, build_plan
from .process import ClusterSupervisor

__all__ = ["run_cluster_smoke"]

_SHARD_SERVICE = re.compile(r"^s\d+$")


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


def _identity_phase(
    workdir: str,
    num_nodes: int,
    num_shards: int,
    model_name: str,
    steps: int,
    seed: int,
    tol: float,
) -> dict:
    from ..http import ServeApp

    with dtype_policy("float64"):
        bundle = make_demo_bundle(
            os.path.join(workdir, "identity_bundle.npz"),
            num_nodes=num_nodes,
            model_name=model_name,
            seed=seed,
        )
        config = ClusterConfig(num_shards=num_shards)
        single = ServeApp(bundle)
        single.pool.start()
        try:
            with LocalCluster(bundle, config=config) as cluster:
                stream = list(_make_stream(num_nodes, steps, seed))
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
        "steps": steps,
        "dtype": "float64",
        "tol": tol,
        "single_status": single_resp.status,
        "cluster_status": cluster_resp.status,
        "observe_ok": (
            all(s == 200 for s in single_acks)
            and all(s == 200 for s in cluster_acks)
        ),
        "max_abs_diff": max_diff,
        "identical": ok and max_diff <= tol,
        "plan_quality": plan_stats,
    }


def _availability(reports: list) -> tuple[dict, float]:
    total = {"requests": 0, "ok": 0, "degraded": 0, "rejected": 0,
             "client_errors": 0, "server_errors": 0, "crashes": 0}
    for rep in reports:
        for key in total:
            total[key] += getattr(rep, key)
    # ``degraded`` is a subset of ``ok`` (degraded answers are 200s).
    served = total["ok"]
    availability = served / total["requests"] if total["requests"] else 0.0
    return total, availability


def _chaos_phase(
    workdir: str,
    num_nodes: int,
    num_shards: int,
    model_name: str,
    seed: int,
    processes: bool,
    requests_per_phase: int,
) -> dict:
    from ..loadgen import run_load

    bundle_path = os.path.join(workdir, "chaos_bundle.npz")
    bundle = make_demo_bundle(
        bundle_path, num_nodes=num_nodes, model_name=model_name, seed=seed
    )
    config = ClusterConfig(num_shards=num_shards)
    plan = build_plan(bundle, config)
    rng = np.random.default_rng(seed)
    victim = int(rng.integers(num_shards))

    def load(handle, phase_seed, start_step):
        return run_load(
            handle,
            num_nodes=num_nodes,
            num_features=1,
            start_step=start_step,
            num_clients=2,
            requests_per_client=requests_per_phase // 4,
            seed=phase_seed,
        )

    phases = []
    report: dict = {
        "mode": "processes" if processes else "local",
        "victim": victim,
        "warmed": None,
    }
    if processes:
        with ClusterSupervisor(bundle_path, plan, config=config) as sup:
            _drive_stream(sup.handle, _make_stream(num_nodes, 6, seed))
            phases.append(load(sup.handle, seed + 1, 6))
            sup.kill_shard(victim)
            phases.append(load(sup.handle, seed + 2, 200))
            restart = sup.restart_shard(victim, warm=True)
            report["warmed"] = restart.get("warmed_from")
            sup.wait_healthy(timeout_s=10.0)
            phases.append(load(sup.handle, seed + 3, 400))
            report["healthz_after"] = sup.router.healthz().body
    else:
        with LocalCluster(bundle, config=config, plan=plan) as cluster:
            _drive_stream(cluster.handle, _make_stream(num_nodes, 6, seed))
            phases.append(load(cluster.handle, seed + 1, 6))
            cluster.kill(victim)
            phases.append(load(cluster.handle, seed + 2, 200))
            cluster.clients[victim].down = False
            report["warmed"] = cluster.warm(victim)
            cluster.router.retarget(victim, cluster.clients[victim])
            phases.append(load(cluster.handle, seed + 3, 400))
            report["healthz_after"] = cluster.router.healthz().body
    totals, availability = _availability(phases)
    report["phases"] = [
        {k: getattr(p, k) for k in (
            "requests", "ok", "degraded", "rejected",
            "client_errors", "server_errors", "crashes", "availability",
        )}
        for p in phases
    ]
    report["totals"] = totals
    report["availability"] = availability
    report["degraded_seen"] = any(p.degraded > 0 for p in phases)
    return report


def _trace_services(trace: dict) -> set:
    return {
        span.get("service")
        for span in trace.get("spans", [])
        if span.get("service")
    }


def _has_failover_hop(trace: dict) -> bool:
    return any(
        span.get("name") == "shard_call"
        and span.get("attributes", {}).get("failover")
        for span in trace.get("spans", [])
    )


def _trace_phase(
    workdir: str,
    num_nodes: int,
    model_name: str,
    seed: int,
    processes: bool,
    steps: int = 24,
) -> dict:
    """One request, one merged cross-process trace, one critical path."""
    bundle_path = os.path.join(workdir, "trace_bundle.npz")
    bundle = make_demo_bundle(
        bundle_path, num_nodes=num_nodes, model_name=model_name, seed=seed
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

    def drive(handle, kill):
        _drive_stream(handle, _make_stream(num_nodes, steps, seed))
        kill()
        forecast = handle("GET", "/forecast", None, None)
        traces_resp = handle("GET", "/traces", None, None)
        return forecast, traces_resp

    if processes:
        with ClusterSupervisor(bundle_path, plan, config=config) as sup:
            forecast, traces_resp = drive(
                sup.handle, lambda: sup.kill_shard(victim)
            )
    else:
        with LocalCluster(bundle, config=config, plan=plan) as cluster:
            forecast, traces_resp = drive(
                cluster.handle, lambda: cluster.kill(victim)
            )

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
        services = _trace_services(trace)
        shard_services = {s for s in services if _SHARD_SERVICE.match(s)}
        if (
            "router" not in services
            or len(shard_services) < 2
            or not _has_failover_hop(trace)
        ):
            continue
        path = critical_path(trace)
        report.update({
            "merged": True,
            "failover_hop": True,
            "trace_id": trace.get("trace_id"),
            "services": sorted(services),
            "num_spans": len(trace.get("spans", [])),
            "dominant_phase": path["dominant_phase"],
            "phases_ms": path["phases"],
            "critical_path": format_critical_path(trace),
        })
        break
    return report


def run_cluster_smoke(
    workdir: str | None = None,
    num_nodes: int = 48,
    num_shards: int = 2,
    model_name: str = "GCN-LSTM",
    steps: int = 24,
    seed: int = 0,
    identity_tol: float = 1e-6,
    chaos: bool = True,
    processes: bool = True,
    availability_floor: float = 0.99,
    requests_per_phase: int = 60,
    trace: bool | None = None,
) -> dict:
    """Run the identity + chaos + trace smoke; ``report["passed"]`` gates CI."""
    if trace is None:
        trace = chaos  # the trace phase kills a shard; identity-only skips it
    owned_dir = None
    if workdir is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-")
        workdir = owned_dir.name
    try:
        report: dict = {
            "num_nodes": num_nodes,
            "num_shards": num_shards,
            "model_name": model_name,
            "seed": seed,
        }
        report["identity"] = _identity_phase(
            workdir, num_nodes, num_shards, model_name, steps, seed,
            identity_tol,
        )
        if chaos:
            report["chaos"] = _chaos_phase(
                workdir, num_nodes, num_shards, model_name, seed,
                processes, requests_per_phase,
            )
        if trace:
            report["trace"] = _trace_phase(
                workdir, num_nodes, model_name, seed, processes,
            )
        checks = {
            "identity_within_tol": report["identity"]["identical"],
            "observations_accepted": report["identity"]["observe_ok"],
        }
        if chaos:
            checks["availability_floor"] = (
                report["chaos"]["availability"] >= availability_floor
            )
            checks["no_server_errors_after_recovery"] = (
                report["chaos"]["phases"][-1]["server_errors"] == 0
            )
            checks["shard_warmed_from_replica"] = bool(
                report["chaos"]["warmed"] is not None
                and report["chaos"]["warmed"] is not False
            )
        if trace:
            checks["merged_trace_spans_processes"] = report["trace"]["merged"]
            checks["trace_failover_hop"] = report["trace"]["failover_hop"]
            checks["trace_critical_path"] = (
                report["trace"]["dominant_phase"] is not None
            )
        report["availability_floor"] = availability_floor
        report["checks"] = checks
        report["passed"] = all(checks.values())
        return report
    finally:
        if owned_dir is not None:
            owned_dir.cleanup()

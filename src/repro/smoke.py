"""One smoke harness behind ``repro smoke <name>``.

Each smoke boots a real slice of the stack in-process, drives it and
returns a JSON-ready report ``{"checks": {name: bool}, "passed": bool,
...}``. :data:`SMOKES` maps every name to its function and :func:`finish`
is the one code path that prints the checks, writes the report and turns
the verdict into an exit code. The module constants are the values CI
runs with; the global ``--seed`` seeds the bundles, the load and the
fault plans, so a red run reproduces with the same command.

Bundles come from :func:`repro.serve.export_model`, the function behind
``repro export --skip-training``, written to a temporary directory.
``docs/SMOKES.md`` lists every check.
"""

from __future__ import annotations

import json
import tempfile
import threading
from dataclasses import replace

import numpy as np

from .codec import to_dict

__all__ = ["SMOKES", "chaos_soak", "finish"]

#: model every bundle-backed smoke exports, with untrained weights
SMOKE_MODEL = "GCN-LSTM-I"
#: minimum availability for the chaos soak and the cluster's forecasts
AVAILABILITY_TARGET = 0.99

CHAOS_CLIENTS = 4
CHAOS_REQUESTS = 40
CHAOS_LATENCY_RATE = 0.1
CHAOS_LATENCY_MS = 20.0
CHAOS_ERROR_RATE = 0.05
CHAOS_DROP_SENSORS = (0,)

FLEET_ROUNDS = 80
SLO_ROUNDS = 30

CLUSTER_NODES = 48
CLUSTER_SHARDS = 2
CLUSTER_REQUESTS = 60

GAUNTLET_RECORD = "benchmarks/BENCH_missing_gauntlet.json"

#: one single-sensor reading the serve smoke posts
SERVE_OBSERVATION = {"step": 0, "node": 0, "features": [60.0, 0.1, 400.0, 55.0]}
#: serve-smoke check -> line prefix its ``/metrics`` scrape must contain
SERVE_METRIC_LINES = {
    "metrics_requests_counter": "# TYPE repro_serve_requests_total counter",
    "metrics_latency_histogram": "# TYPE repro_serve_latency_ms histogram",
    "metrics_latency_inf_bucket": 'repro_serve_latency_ms_bucket{le="+Inf"}',
    # the smoke's one forecast compiled a plan on its first forward
    "metrics_traced_forward": 'repro_serve_engine_exec_mode_total{mode="traced"}',
    "metrics_plan_cache_misses": "repro_serve_plan_cache_misses_total",
}
#: spans one traced forecast must produce
SERVE_TRACE_SPANS = {"http", "engine.forecast", "batch_forward", "model_forward"}


def finish(report: dict, path: str | None = None) -> int:
    """Print each check, write ``report`` to ``path``, print the verdict.

    Returns the exit code: 0 when every check passed, else 1.
    """
    details = report.get("details", {})
    for check, ok in report["checks"].items():
        detail = f": {details[check]}" if check in details else ""
        print(f"  {'PASS' if ok else 'FAIL'}  {check}{detail}")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
        print(f"report written to {path}")
    print(f"verdict: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def _verdict(report: dict, checks: dict) -> dict:
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report


def _export(data, model, seed_offset: int = 0, name: str = SMOKE_MODEL):
    """Export and load one untrained ``name`` bundle (:data:`SMOKE_MODEL`)."""
    from .serve import export_model, load_bundle

    seed = data.seed + seed_offset
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as workdir:
        path = f"{workdir}/bundle"
        export_model(
            name, replace(data, seed=seed), replace(model, seed=seed), path
        )
        return load_bundle(path)


def _json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except ValueError:
        return {}
    return payload if isinstance(payload, dict) else {}


# ----------------------------------------------------------------------
# serve: one bundle behind a real socket
# ----------------------------------------------------------------------
def serve_smoke(data, model, trainer) -> dict:
    """Verify the bundle's plan and a RIHGCN bundle's one plan for its
    whole day, then exercise the HTTP API over a socket."""
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    from .serve import ServeApp, ServeConfig, check_plan, make_server
    from .telemetry import format_trace, load_traces

    bundle = _export(data, model)
    plan = check_plan(bundle, seed=data.seed)
    rihgcn_plan = check_plan(_export(data, model, name="RIHGCN"), seed=data.seed)
    app = ServeApp(bundle, config=ServeConfig(port=0, trace_sample=1.0))
    server = make_server(app)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = "http://{}:{}".format(*server.server_address[:2])
    print(f"serve smoke: {bundle.model_name} at {base}")

    def fetch(route: str, body: bytes | None = None):
        try:
            with urlopen(Request(base + route, data=body)) as response:
                return response.status, response.headers, response.read().decode()
        except HTTPError as error:
            return error.code, error.headers, error.read().decode()

    try:
        health = fetch("/healthz")
        observe = fetch("/observe", json.dumps(SERVE_OBSERVATION).encode())
        forecast = fetch("/forecast?horizon=2")
        metrics = fetch("/metrics")
        metrics_json = fetch("/metrics?format=json")
        traces = fetch("/traces")
        rendered = [format_trace(trace) for trace in load_traces(base, limit=3)]
    finally:
        server.shutdown()
        server.server_close()
        app.pool.stop()
        app.close()
    for text in rendered:
        print(text)

    metric_lines = metrics[2].splitlines()
    spans = {
        span["name"]
        for trace in _json(traces[2]).get("traces", [])
        for span in trace["spans"]
    }
    report = {"plan": plan, "rihgcn_plan": rihgcn_plan, "span_names": sorted(spans)}
    checks = {
        "plan_verified": plan["verified"] is True,
        "rihgcn_one_plan": rihgcn_plan["verified"] is True and rihgcn_plan["plans"] == 1,
        "healthz_ok": health[0] == 200,
        "observe_accepted": observe[0] == 200,
        "forecast_horizon_2": (
            forecast[0] == 200 and _json(forecast[2]).get("horizon") == 2
        ),
        "metrics_content_type": (
            metrics[1].get("Content-Type", "").startswith("text/plain; version=0.0.4")
        ),
        **{
            name: any(line.startswith(prefix) for line in metric_lines)
            for name, prefix in SERVE_METRIC_LINES.items()
        },
        "metrics_json_counters": "counters" in _json(metrics_json[2]),
        "trace_spans_complete": SERVE_TRACE_SPANS <= spans,
        "traces_cli_renders": bool(rendered),
    }
    return _verdict(report, checks)


# ----------------------------------------------------------------------
# chaos: seeded faults against one serving app
# ----------------------------------------------------------------------
def chaos_soak(
    bundle, plan, *, clients: int, requests: int, seed: int,
    target: float, config=None,
) -> dict:
    """Soak ``bundle`` under the fault ``plan``; the ``repro chaos`` verdict.

    Passes with zero crashes, every degraded answer tagged and
    availability at ``target``.
    """
    from .serve import make_chaos_app, run_load

    print(f"chaos soak of {bundle.model_name}: {clients} clients x "
          f"{requests} rounds, plan {to_dict(plan)}")
    app, injector = make_chaos_app(bundle, plan, config=config)
    with app.engine:
        load = run_load(
            app.handle,
            num_nodes=bundle.num_nodes,
            num_features=bundle.num_features,
            start_step=app.store.newest_step + 1,
            num_clients=clients,
            requests_per_client=requests,
            seed=seed,
        )
    fallback = {
        name: int(app.registry.counter(series).value)
        for name, series in (
            ("stale", 'serve/fallback{rung="stale"}'),
            ("window_mean", 'serve/fallback{rung="window_mean"}'),
            ("unavailable", "serve/unavailable"),
            ("shed", "serve/shed"),
        )
    }
    print(load.render())
    print(f"  injected faults    {json.dumps(injector.snapshot(), sort_keys=True)}")
    print(f"  fallback rungs     {json.dumps(fallback, sort_keys=True)}")
    scenario = plan.scenario
    if scenario:
        print(f"  drop scenario      {scenario.get('name')} "
              f"({scenario.get('pattern')}, seed {scenario.get('seed')})")
    report = {
        "plan": to_dict(plan),
        "load": load.to_json_dict(),
        "injected": injector.snapshot(),
        "fallback": fallback,
        "availability_target": target,
    }
    checks = {
        "no_crashes": load.crashes == 0,
        "degraded_answers_tagged": load.untagged_degraded == 0,
        "availability_target": load.availability >= target,
    }
    return _verdict(report, checks)


def chaos_smoke(data, model, trainer) -> dict:
    from .reliability import FaultPlan

    plan = FaultPlan(
        seed=data.seed,
        latency_rate=CHAOS_LATENCY_RATE,
        latency_s=CHAOS_LATENCY_MS / 1e3,
        error_rate=CHAOS_ERROR_RATE,
        dropped_sensors=CHAOS_DROP_SENSORS,
    )
    return chaos_soak(
        _export(data, model), plan, clients=CHAOS_CLIENTS,
        requests=CHAOS_REQUESTS, seed=data.seed, target=AVAILABILITY_TARGET,
    )


# ----------------------------------------------------------------------
# fleet and SLO: scripted rollouts through the tenant routes
# ----------------------------------------------------------------------
def _tenant_driver(app, tenant: str, rng, clock: list | None = None):
    """Warm ``tenant``'s window, then return ``drive(rounds, tick_s=2.0)``.

    Each round POSTs the next full-network observation to
    ``/t/<tenant>/observe`` and GETs ``/t/<tenant>/forecast``; with a
    ``clock`` (a one-item list) every round first advances it by
    ``tick_s``. ``drive`` returns the forecast tally and the last
    ``Retry-After`` a 429 carried.
    """
    store = app.pool.runtime(tenant).store
    shape = (store.num_nodes, store.num_features)
    for offset in range(store.input_length):
        app.pool.observe(tenant, offset, rng.normal(60.0, 5.0, size=shape))
    next_step = [store.newest_step + 1]

    def drive(rounds: int, tick_s: float = 2.0) -> dict:
        counts = {"ok": 0, "degraded": 0, "rejected": 0,
                  "server_errors": 0, "other": 0, "retry_after": None}
        for _ in range(rounds):
            if clock is not None:
                clock[0] += tick_s
            values = rng.normal(60.0, 5.0, size=shape)
            body = json.dumps({"step": next_step[0], "values": values.tolist()})
            next_step[0] += 1
            app.handle("POST", f"/t/{tenant}/observe", body.encode())
            response = app.handle("GET", f"/t/{tenant}/forecast", None)
            if response.status == 200:
                counts["ok"] += 1
                counts["degraded"] += bool(response.headers.get("X-Degraded"))
            elif response.status == 429:
                counts["rejected"] += 1
                counts["retry_after"] = response.headers.get("Retry-After")
            elif response.status >= 500:
                counts["server_errors"] += 1
            else:
                counts["other"] += 1
        return counts

    return drive


def _canary(pool, tenant: str) -> dict | None:
    canary = pool.runtime(tenant).canary
    return canary.snapshot() if canary is not None else None


def fleet_smoke(data, model, trainer) -> dict:
    """Shadow, canary promotion, chaos rollback and quota in one pool.

    ``alpha`` serves a bundle exported at the global seed and ``beta``
    one exported at the next seed, behind the full
    :class:`~repro.serve.http.ServeApp` request path; the numbered
    comments below are the five phases.
    """
    from .reliability import ChaosModel, FaultPlan
    from .serve import CanaryConfig, EnginePool, ServeApp, ShadowConfig
    from .telemetry import MetricRegistry

    seed = data.seed
    bundle_a, bundle_b = _export(data, model), _export(data, model, seed_offset=1)
    print(f"fleet smoke: alpha={bundle_a.model_name} beta={bundle_b.model_name}, "
          f"{FLEET_ROUNDS} rounds per phase")
    pool = EnginePool(registry=MetricRegistry())
    pool.add_tenant("alpha", bundle_a, bundle_ref="bundle_a")
    pool.add_tenant("beta", bundle_b, bundle_ref="bundle_b")
    pool.add_tenant(
        "gamma", bundle_a, bundle_ref="bundle_a",
        quota_rps=0.001, quota_burst=3.0,
    )
    app = ServeApp(pool=pool)
    rng = np.random.default_rng(seed)

    report: dict = {"rounds": FLEET_ROUNDS, "seed": seed}
    with pool:
        alpha, beta, gamma = (
            _tenant_driver(app, tenant, rng) for tenant in ("alpha", "beta", "gamma")
        )

        # 1+2: shadow on alpha while beta's clean canary promotes.
        pool.start_shadow(
            "alpha", ShadowConfig(bundle="bundle_b", mirror_fraction=1.0),
            bundle=bundle_b,
        )
        pool.start_canary(
            "beta",
            CanaryConfig(
                bundle="bundle_a", stages=(0.5, 1.0), stage_requests=5,
                max_failure_ratio=0.5, min_failure_samples=10, seed=seed,
            ),
            bundle=bundle_a,
        )
        report["alpha_traffic"] = alpha(FLEET_ROUNDS)
        report["beta_traffic"] = beta(FLEET_ROUNDS)
        pool.drain_shadow()
        report["shadow"] = pool.stop_shadow("alpha")
        report["canary_clean"] = _canary(pool, "beta")
        report["beta_version"] = pool.runtime("beta").version

        # 3: chaos canary on alpha must roll back, not fail live traffic.
        injector = FaultPlan(seed=seed, error_rate=0.7, corrupt_rate=0.3).injector()
        pool.start_canary(
            "alpha",
            CanaryConfig(
                bundle="bundle_b", stages=(0.5, 1.0), stage_requests=50,
                max_failure_ratio=0.2, min_failure_samples=5, seed=seed,
            ),
            bundle=bundle_b,
            model=ChaosModel(bundle_b.model, injector),
        )
        report["alpha_chaos_traffic"] = alpha(FLEET_ROUNDS)
        report["canary_chaos"] = _canary(pool, "alpha")
        report["chaos_injected"] = injector.snapshot()

        # 4: quota exhaustion returns 429 + Retry-After.
        report["gamma_traffic"] = gamma(8)

        # 5: per-tenant series in the exposition.
        metrics = app.handle("GET", "/metrics", None).body.body
        needed_series = [
            'repro_fleet_requests_total{tenant="alpha"}',
            'repro_fleet_requests_total{tenant="beta"}',
            'repro_fleet_shadow_mirrored_total{tenant="alpha"}',
            'repro_fleet_rollbacks_total{tenant="alpha"}',
            'repro_fleet_promotions_total{tenant="beta"}',
            'repro_fleet_quota_rejected_total{tenant="gamma"}',
        ]
        report["missing_series"] = [s for s in needed_series if s not in metrics]

    checks = {
        "shadow_compared": report["shadow"]["compared"] > 0,
        "canary_promoted": (
            report["canary_clean"] is not None
            and report["canary_clean"]["state"] == "promoted"
            and report["beta_version"] > 1
        ),
        "canary_rolled_back": (
            report["canary_chaos"] is not None
            and report["canary_chaos"]["state"] == "rolled_back"
        ),
        "live_traffic_survived_chaos": (
            report["alpha_chaos_traffic"]["server_errors"] == 0
        ),
        "quota_429_with_retry_after": (
            report["gamma_traffic"]["rejected"] > 0
            and report["gamma_traffic"]["retry_after"] is not None
        ),
        "per_tenant_metrics": not report["missing_series"],
    }
    return _verdict(report, checks)


def _series_value(text: str, series: str) -> float | None:
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.split(" # ")[0].rsplit(" ", 1)[-1])
    return None


def slo_smoke(data, model, trainer) -> dict:
    """A seeded fault fires an SLO burn that clears and gates a canary.

    One tenant's model sits behind a seeded fault injector; the numbered
    comments below are the four phases. The app-level SLO engine runs on
    an injected clock with compressed windows (60s/600s), so phases 1–3
    take no wall time; the canary tracker keeps its production defaults
    on the real clock, which the request loop outruns.
    """
    from .reliability import ChaosModel, FaultPlan, ResiliencePolicy
    from .serve import CanaryConfig, EnginePool, ServeApp, ServeConfig
    from .telemetry import MetricRegistry
    from .telemetry.slo import BurnRule, SLOEngine, default_serving_objectives

    seed = data.seed
    bundle = _export(data, model)
    print(f"slo smoke: {bundle.model_name}, {SLO_ROUNDS} rounds per phase")
    # Injectable clock: requests are stamped by hand, and "waiting out"
    # the short window is a single assignment, not a real 60s sleep.
    clock = [0.0]
    slo = SLOEngine(
        default_serving_objectives(),
        rules=(
            BurnRule(
                "fast", short_s=60.0, long_s=600.0,
                burn_threshold=2.0, min_events=10,
            ),
        ),
        clock=lambda: clock[0],
        bucket_s=5.0,
    )

    # Benign plan first; swapping ``injector.plan`` mid-run toggles the
    # fault without rebuilding the engine (the injector re-reads it per
    # decision).
    injector = FaultPlan(seed=seed).injector()
    pool = EnginePool(registry=MetricRegistry())
    # Breaker off for the live tenant: its open window is real seconds,
    # which would keep recovery-phase answers degraded long after the
    # fault plan is restored. The smoke tests SLO window math, and the
    # clock it controls is the SLO engine's — not the breaker's.
    pool.add_tenant(
        "alpha", replace(bundle, model=ChaosModel(bundle.model, injector)),
        config=ServeConfig(resilience=ResiliencePolicy(breaker=False)),
        bundle_ref="bundle_a",
    )
    app = ServeApp(pool=pool, slo=slo)
    rng = np.random.default_rng(seed)

    report: dict = {"rounds": SLO_ROUNDS, "seed": seed}
    with pool:
        drive = _tenant_driver(app, "alpha", rng, clock=clock)

        # 1: clean traffic leaves every objective quiet.
        report["healthy_traffic"] = drive(SLO_ROUNDS)
        report["healthy_burning"] = slo.burning()

        # 2: seeded fault — forecasts degrade, a burn event must fire.
        injector.plan = FaultPlan(seed=seed, error_rate=0.9)
        report["fault_traffic"] = drive(SLO_ROUNDS)
        report["burning_during_fault"] = slo.burning()
        during = app.handle("GET", "/metrics", None).body.body
        report["burning_gauges_during_fault"] = {
            name: _series_value(during, f'repro_slo_burning{{slo="{name}"}}')
            for name in report["burning_during_fault"]
        }
        slo_during = app.handle("GET", "/slo", None)
        report["slo_endpoint_during_fault"] = {
            "status": slo_during.status,
            "burning": slo_during.body["slo"]["burning"],
        }

        # 3: restore the benign plan and jump past the short window —
        # the short-window burn rate collapses to 0 and the event clears.
        injector.plan = FaultPlan(seed=seed)
        clock[0] += 120.0
        report["recovery_traffic"] = drive(SLO_ROUNDS, tick_s=1.0)
        report["burning_after_recovery"] = slo.burning()
        report["burn_events_total"] = sum(
            tracker.fired_total for tracker in slo.trackers.values()
        )
        report["resolved_events"] = sum(
            1
            for tracker in slo.trackers.values()
            for event in tracker.events
            if event["state"] == "resolved"
        )

        # 4: a canary whose candidate errors must be SLO-gated. The
        # failure-ratio trigger is parked at 0.99 so the burn gate — not
        # the ratio check — is what rolls the stage back.
        canary_injector = FaultPlan(seed=seed + 1, error_rate=0.5).injector()
        pool.start_canary(
            "alpha",
            CanaryConfig(
                bundle="bundle_b", stages=(1.0,), stage_requests=10_000,
                max_failure_ratio=0.99, min_failure_samples=5, seed=seed,
            ),
            bundle=bundle,
            model=ChaosModel(bundle.model, canary_injector),
        )
        report["canary_traffic"] = drive(SLO_ROUNDS)
        report["canary"] = _canary(pool, "alpha")

        slo_response = app.handle("GET", "/slo", None)
        report["slo_endpoint"] = {
            "status": slo_response.status,
            "burning": slo_response.body["slo"]["burning"],
            "canaries": {
                name: {"state": entry["state"], "reason": entry["reason"]}
                for name, entry in slo_response.body.get("canaries", {}).items()
            },
        }
        metrics = app.handle("GET", "/metrics", None).body.body
        report["canary_burn_events_series"] = _series_value(
            metrics,
            'repro_slo_burn_events_total{slo="canary:alpha",tenant="alpha"}',
        )
        report["missing_series"] = [
            series
            for series in (
                'repro_slo_error_budget_remaining{slo="availability"}',
                'repro_slo_burning{slo="degraded_ratio"}',
                'repro_slo_burn_events_total{slo="canary:alpha",tenant="alpha"}',
            )
            if _series_value(metrics, series) is None
        ]

    print(f"  burn fired on: {report['burning_during_fault']}")
    if report["canary"] is not None:
        print(f"  canary: {report['canary']['state']} ({report['canary']['reason']})")
    canary_reason = (report["canary"] or {}).get("reason") or ""
    checks = {
        "healthy_no_burn": not report["healthy_burning"],
        "burn_fired": bool(report["burning_during_fault"]),
        "burn_on_slo_endpoint": (
            report["slo_endpoint_during_fault"]["status"] == 200
            and bool(report["slo_endpoint_during_fault"]["burning"])
        ),
        "burn_gauge_on_metrics": any(
            value == 1.0
            for value in report["burning_gauges_during_fault"].values()
        ),
        "burn_cleared": (
            not report["burning_after_recovery"]
            and report["resolved_events"] >= 1
            and report["burn_events_total"] >= 1
        ),
        "canary_rolled_back_on_slo": (
            report["canary"] is not None
            and report["canary"]["state"] == "rolled_back"
            and "SLO burn" in canary_reason
        ),
        "canary_on_slo_endpoint": (
            report["slo_endpoint"]["canaries"].get("alpha", {}).get("state")
            == "rolled_back"
        ),
        "canary_burn_on_metrics": (
            report["canary_burn_events_series"] is not None
            and report["canary_burn_events_series"] >= 1.0
        ),
        "slo_series_on_metrics": not report["missing_series"],
    }
    return _verdict(report, checks)


# ----------------------------------------------------------------------
# cluster and gauntlet: harnesses that live next to what they test
# ----------------------------------------------------------------------
def cluster_smoke(data, model, trainer) -> dict:
    from .serve.cluster import run_cluster_smoke

    print(f"cluster smoke: {CLUSTER_NODES} nodes x {CLUSTER_SHARDS} shards, "
          "worker processes")
    report = run_cluster_smoke(
        num_nodes=CLUSTER_NODES,
        num_shards=CLUSTER_SHARDS,
        seed=data.seed,
        availability_floor=AVAILABILITY_TARGET,
        requests_per_phase=CLUSTER_REQUESTS,
    )
    identity, chaos = report["identity"], report["chaos"]
    print(f"  identity max |diff| {identity['max_abs_diff']:.2e} "
          f"(tol {identity['tol']:.0e}, {identity['dtype']})")
    print(f"  forecast availability {chaos['forecast_availability']:.2%} "
          f"(victim shard {chaos['victim']}, warmed from {chaos['warmed']}, "
          f"{len(chaos['server_errors'])} server errors)")
    return report


def gauntlet_smoke(data, model, trainer) -> dict:
    from .experiments import run_gauntlet_smoke

    print(f"gauntlet smoke against {GAUNTLET_RECORD}")
    return run_gauntlet_smoke(
        GAUNTLET_RECORD, data_config=data, model_config=model,
        trainer_config=trainer, verbose=True,
    )


#: ``repro smoke <name>`` -> ``fn(data_config, model_config, trainer_config)``
SMOKES = {
    "serve": serve_smoke,
    "chaos": chaos_smoke,
    "fleet": fleet_smoke,
    "slo": slo_smoke,
    "cluster": cluster_smoke,
    "gauntlet": gauntlet_smoke,
}

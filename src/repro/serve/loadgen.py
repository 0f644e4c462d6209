"""Closed-loop load over the shared ``handle`` request surface.

:class:`~repro.serve.http.ServeApp`, the cluster's ``LocalCluster`` and
``ClusterSupervisor``, and the HTTP shard client all answer
``handle(method, path, body)``. :func:`run_load` drives any of them with
concurrent clients, each repeating one pair: ``POST /observe`` one
sensor reading at the next shared step, then ``GET /forecast?node=`` for
the same sensor. Consecutive forecasts see fresh state versions (they
cannot collapse into the cache) and concurrent clients give the
dispatcher real fusion opportunities. ``ServeApp`` ignores ``node`` and
forecasts the whole network; the cluster router uses it to pick the
owning shard. One :class:`LoadReport` scores every run: the availability
and degradation-tagging numbers the chaos gates read, and the forecast
latency and throughput the benches record.

:func:`compare_batched_sequential` runs the same workload against a
micro-batching engine and a ``max_batch_size=1`` baseline, which is the
committed ``BENCH_serve_latency`` comparison. :func:`make_chaos_app`
wraps a bundle in the seeded fault injectors from
:mod:`repro.reliability.chaos` for the chaos soak.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..reliability import ChaosModel, ChaosStore, FaultPlan, ResiliencePolicy
from ..telemetry import MetricRegistry
from .artifact import ModelBundle
from .config import ServeConfig
from .engine import ForecastEngine

__all__ = [
    "LoadReport",
    "run_load",
    "compare_batched_sequential",
    "make_chaos_app",
    "run_fleet_smoke",
    "run_slo_smoke",
    "zipf_node_sampler",
]


def zipf_node_sampler(
    num_nodes: int,
    exponent: float = 1.1,
    seed: int = 0,
):
    """Zipf-skewed node popularity: returns ``sample(size=None)``.

    Rank ``r`` (1-based) carries weight ``r**-exponent``; ranks are
    mapped onto node ids through a seeded permutation so the hot nodes
    are not simply the low ids (which would all land on shard 0 under a
    contiguous partition). ``sample()`` returns one ``int`` node id;
    ``sample(k)`` an ``ndarray`` of ``k`` ids. The sampler also exposes
    ``sample.weights`` (per-node probability, id order) for tests.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    rank_weights = ranks ** -float(exponent)
    rank_weights /= rank_weights.sum()
    rng = np.random.default_rng(seed)
    node_of_rank = rng.permutation(num_nodes)
    weights = np.zeros(num_nodes)
    weights[node_of_rank] = rank_weights

    def sample(size: int | None = None):
        picked = node_of_rank[rng.choice(num_nodes, size=size, p=rank_weights)]
        return int(picked) if size is None else picked

    sample.weights = weights
    sample.node_of_rank = node_of_rank
    return sample


@dataclass
class LoadReport:
    """Tally of one :func:`run_load` run.

    Every request lands in exactly one of ``ok`` (2xx), ``rejected``
    (429), ``client_errors`` (other 4xx), ``server_errors`` (5xx) or
    ``crashes`` (``handle`` raised). ``degraded`` counts forecast 2xx
    answered by a fallback rung; ``untagged_degraded`` counts forecast
    2xx whose ``X-Degraded`` header and body ``degraded`` field disagree.
    Throughput and latency are per forecast.
    """

    requests: int
    ok: int
    degraded: int
    untagged_degraded: int
    rejected: int
    client_errors: int
    server_errors: int
    crashes: int
    availability: float  # 1 - (server_errors + crashes) / requests
    duration_s: float
    throughput_rps: float  # forecasts per second
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return "\n".join([
            f"load: {self.requests} requests in {self.duration_s:.2f}s "
            f"({self.throughput_rps:.0f} forecasts/s)",
            f"  availability       {self.availability:.2%} "
            f"({self.server_errors} server errors, {self.crashes} crashes)",
            f"  degraded answers   {self.degraded} "
            f"({self.untagged_degraded} missing tags)",
            f"  rejected (backoff) {self.rejected}   "
            f"client errors {self.client_errors}",
            f"  forecast latency   p50 {self.latency_ms_p50:.1f}ms  "
            f"p95 {self.latency_ms_p95:.1f}ms  p99 {self.latency_ms_p99:.1f}ms",
        ])


_COUNTS = (
    "requests", "ok", "degraded", "untagged_degraded", "rejected",
    "client_errors", "server_errors", "crashes",
)


def _tally(counts: dict, response, is_forecast: bool) -> None:
    status = response.status
    if status >= 500:
        counts["server_errors"] += 1
    elif status == 429:
        counts["rejected"] += 1
    elif status >= 400:
        counts["client_errors"] += 1
    else:
        counts["ok"] += 1
        if is_forecast:
            tag = response.body.get("degraded") or None
            header = response.headers.get("X-Degraded") or None
            if tag or header:
                counts["degraded"] += 1
            if tag != header:
                counts["untagged_degraded"] += 1


def run_load(
    handle,
    *,
    num_nodes: int,
    num_features: int,
    start_step: int = 0,
    num_clients: int = 4,
    requests_per_client: int = 50,
    seed: int = 0,
) -> LoadReport:
    """Drive ``handle(method, path, body)`` with closed-loop clients.

    Each of the ``num_clients * requests_per_client`` observe/forecast
    pairs is drawn up front: pair ``i`` observes step ``start_step + i``
    for a zipf-popular node (exponent 1.1) with seeded features, so the
    request stream is a pure function of ``(seed, i)`` however the
    threads interleave. Clients claim the next pair from a shared
    cursor. ``run_load`` never starts or stops engines; the caller owns
    their lifecycle.
    """
    total = num_clients * requests_per_client
    nodes = zipf_node_sampler(num_nodes, seed=seed)(size=total)
    features = np.random.default_rng(seed + 1).normal(
        60.0, 5.0, size=(total, num_features)
    )
    bodies = [
        json.dumps({
            "step": start_step + i,
            "node": int(nodes[i]),
            "features": features[i].tolist(),
        }).encode()
        for i in range(total)
    ]
    counts = [dict.fromkeys(_COUNTS, 0) for _ in range(num_clients)]
    latencies: list[list[float]] = [[] for _ in range(num_clients)]
    cursor = [0]
    lock = threading.Lock()
    start_barrier = threading.Barrier(num_clients + 1)

    def send(c: dict, method: str, path: str, body) -> bool:
        c["requests"] += 1
        try:
            response = handle(method, path, body)
        except Exception:
            c["crashes"] += 1
            return False
        _tally(c, response, is_forecast=method == "GET")
        return True

    def client(idx: int) -> None:
        c = counts[idx]
        start_barrier.wait()
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= total:
                return
            send(c, "POST", "/observe", bodies[i])
            began = time.perf_counter()
            if send(c, "GET", f"/forecast?node={nodes[i]}", None):
                latencies[idx].append((time.perf_counter() - began) * 1e3)

    threads = [
        threading.Thread(target=client, args=(idx,), daemon=True)
        for idx in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - begin

    tally = {key: sum(c[key] for c in counts) for key in _COUNTS}
    flat = np.array([ms for per_client in latencies for ms in per_client])
    requests = tally["requests"]
    bad = tally["server_errors"] + tally["crashes"]

    def percentile(q: float) -> float:
        return float(np.percentile(flat, q)) if flat.size else 0.0

    return LoadReport(
        **tally,
        availability=float(1.0 - bad / requests) if requests else 1.0,
        duration_s=float(duration),
        throughput_rps=float(total / duration) if duration > 0 else 0.0,
        latency_ms_mean=float(flat.mean()) if flat.size else 0.0,
        latency_ms_p50=percentile(50),
        latency_ms_p95=percentile(95),
        latency_ms_p99=percentile(99),
    )


def compare_batched_sequential(
    bundle: ModelBundle,
    num_clients: int = 8,
    requests_per_client: int = 40,
    max_batch_size: int = 8,
    max_wait_s: float = 0.005,
    seed: int = 0,
    plan: bool = True,
) -> dict:
    """The headline serving benchmark: micro-batched vs sequential.

    Both runs drive a :class:`ServeApp` over identical fresh stores and
    workloads; the sequential baseline is the same engine restricted to
    ``max_batch_size=1`` (one forward per request, same threading and
    cache). ``plan=False`` pins both engines to the eager forward,
    isolating the micro-batching effect from traced-plan acceleration.
    Each side's payload adds the engine counters from its own registry
    to the load report; ``requests`` counts observes and forecasts and
    ``errors`` every non-2xx answer or crash.
    """
    from .http import ServeApp  # here to avoid a module-import cycle

    sides = {}
    for mode, batch_size, wait in (
        ("sequential", 1, 0.0),
        ("batched", max_batch_size, max_wait_s),
    ):
        registry = MetricRegistry()  # isolate counters per run
        engine = ForecastEngine(
            model=bundle.model,
            scaler=bundle.scaler,
            store=bundle.make_store(),
            max_batch_size=batch_size,
            max_wait_s=wait,
            registry=registry,
            plan=plan,
        )
        app = ServeApp(bundle, engine=engine, registry=registry)
        with engine:
            report = run_load(
                app.handle,
                num_nodes=bundle.num_nodes,
                num_features=bundle.num_features,
                start_step=engine.store.newest_step + 1,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
                seed=seed,
            )
        cache_hits = int(registry.counter("serve/cache_hits").value)
        answered = int(registry.counter("serve/requests").value)
        sides[mode] = {
            "mode": mode,
            "num_clients": num_clients,
            "requests": report.requests,
            "errors": report.requests - report.ok,
            "duration_s": report.duration_s,
            "throughput_rps": report.throughput_rps,
            "latency_ms_mean": report.latency_ms_mean,
            "latency_ms_p50": report.latency_ms_p50,
            "latency_ms_p95": report.latency_ms_p95,
            "latency_ms_p99": report.latency_ms_p99,
            "forwards": int(registry.counter("serve/forwards").value),
            "batches": int(registry.counter("serve/batches").value),
            "mean_batch_size": float(registry.histogram("serve/batch_size").mean),
            "cache_hits": cache_hits,
            "cache_hit_ratio": float(cache_hits / answered) if answered else 0.0,
        }
    sequential_rps = sides["sequential"]["throughput_rps"]
    ratio = (
        sides["batched"]["throughput_rps"] / sequential_rps
        if sequential_rps > 0
        else 0.0
    )
    return {**sides, "batched_over_sequential_throughput": float(ratio)}


def make_chaos_app(
    bundle: ModelBundle,
    plan: FaultPlan,
    config: ServeConfig | None = None,
    registry: MetricRegistry | None = None,
):
    """A :class:`ServeApp` whose model and store misbehave per ``plan``.

    Returns ``(app, injector)`` — the injector exposes the fault counts
    for the soak report. The wrappers sit at the two seams the engine
    trusts (model forward, observation path); everything else is the
    production request path.
    """
    from .http import ServeApp  # here to avoid a module-import cycle

    config = config if config is not None else ServeConfig()
    registry = registry if registry is not None else MetricRegistry()
    injector = plan.injector()
    store = ChaosStore(bundle.make_store(registry=registry), injector)
    engine = ForecastEngine(
        model=ChaosModel(bundle.model, injector),
        scaler=bundle.scaler,
        store=store,
        max_batch_size=config.max_batch_size,
        max_wait_s=config.max_wait_s,
        cache_size=config.cache_size,
        registry=registry,
        policy=config.resilience,
    )
    app = ServeApp(
        bundle, store=store, engine=engine, registry=registry, config=config
    )
    return app, injector


# ----------------------------------------------------------------------
# Fleet smoke
# ----------------------------------------------------------------------
def run_fleet_smoke(
    bundle_a: ModelBundle,
    bundle_b: ModelBundle,
    rounds: int = 120,
    seed: int = 0,
    value_scale: float = 60.0,
    registry: MetricRegistry | None = None,
) -> dict:
    """End-to-end fleet exercise: two tenants, shadow, canary, quota.

    Boots a two-tenant pool (``alpha`` on ``bundle_a``, ``beta`` on
    ``bundle_b``) behind the full :class:`~repro.serve.http.ServeApp`
    request path and checks the rollout machinery in one pass:

    1. a shadow of ``bundle_b`` mirrors all of ``alpha``'s traffic and
       must record divergence comparisons without touching live answers;
    2. a canary of ``bundle_a`` on ``beta`` must **promote** on clean
       traffic (bumping the tenant version);
    3. a canary poisoned by a seeded :class:`~repro.reliability.chaos.
       FaultPlan` on ``alpha`` must **roll back** automatically;
    4. a quota-capped third tenant must get a 429 with ``Retry-After``;
    5. ``/metrics`` must expose per-tenant ``fleet_*`` series.

    Returns a JSON-ready report; ``report["passed"]`` gates CI.
    """
    from .config import CanaryConfig, ShadowConfig
    from .fleet import EnginePool
    from .http import ServeApp

    registry = registry if registry is not None else MetricRegistry()
    pool = EnginePool(registry=registry)
    pool.add_tenant("alpha", bundle_a, bundle_ref="bundle_a")
    pool.add_tenant("beta", bundle_b, bundle_ref="bundle_b")
    pool.add_tenant(
        "gamma", bundle_a, bundle_ref="bundle_a",
        quota_rps=0.001, quota_burst=3.0,
    )
    app = ServeApp(pool=pool)

    rng = np.random.default_rng(seed)
    next_step: dict[str, int] = {}

    def warm(tenant: str) -> None:
        runtime = pool.runtime(tenant)
        store = runtime.store
        for offset in range(store.input_length):
            values = rng.normal(
                value_scale, 5.0, size=(store.num_nodes, store.num_features)
            )
            pool.observe(tenant, offset, values)
        next_step[tenant] = store.newest_step + 1

    def drive(tenant: str, n: int) -> dict:
        counts = {"ok": 0, "rejected": 0, "server_errors": 0, "other": 0}
        runtime = pool.runtime(tenant)
        retry_after = None
        for _ in range(n):
            step = next_step[tenant]
            next_step[tenant] += 1
            values = rng.normal(
                value_scale, 5.0,
                size=(runtime.store.num_nodes, runtime.store.num_features),
            )
            body = json.dumps({"step": step, "values": values.tolist()}).encode()
            app.handle("POST", f"/t/{tenant}/observe", body)
            response = app.handle("GET", f"/t/{tenant}/forecast", None)
            if response.status == 200:
                counts["ok"] += 1
            elif response.status == 429:
                counts["rejected"] += 1
                retry_after = response.headers.get("Retry-After")
            elif response.status >= 500:
                counts["server_errors"] += 1
            else:
                counts["other"] += 1
        counts["retry_after"] = retry_after
        return counts

    report: dict = {"rounds": rounds, "seed": seed}
    with pool:
        for tenant in ("alpha", "beta", "gamma"):
            warm(tenant)

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
        report["alpha_traffic"] = drive("alpha", rounds)
        report["beta_traffic"] = drive("beta", rounds)
        pool.drain_shadow()
        report["shadow"] = pool.stop_shadow("alpha")
        beta = pool.runtime("beta")
        report["canary_clean"] = (
            beta.canary.snapshot() if beta.canary is not None else None
        )
        report["beta_version"] = beta.version

        # 3: chaos canary on alpha must roll back, not fail live traffic.
        plan = FaultPlan(seed=seed, error_rate=0.7, corrupt_rate=0.3)
        injector = plan.injector()
        pool.start_canary(
            "alpha",
            CanaryConfig(
                bundle="bundle_b", stages=(0.5, 1.0), stage_requests=50,
                max_failure_ratio=0.2, min_failure_samples=5, seed=seed,
            ),
            bundle=bundle_b,
            model=ChaosModel(bundle_b.model, injector),
        )
        report["alpha_chaos_traffic"] = drive("alpha", rounds)
        alpha = pool.runtime("alpha")
        report["canary_chaos"] = (
            alpha.canary.snapshot() if alpha.canary is not None else None
        )
        report["chaos_injected"] = injector.snapshot()

        # 4: quota exhaustion returns 429 + Retry-After.
        report["gamma_traffic"] = drive("gamma", 8)

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
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report


# ----------------------------------------------------------------------
# SLO smoke
# ----------------------------------------------------------------------
def run_slo_smoke(
    bundle: ModelBundle,
    rounds: int = 30,
    seed: int = 0,
    value_scale: float = 60.0,
    registry: MetricRegistry | None = None,
) -> dict:
    """Seeded-fault SLO exercise: a burn event fires, clears, and gates a canary.

    Drives the full :class:`~repro.serve.http.ServeApp` request path in
    four phases against a single labelled tenant whose model sits behind
    a seeded :class:`~repro.reliability.chaos.FaultInjector`:

    1. **healthy** — clean traffic; nothing may burn;
    2. **fault** — the injector's plan is swapped to a high error rate,
       so forecasts fall back to degraded answers and a burn event must
       fire (visible on ``GET /slo`` and as ``repro_slo_*`` series on
       ``/metrics``);
    3. **recovery** — the benign plan is restored and the clock jumps
       past the short window, so the event must resolve;
    4. **canary gate** — a canary rollout whose candidate model errors
       must be rolled back by the SLO-burn gate (the failure-*ratio*
       threshold is set so high it cannot be the trigger), with the
       rollback reason citing the burn and the ``canary:alpha`` tracker
       series landing on ``/metrics``.

    The app-level SLO engine runs on an injected clock with compressed
    windows (60s/600s), so phases 1–3 are deterministic and take no wall
    time; the canary tracker uses its production defaults on the real
    clock, which the request loop outruns by orders of magnitude.

    Returns a JSON-ready report; ``report["passed"]`` gates CI.
    """
    from ..telemetry.slo import BurnRule, SLOEngine, default_serving_objectives
    from .config import CanaryConfig
    from .fleet import EnginePool
    from .http import ServeApp

    registry = registry if registry is not None else MetricRegistry()

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
    # Breaker off for the live tenant: its open window is real seconds,
    # which would keep recovery-phase answers degraded long after the
    # fault plan is restored. The smoke tests SLO window math, and the
    # clock it controls is the SLO engine's — not the breaker's.
    config = ServeConfig(
        resilience=ResiliencePolicy(breaker=False),
    )
    store = ChaosStore(bundle.make_store(registry=registry), injector)
    pool = EnginePool(registry=registry)
    engine = ForecastEngine(
        model=ChaosModel(bundle.model, injector),
        scaler=bundle.scaler,
        store=store,
        max_batch_size=config.max_batch_size,
        max_wait_s=config.max_wait_s,
        cache_size=config.cache_size,
        registry=registry,
        policy=config.resilience,
        labels={"tenant": "alpha"},
        name="model:alpha",
    )
    pool.add_tenant(
        "alpha", bundle, config=config, bundle_ref="bundle_a",
        store=store, engine=engine,
    )
    app = ServeApp(pool=pool, slo=slo)

    rng = np.random.default_rng(seed)
    runtime = pool.runtime("alpha")
    next_step = [0]

    def drive(n: int, tick_s: float = 2.0) -> dict:
        counts = {"ok": 0, "degraded": 0, "rejected": 0, "server_errors": 0}
        for _ in range(n):
            clock[0] += tick_s
            step = next_step[0]
            next_step[0] += 1
            values = rng.normal(
                value_scale, 5.0,
                size=(runtime.store.num_nodes, runtime.store.num_features),
            )
            body = json.dumps({"step": step, "values": values.tolist()}).encode()
            app.handle("POST", "/t/alpha/observe", body)
            response = app.handle("GET", "/t/alpha/forecast", None)
            if response.status == 200:
                counts["ok"] += 1
                if response.headers.get("X-Degraded"):
                    counts["degraded"] += 1
            elif response.status == 429:
                counts["rejected"] += 1
            elif response.status >= 500:
                counts["server_errors"] += 1
        return counts

    def series_value(text: str, series: str) -> float | None:
        for line in text.splitlines():
            if line.startswith(series + " "):
                return float(line.split(" # ")[0].rsplit(" ", 1)[-1])
        return None

    report: dict = {"rounds": rounds, "seed": seed}
    with pool:
        for offset in range(runtime.store.input_length):
            values = rng.normal(
                value_scale, 5.0,
                size=(runtime.store.num_nodes, runtime.store.num_features),
            )
            pool.observe("alpha", offset, values)
        next_step[0] = runtime.store.newest_step + 1

        # 1: clean traffic leaves every objective quiet.
        report["healthy_traffic"] = drive(rounds)
        report["healthy_burning"] = slo.burning()

        # 2: seeded fault — forecasts degrade, a burn event must fire.
        injector.plan = FaultPlan(seed=seed, error_rate=0.9)
        report["fault_traffic"] = drive(rounds)
        report["burning_during_fault"] = slo.burning()
        during = app.handle("GET", "/metrics", None).body.body
        report["burning_gauges_during_fault"] = {
            name: series_value(during, f'repro_slo_burning{{slo="{name}"}}')
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
        report["recovery_traffic"] = drive(rounds, tick_s=1.0)
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
        report["canary_traffic"] = drive(rounds)
        canary = runtime.canary
        report["canary"] = canary.snapshot() if canary is not None else None

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
        report["canary_burn_events_series"] = series_value(
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
            if series_value(metrics, series) is None
        ]

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
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report

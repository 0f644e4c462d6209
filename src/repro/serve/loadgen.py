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
:mod:`repro.reliability.chaos` for ``repro chaos`` and the chaos smoke.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..reliability import ChaosModel, ChaosStore, FaultPlan
from ..telemetry import MetricRegistry
from .artifact import ModelBundle
from .config import ServeConfig
from .engine import ForecastEngine

__all__ = [
    "LoadReport",
    "run_load",
    "compare_batched_sequential",
    "make_chaos_app",
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
    bundle: ModelBundle, plan: FaultPlan, config: ServeConfig | None = None
):
    """A :class:`ServeApp` whose model and store misbehave per ``plan``.

    Returns ``(app, injector)`` — the injector exposes the fault counts
    for the soak report. The wrappers sit at the two seams the engine
    trusts (model forward, observation path); everything else is the
    production request path.
    """
    from .http import ServeApp  # here to avoid a module-import cycle

    config = config if config is not None else ServeConfig()
    registry = MetricRegistry()
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

"""The cluster front tier: fan-out writes, scatter-gather reads.

The :class:`ClusterRouter` holds no model and no state — it owns the
:class:`~repro.serve.cluster.ShardPlan`, one client per shard, one
:class:`~repro.reliability.CircuitBreaker` per shard, and a small
last-known-rows cache used as the final failover rung. Request routing:

* ``POST /observe`` — per-sensor bodies fan to **every holder** of the
  node (owner + halo replicas) so shard-local windows stay coherent;
  full-network bodies broadcast. Accepted if any holder acked; all
  holders down → 503.
* ``GET /forecast?node=N`` — owner first, then halo replicas (tagged
  ``failover``), then the router's stale row (tagged ``stale``).
* ``GET /forecast`` — scatter-gather of every shard's owned rows under
  per-shard deadlines; a dead shard's rows come from replicas retaining
  them, then the stale cache, then ``null`` (tagged ``partial``) — one
  shard down is a degraded 200, never a 500.
* ``GET /healthz`` / ``GET /metrics`` — aggregate across shards; shard
  series stay disjoint thanks to per-shard ``{shard="sN"}`` labels. A
  shard that fails its scrape mid-restart increments
  ``cluster_shard_scrape_failures_total{shard="sN"}`` and the merged
  exposition is served partial rather than erroring.
* ``GET /traces`` — merged traces: the router's own spans stitched with
  every live shard's ``/traces`` buffer into single cross-process trees
  (the router injects ``traceparent`` on every fan-out leg).
* ``GET /slo`` — the router-level SLO engine's burn/budget snapshot.
* ``GET /profile`` — collapsed-stack flame data merged across the
  router and every shard whose continuous profiler is on, each stack
  prefixed with its owning process label.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ...autodiff import default_dtype
from ...codec import to_dict
from ...errors import ServeError
from ...reliability import Deadline
from ...telemetry import (
    ContinuousProfiler,
    MetricRegistry,
    SLOEngine,
    TraceCollector,
    Tracer,
    default_serving_objectives,
    inject_trace_context,
    merge_collapsed,
)
from ...telemetry.prometheus import render_prometheus
from ..http import PlainText, Request, Response, Route, dispatch, route_table
from .config import ClusterConfig
from .sharding import ShardPlan
from .transport import ShardUnavailable

__all__ = ["ClusterRouter", "merge_prometheus"]


def merge_prometheus(texts: list[str]) -> str:
    """Merge shard expositions: one HELP/TYPE per metric, all series.

    Series collisions cannot happen across healthy shards because every
    shard labels its series with its own ``shard="sN"`` — exact
    duplicate lines (e.g. re-scraped constants) are dropped anyway.
    """
    header_seen: set[str] = set()
    series_seen: set[str] = set()
    out: list[str] = []
    for text in texts:
        for line in text.splitlines():
            if line.startswith("# "):
                if line not in header_seen:
                    header_seen.add(line)
                    out.append(line)
            elif line:
                if line not in series_seen:
                    series_seen.add(line)
                    out.append(line)
    return "\n".join(out) + "\n" if out else ""


class ClusterRouter:
    """Thin stdlib front tier over the shard fleet."""

    def __init__(
        self,
        plan: ShardPlan,
        clients: list,
        config: ClusterConfig | None = None,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        if len(clients) != plan.num_shards:
            raise ValueError(
                f"need one client per shard: plan has {plan.num_shards}, "
                f"got {len(clients)}"
            )
        self.plan = plan
        self.clients = list(clients)
        self.config = config if config is not None else ClusterConfig(
            num_shards=plan.num_shards
        )
        self.registry = registry if registry is not None else MetricRegistry()
        serve = self.config.serve
        self.tracer = tracer if tracer is not None else Tracer(
            sample_rate=serve.trace_sample, service="router"
        )
        self.slo = (
            SLOEngine(default_serving_objectives(latency_ms=serve.slo_latency_ms))
            if serve.slo_enabled
            else None
        )
        self.profiler: ContinuousProfiler | None = None
        if serve.profile_hz > 0:
            self.profiler = ContinuousProfiler(
                interval_s=1.0 / serve.profile_hz, registry=self.registry
            ).start()
        policy = self.config.serve.resilience
        self.breakers = [
            policy.make_breaker(f"shard{s}", registry=self.registry)
            for s in range(plan.num_shards)
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, plan.num_shards),
            thread_name_prefix="cluster-router",
        )
        # Last good per-node forecast rows: the final failover rung when
        # no live shard holds a node. {node: (newest_step, [row, ...])}
        self._stale_rows: dict[int, tuple[int, list]] = {}
        self._stale_lock = threading.Lock()
        # The scrapes answer span-free: tracing them would pollute the
        # very buffers they read.
        self.routes = route_table(
            Route("POST", "/observe", self._observe_route),
            Route("GET", "/forecast", self._forecast_route),
            Route("GET", "/healthz", lambda r: self.healthz()),
            Route("GET", "/metrics", lambda r: self.metrics(), traced=False),
            Route("GET", "/traces", lambda r: self.traces(r.arg("limit", int)),
                  traced=False),
            Route("GET", "/slo", lambda r: self.slo_status(), traced=False),
            Route("GET", "/profile", lambda r: self.profile(), traced=False),
            Route("GET", "/shards", lambda r: self.shards(), traced=False),
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        # wait=True: an in-flight fan-out task may be inside a shard
        # forward (which holds the global inference-mode flag); returning
        # while it runs would let it race a later training backward in
        # the same process. Deadlines bound how long this can block.
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self.profiler is not None:
            self.profiler.stop()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def retarget(self, shard: int, client) -> None:
        """Swap the client for ``shard`` (a restarted worker's address).

        The shard's breaker is rebuilt closed: the old one accumulated
        the dead worker's failures and would keep skipping the fresh one
        until its cool-off elapsed.
        """
        self.clients[shard] = client
        policy = self.config.serve.resilience
        self.breakers[shard] = policy.make_breaker(
            f"shard{shard}", registry=self.registry
        )

    # -- one guarded shard call ----------------------------------------
    def _call(
        self,
        shard: int,
        method: str,
        path: str,
        body: bytes | None = None,
        deadline: Deadline | None = None,
        parent=None,
        attributes: dict | None = None,
    ) -> Response | None:
        """One breaker-gated, deadline-clamped request; None on failure.

        With a trace parent (explicit, or the calling thread's current
        span) the hop runs under a ``shard_call`` span and the outgoing
        request carries ``traceparent``, stitching the shard's spans
        into the router's trace. Meta scrapes (/metrics, /traces, ...)
        have no parent and stay span-free.
        """
        breaker = self.breakers[shard]
        if breaker is not None and not breaker.allow():
            self.registry.counter(
                f'cluster/shard_skipped{{shard="s{shard}"}}'
            ).inc()
            return None
        timeout = self.config.shard_deadline_s
        if deadline is not None:
            timeout = deadline.clamp(timeout)
            if timeout <= 0:
                return None
        parent = parent if parent is not None else Tracer.current_context()
        if parent is not None:
            attrs = {"shard": f"s{shard}", "path": path.split("?", 1)[0]}
            if attributes:
                attrs.update(attributes)
            span_cm = self.tracer.span("shard_call", parent=parent, attributes=attrs)
        else:
            span_cm = contextlib.nullcontext()
        with span_cm as span:
            headers = (
                inject_trace_context(context=span.context)
                if span is not None
                else None
            )
            try:
                response = self.clients[shard].request(
                    method, path, body=body, timeout=timeout, headers=headers
                )
            except (ShardUnavailable, ServeError, OSError):
                if breaker is not None:
                    breaker.record_failure()
                self.registry.counter(
                    f'cluster/shard_errors{{shard="s{shard}"}}'
                ).inc()
                if span is not None:
                    span.status = "error"
                return None
            if breaker is not None:
                if response.status >= 500:
                    breaker.record_failure()
                else:
                    breaker.record_success()
            if span is not None:
                span.set_attribute("status", response.status)
                if response.status >= 500:
                    span.status = "error"
            return response

    def _fan(
        self,
        targets: list[int],
        method: str,
        path: str,
        body: bytes | None = None,
        attributes: dict | None = None,
    ) -> dict[int, Response | None]:
        """Issue one request per target shard concurrently.

        The caller's span context is captured *here*, on the request
        thread — the executor threads do not inherit the contextvar, so
        each ``_call`` gets the parent passed explicitly.
        """
        parent = Tracer.current_context()
        deadline = Deadline(self.config.shard_deadline_s * 2)
        futures = {
            shard: self._executor.submit(
                self._call, shard, method, path, body, deadline, parent, attributes
            )
            for shard in targets
        }
        return {shard: future.result() for shard, future in futures.items()}

    # -- stale cache ---------------------------------------------------
    def _remember_rows(
        self, nodes: list[int], prediction: list, newest_step: int
    ) -> None:
        """Cache per-node rows from a clean (non-degraded) answer."""
        with self._stale_lock:
            for i, node in enumerate(nodes):
                rows = [step_rows[i] for step_rows in prediction]
                self._stale_rows[int(node)] = (int(newest_step), rows)

    def _stale_for(self, node: int) -> tuple[int, list] | None:
        with self._stale_lock:
            return self._stale_rows.get(int(node))

    # -- observe -------------------------------------------------------
    def _bad_node(self, node: int) -> Response:
        return Response(404, {
            "error": f"unknown node {node}",
            "shard_map": {
                "num_nodes": self.plan.num_nodes,
                "num_shards": self.plan.num_shards,
                "hint": "node ids are global integers in "
                f"[0, {self.plan.num_nodes})",
            },
        })

    def observe(self, payload: dict, body: bytes) -> Response:
        if "node" in payload:
            node = int(payload["node"])
            if not 0 <= node < self.plan.num_nodes:
                return self._bad_node(node)
            # Duplicate halo-node observations to every holder so the
            # replicas' windows track the owner's.
            targets = list(self.plan.holders_of(node))
        elif "values" in payload:
            targets = list(range(self.plan.num_shards))
        else:
            return Response(
                400, {"error": "observation needs 'values' or 'node'+'features'"}
            )
        responses = self._fan(targets, "POST", "/observe", body)
        acks = {
            f"s{shard}": (resp is not None and resp.status == 200)
            for shard, resp in responses.items()
        }
        accepted = [s for s, ok in acks.items() if ok]
        rejected = [
            resp for resp in responses.values()
            if resp is not None and resp.status == 429
        ]
        if not accepted:
            if rejected:
                return Response(
                    429, {"error": "all holders saturated", "shards": acks},
                    rejected[0].headers,
                )
            self.registry.counter("cluster/observe_failed").inc()
            return Response(
                503,
                {"error": "no shard accepted the observation", "shards": acks},
                {"Retry-After": "1"},
            )
        headers = {}
        if len(accepted) < len(targets):
            headers["X-Degraded"] = "partial-write"
        first_ok = next(
            resp for resp in responses.values()
            if resp is not None and resp.status == 200
        )
        out = {"accepted": True, "shards": acks}
        if isinstance(first_ok.body, dict):
            out["newest_step"] = first_ok.body.get("newest_step")
        return Response(200, out, headers)

    # -- forecast ------------------------------------------------------
    def forecast_node(self, node: int, horizon: int | None) -> Response:
        if not 0 <= node < self.plan.num_nodes:
            return self._bad_node(node)
        deadline = Deadline(self.config.shard_deadline_s * 2)
        query = f"/forecast?nodes={node}"
        if horizon is not None:
            query += f"&horizon={horizon}"
        owner = self.plan.owner(node)
        for holder in self.plan.holders_of(node):
            response = self._call(
                holder, "GET", query, None, deadline,
                attributes={"failover": True} if holder != owner else None,
            )
            if response is None or response.status != 200:
                continue
            body = dict(response.body)
            degraded = body.get("degraded")
            if holder != owner:
                degraded = degraded or "failover"
                self.registry.counter("cluster/failovers").inc()
            body["degraded"] = degraded
            body["node"] = node
            if not degraded:
                self._remember_rows(
                    [node], body["prediction"], body.get("newest_step", -1)
                )
            headers = {"X-Degraded": degraded} if degraded else {}
            return Response(200, body, headers)
        stale = self._stale_for(node)
        if stale is not None:
            newest, rows = stale
            self.registry.counter("cluster/stale_served").inc()
            return Response(200, {
                "node": node,
                "newest_step": newest,
                "degraded": "stale",
                "prediction": [[row] for row in rows],
                "nodes": [node],
            }, {"X-Degraded": "stale"})
        self.registry.counter("cluster/forecast_failed").inc()
        return Response(
            503,
            {"error": f"no live shard holds node {node} and no stale answer"},
            {"Retry-After": "1"},
        )

    def forecast_all(self, horizon: int | None) -> Response:
        suffix = f"?horizon={horizon}" if horizon is not None else ""
        targets = list(range(self.plan.num_shards))
        responses = self._fan(targets, "GET", f"/forecast{suffix}")
        num_nodes = self.plan.num_nodes
        horizon_seen: int | None = None
        rows: dict[int, list] = {}
        shard_status: dict[str, dict] = {}
        newest = -1
        degraded: str | None = None
        failed: list[int] = []
        for shard, resp in responses.items():
            key = f"s{shard}"
            if resp is None or resp.status != 200 or not isinstance(resp.body, dict):
                shard_status[key] = {
                    "ok": False,
                    "status": None if resp is None else resp.status,
                }
                failed.append(shard)
                continue
            body = resp.body
            shard_status[key] = {
                "ok": True,
                "version": body.get("version"),
                "degraded": body.get("degraded"),
            }
            if body.get("degraded"):
                degraded = degraded or str(body["degraded"])
            horizon_seen = body["horizon"]
            newest = max(newest, int(body.get("newest_step", -1)))
            prediction = body["prediction"]
            for i, node in enumerate(body["nodes"]):
                rows[int(node)] = [step_rows[i] for step_rows in prediction]
        # Replica retarget: pull a dead shard's owned rows from live
        # shards whose halo retains them.
        for shard in failed:
            missing = [n for n in self.plan.nodes_of(shard) if n not in rows]
            if not missing:
                continue
            for replica, resp in responses.items():
                if replica in failed or not missing:
                    continue
                held = [
                    n for n in missing
                    if n in set(self.plan.retained_of(replica))
                ]
                if not held:
                    continue
                csv = ",".join(str(n) for n in held)
                fallback = self._call(
                    replica, "GET",
                    f"/forecast?nodes={csv}{suffix.replace('?', '&')}",
                    attributes={"failover": True},
                )
                if fallback is None or fallback.status != 200:
                    continue
                degraded = degraded or "failover"
                self.registry.counter("cluster/failovers").inc()
                prediction = fallback.body["prediction"]
                for i, node in enumerate(fallback.body["nodes"]):
                    rows[int(node)] = [step_rows[i] for step_rows in prediction]
                missing = [n for n in missing if n not in rows]
        if not rows:
            self.registry.counter("cluster/forecast_failed").inc()
            return Response(
                503,
                {"error": "no shard answered the scatter-gather",
                 "shards": shard_status},
                {"Retry-After": "1"},
            )
        # Assemble; still-missing rows fall back to stale, then null.
        horizon_out = horizon_seen if horizon_seen is not None else 1
        assembled: list[list] = [
            [None] * num_nodes for _ in range(horizon_out)
        ]
        null_nodes: list[int] = []
        for node in range(num_nodes):
            node_rows = rows.get(node)
            if node_rows is None:
                stale = self._stale_for(node)
                if stale is not None:
                    node_rows = stale[1][:horizon_out]
                    degraded = degraded or "stale"
                    self.registry.counter("cluster/stale_served").inc()
                else:
                    null_nodes.append(node)
                    degraded = degraded or "partial"
                    continue
            for t in range(min(horizon_out, len(node_rows))):
                assembled[t][node] = node_rows[t]
        if not degraded and len(rows) == num_nodes:
            clean_nodes = sorted(rows)
            self._remember_rows(
                clean_nodes,
                [[rows[n][t] for n in clean_nodes] for t in range(horizon_out)],
                newest,
            )
        body_out = {
            "horizon": horizon_out,
            "num_nodes": num_nodes,
            "newest_step": newest,
            "degraded": degraded,
            "missing_nodes": null_nodes,
            "shards": shard_status,
            "prediction": assembled,
        }
        headers = {"X-Degraded": degraded} if degraded else {}
        return Response(200, body_out, headers)

    # -- health / metrics ----------------------------------------------
    def healthz(self) -> Response:
        responses = self._fan(
            list(range(self.plan.num_shards)), "GET", "/healthz"
        )
        shards: dict[str, dict] = {}
        worst = "ok"
        for shard, resp in responses.items():
            key = f"s{shard}"
            if resp is None or not isinstance(resp.body, dict):
                shards[key] = {"status": "down"}
                worst = "degraded"
                continue
            status = resp.body.get("status", "unknown")
            shards[key] = {
                "status": status,
                "warm": resp.body.get("warm"),
                "version": resp.body.get("version"),
                "newest_step": resp.body.get("newest_step"),
            }
            if status != "ok":
                worst = "degraded"
        return Response(200, {
            "status": worst,
            "num_shards": self.plan.num_shards,
            "num_nodes": self.plan.num_nodes,
            "halo_hops": self.plan.halo_hops,
            "shards": shards,
        })

    def metrics(self) -> Response:
        responses = self._fan(
            list(range(self.plan.num_shards)), "GET", "/metrics"
        )
        texts = []
        for shard in sorted(responses):
            resp = responses[shard]
            if resp is not None and isinstance(resp.body, PlainText):
                texts.append(resp.body.body)
            else:
                # Mid-restart worker: count the failed scrape and keep
                # serving the other shards' series — a partial merged
                # exposition beats a 500 to the scraper.
                self.registry.counter(
                    f'cluster/shard_scrape_failures{{shard="s{shard}"}}'
                ).inc()
        if self.slo is not None:
            self.slo.publish(self.registry)
        texts.append(render_prometheus(
            self.registry, exemplars=self.config.serve.exemplars
        ))
        merged = merge_prometheus(texts)
        return Response(200, PlainText(
            body=merged,
            content_type="text/plain; version=0.0.4; charset=utf-8",
        ))

    def traces(self, limit: int | None = None) -> Response:
        """Merged traces: the router's buffer stitched with every shard's."""
        collector = TraceCollector()
        collector.add_tracer("router", self.tracer)
        for shard in range(self.plan.num_shards):
            collector.add_source(f"s{shard}", self._shard_traces_source(shard))
        merged = collector.collect(limit=limit)
        return Response(200, {
            "traces": merged,
            "failed_sources": collector.failures,
        })

    def _shard_traces_source(self, shard: int):
        def fetch() -> list[dict]:
            response = self.clients[shard].request(
                "GET", "/traces", timeout=self.config.shard_deadline_s
            )
            if response.status != 200 or not isinstance(response.body, dict):
                raise ShardUnavailable(
                    f"shard {shard} /traces returned {response.status}"
                )
            return response.body.get("traces", [])
        return fetch

    def slo_status(self) -> Response:
        if self.slo is None:
            return Response(
                404, {"error": "SLO engine disabled; enable slo_enabled"}
            )
        self.slo.publish(self.registry)
        return Response(200, {"slo": self.slo.snapshot()})

    def profile(self) -> Response:
        """Cluster flame data: every process's collapsed stacks, prefixed."""
        sources: dict[str, str] = {}
        if self.profiler is not None:
            sources["router"] = self.profiler.collapsed()
        responses = self._fan(
            list(range(self.plan.num_shards)), "GET", "/profile"
        )
        for shard in sorted(responses):
            resp = responses[shard]
            if (
                resp is not None
                and resp.status == 200
                and isinstance(resp.body, PlainText)
            ):
                sources[f"s{shard}"] = resp.body.body
        if not sources:
            return Response(404, {
                "error": "no continuous profiler running; set profile_hz > 0"
            })
        return Response(200, PlainText(merge_collapsed(sources)))

    def shards(self) -> Response:
        return Response(200, {
            "plan": to_dict(self.plan),
            "clients": [
                client.describe() if hasattr(client, "describe") else {}
                for client in self.clients
            ],
            "breakers": [
                None if b is None else b.snapshot() for b in self.breakers
            ],
        })

    # -- dispatch ------------------------------------------------------
    def _observe_route(self, request: Request) -> Response:
        payload = request.payload
        if "values" in payload:
            values = np.asarray(payload["values"], dtype=default_dtype())
            rows = values.shape[0] if values.ndim else -1
            if rows != self.plan.num_nodes:
                return Response(400, {
                    "error": "full-network observations need "
                    f"{self.plan.num_nodes} rows, got {rows}"
                })
        return self.observe(payload, request.body or b"{}")

    def _forecast_route(self, request: Request) -> Response:
        horizon = request.arg("horizon", int)
        nodes = request.arg("node") or request.arg("nodes")
        if nodes:
            return self.forecast_node(int(nodes.split(",")[0]), horizon)
        return self.forecast_all(horizon)

    def _count(self, route, response, latency_ms, span) -> None:
        """Per-route request counter; latency histogram for traced routes."""
        label = route.path.lstrip("/") if route is not None else "unmatched"
        self.registry.counter(f'cluster/requests{{route="{label}"}}').inc()
        if span is not None:
            self.registry.histogram("cluster/latency_ms").observe(
                latency_ms,
                exemplar=span.context.trace_id if span.context.sampled else None,
            )

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict | None = None,
    ) -> Response:
        return dispatch(
            self.routes, method, path, body, headers,
            tracer=self.tracer, span="cluster", slo=self.slo,
            registry=self.registry,
            retry_after=lambda error, scope: {"Retry-After": "1"},
            on_response=self._count,
        )

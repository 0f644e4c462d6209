"""One shard of the serving cluster: a sliced engine behind global ids.

A :class:`ShardApp` wraps an :class:`~repro.serve.fleet.EnginePool` over
the shard's sliced bundle (see :mod:`.sharding`) and speaks the same
``handle(method, path, body, headers)`` surface as
:class:`~repro.serve.http.ServeApp` — so :func:`~repro.serve.http.
bind_http` serves it over a socket unchanged. All node addressing is
**global**: the shard translates to its local row indices at the edge,
returns 404 with ownership hints for nodes it does not retain, and
serves ``/shard/snapshot`` + ``/shard/restore`` so a restarted peer can
warm from it over the wire.
"""

from __future__ import annotations

import numpy as np

from ...autodiff import default_dtype
from ...errors import ConfigError
from ...telemetry import MetricRegistry
from ...telemetry.trace import Tracer
from ..artifact import ModelBundle
from ..config import DEFAULT_TENANT, ServeConfig
from ..fleet import EnginePool
from ..http import Request, Response, Route, ServeApp, dispatch, route_table
from .sharding import ShardPlan, make_shard_bundle, translate_snapshot

__all__ = ["ShardApp"]


class ShardApp:
    """The request surface of one worker shard."""

    def __init__(
        self,
        bundle: ModelBundle,
        plan: ShardPlan,
        shard: int,
        config: ServeConfig | None = None,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        if not 0 <= shard < plan.num_shards:
            raise ConfigError(
                f"shard {shard} outside plan with {plan.num_shards} shards"
            )
        if plan.num_nodes != bundle.num_nodes:
            raise ConfigError(
                f"plan covers {plan.num_nodes} nodes, bundle has {bundle.num_nodes}"
            )
        self.plan = plan
        self.shard = int(shard)
        self.config = config if config is not None else ServeConfig()
        self.registry = registry if registry is not None else MetricRegistry()
        if tracer is None:
            # Service-labelled so the router's merged /traces can say
            # which process each span ran in.
            tracer = Tracer(
                sample_rate=self.config.trace_sample, service=f"s{self.shard}"
            )
        self.tracer = tracer
        self.owned = plan.nodes_of(shard)
        self.retained = plan.retained_of(shard)
        self._local = {int(g): i for i, g in enumerate(self.retained)}
        self._owned_local = np.asarray(
            [self._local[int(g)] for g in self.owned], dtype=int
        )
        self.bundle = make_shard_bundle(bundle, self.retained)
        pool = EnginePool(registry=self.registry, tracer=tracer)
        pool.add_tenant(
            DEFAULT_TENANT,
            self.bundle,
            config=self.config,
            # Per-shard series labels: the router's merged /metrics view
            # relies on these to keep shard series disjoint.
            labels={"shard": f"s{self.shard}"},
            engine_name=f"shard{self.shard}",
        )
        self.inner = ServeApp(pool=pool, config=self.config)
        self.pool = pool
        # The pool-wide meta routes are the inner app's own; node-addressed
        # routes translate global ids first. The snapshot plumbing stays
        # span-free like the meta scrapes.
        self.routes = route_table(
            *(route for route in self.inner.routes.values()
              if route.path not in ("/healthz", "/forecast", "/observe")),
            Route("GET", "/healthz", lambda r: self.healthz()),
            Route("GET", "/forecast", self.forecast),
            Route("POST", "/observe", lambda r: self.observe(r.payload)),
            Route("GET", "/shard/info", lambda r: self.shard_info(), traced=False),
            Route("GET", "/shard/snapshot", lambda r: self.snapshot(), traced=False),
            Route("POST", "/shard/restore", lambda r: self.restore(r.payload),
                  traced=False),
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ShardApp":
        self.pool.start()
        return self

    def stop(self) -> None:
        self.pool.stop()
        self.inner.close()

    def __enter__(self) -> "ShardApp":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def store(self):
        return self.inner.store

    @property
    def engine(self):
        return self.inner.engine

    # -- helpers -------------------------------------------------------
    def _not_held(self, node: int) -> Response:
        """404 with a shard-map hint: who does hold this node."""
        body: dict = {
            "error": f"node {node} is not held by shard {self.shard}",
            "shard": self.shard,
            "num_nodes": self.plan.num_nodes,
        }
        if 0 <= node < self.plan.num_nodes:
            body["owner"] = self.plan.owner(node)
            body["holders"] = list(self.plan.holders_of(node))
        else:
            body["error"] = (
                f"node {node} outside the sensor graph [0, {self.plan.num_nodes})"
            )
        return Response(404, body)

    def shard_info(self) -> Response:
        return Response(200, {
            "shard": self.shard,
            "num_shards": self.plan.num_shards,
            "halo_hops": self.plan.halo_hops,
            "owned": list(self.owned),
            "halo": list(self.plan.halo_of(self.shard)),
            "model": self.bundle.model_name,
            "warm": self.store.warm,
            "version": self.store.version,
        })

    def snapshot(self) -> Response:
        return Response(200, {
            "shard": self.shard,
            "nodes": list(self.retained),
            "state": self.store.snapshot(),
        })

    def restore(self, payload: dict) -> Response:
        nodes = payload.get("nodes")
        state = payload.get("state")
        if nodes is None or state is None:
            return Response(
                400, {"error": "restore body needs 'nodes' and 'state'"}
            )
        translated = translate_snapshot(state, nodes, self.retained)
        self.store.restore(translated)
        return Response(200, {
            "restored": True,
            "shard": self.shard,
            "version": self.store.version,
            "newest_step": self.store.newest_step,
        })

    def healthz(self) -> Response:
        response = self.inner.healthz(DEFAULT_TENANT)
        body = dict(response.body, shard={
            "shard": self.shard,
            "owned": len(self.owned),
            "retained": len(self.retained),
        })
        return Response(response.status, body, response.headers)

    # -- observe/forecast with global-id translation -------------------
    def observe(self, payload: dict) -> Response:
        if "node" in payload:
            node = int(payload["node"])
            local = self._local.get(node)
            if local is None:
                return self._not_held(node)
            payload = dict(payload, node=local)
        elif "values" in payload:
            values = np.asarray(payload["values"], dtype=default_dtype())
            if values.ndim == 1:
                values = values[:, None]
            if values.shape[0] != self.plan.num_nodes:
                return Response(400, {
                    "error": f"cluster observations are global: expected "
                    f"{self.plan.num_nodes} rows, got {values.shape[0]}"
                })
            keep = np.asarray(self.retained, dtype=int)
            payload = dict(payload, values=values[keep])
            mask = payload.get("mask")
            if mask is not None:
                mask = np.asarray(mask, dtype=default_dtype())
                if mask.ndim == 1:
                    mask = mask[:, None]
                if mask.shape[0] != self.plan.num_nodes:
                    return Response(400, {
                        "error": f"mask must have {self.plan.num_nodes} rows"
                    })
                payload["mask"] = mask[keep]
        return self.inner.observe(payload, DEFAULT_TENANT)

    def forecast(self, request: Request) -> Response:
        nodes = request.arg("nodes") or request.arg("node")
        if nodes:
            requested = [int(v) for v in nodes.split(",") if v != ""]
        elif request.arg("scope") == "retained":
            requested = [int(g) for g in self.retained]
        else:
            requested = [int(g) for g in self.owned]
        local: list[int] = []
        for node in requested:
            row = self._local.get(node)
            if row is None:
                return self._not_held(node)
            local.append(row)
        result = self.pool.forecast(DEFAULT_TENANT, horizon=request.arg("horizon", int))
        prediction = np.asarray(result.prediction)[:, np.asarray(local, dtype=int), :]
        headers = {"X-Degraded": result.degraded} if result.degraded else {}
        return Response(200, {
            "shard": self.shard,
            "nodes": requested,
            "horizon": result.horizon,
            "version": result.version,
            "newest_step": result.newest_step,
            "cached": result.cached,
            "degraded": result.degraded,
            "prediction": prediction.tolist(),
        }, headers)

    # -- dispatch ------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict | None = None,
    ) -> Response:
        return dispatch(
            self.routes, method, path, body, headers,
            tracer=self.tracer, span="shard", attributes={"shard": f"s{self.shard}"},
            slo=self.inner.slo, registry=self.registry,
            retry_after=self.inner._retry_after,
        )

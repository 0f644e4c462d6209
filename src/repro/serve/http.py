"""Stdlib HTTP front-end for the forecast engine fleet.

A deliberately small JSON API over its own HTTP/1.1 framing on
:mod:`socketserver` (no web framework, and not :mod:`http.server`, which
would load ``http.client``, ``email`` and ``ssl`` into every server):

* ``POST /observe`` — ingest a reading. Body is either a full-network
  observation ``{"step": 17, "values": [[...], ...], "mask": [[...]]}``
  (``mask`` optional) or a single sensor ``{"step": 17, "node": 3,
  "features": [61.2]}``.
* ``GET /forecast?horizon=12`` — forecast from the current state, in
  original units; micro-batched with concurrent requests, quota-checked
  and canary-routed when the tenant has a rollout in flight.
* ``GET /healthz`` — liveness plus state summary (warm-up, version) and
  the data-quality verdict; ``status`` flips to ``"degraded"`` when any
  sensor trips a :class:`~repro.telemetry.QualityThresholds` limit.
* ``GET /metrics`` — Prometheus text exposition of the telemetry
  registry (content-type ``text/plain; version=0.0.4``); append
  ``?format=json`` (or send ``Accept: application/json``) for the
  legacy JSON snapshot. Fleet series carry a ``tenant`` label.
* ``GET /traces?limit=10`` — recent finished traces from the tracer
  buffer, grouped per trace (pretty-print them with ``repro traces``).
* ``GET /slo`` — the SLO engine's snapshot: per-objective burn rates,
  error-budget remaining, active and recent burn events, plus any
  in-flight canary's SLO tracker (render with ``repro slo``).
* ``GET /profile`` — the continuous profiler's collapsed-stack flame
  data (``?format=json`` for the full snapshot); 404 while
  ``profile_hz`` is 0.
* ``GET /tenants`` — one summary per tenant: bundle, version, warm-up,
  quota counters.
* ``GET /rollouts`` — live shadow/canary state per tenant;
  ``POST /rollouts`` with ``{"tenant": ..., "action": "rollback" |
  "promote"}`` drives a rollout by hand.

**Tenant routing.** Requests address a tenant three ways, most specific
first: a ``/t/<tenant>/...`` path prefix, an ``X-Tenant`` header, or a
``?tenant=`` query parameter. With none of the three the request lands
on the ``default`` tenant (a single-tenant pool's only tenant is the
implicit default). Unknown tenants are a 404.

Each app is a route table (:class:`Route`) plus a ``handle`` that calls
:func:`dispatch`, the one request pipeline :class:`ServeApp`, the
cluster shards and the cluster router share. Every traced request runs
under an ``http`` root span, so the trace tree of a forecast shows
HTTP → engine.forecast → queue → batch_forward → model_forward in one
place.

Threading model: each connection gets a daemon handler thread
(:class:`socketserver.ThreadingTCPServer`); handlers funnel forecasts
through the pool's routing and each engine's batching queue, and
observations through the store's lock.

Wire behaviour: HTTP/1.1 keep-alive and pipelining (answers in request
order), ``Connection: close``, HTTP/1.0 (closed after one answer unless
``Connection: keep-alive``) and ``Expect: 100-continue``. Bodies are
framed by ``Content-Length`` only. Every answer is a head (status line,
``Server``, ``Date``, ``Content-Type``, ``Content-Length``, then the
route's headers) and a body, written separately with Nagle's algorithm
on. Malformed requests are answered with ``{"error": ...}`` and the
connection closes: 400 bad syntax or ``Content-Length``, 414 request
line over 64 KiB, 431 header line over 64 KiB or more than 100
headers, 501 any method but GET and POST, 505 HTTP/2 and later.

Resilience surface (see ``docs/RELIABILITY.md``): endpoints return
:class:`Response` objects so degraded answers can carry ``X-Degraded``
and ``Retry-After`` headers; resilience errors map onto HTTP —
:class:`~repro.errors.QuotaExceeded` and any other
:class:`~repro.errors.Overloaded` → 429, any other
:class:`~repro.errors.ServeError` (open breaker, blown deadline, dry
fallback ladder) → 503, all with ``Retry-After``. Tuning arrives as one
:class:`~repro.serve.config.ServeConfig` per tenant.
"""

from __future__ import annotations

import contextlib
import json
import math
import socketserver
import sys
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from http import HTTPStatus
from typing import Any, Callable
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..autodiff import default_dtype
from ..errors import (
    CircuitOpen,
    ConfigError,
    DataError,
    Overloaded,
    QuotaExceeded,
    ServeError,
    StateError,
)
from ..reliability import OPEN
from ..telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    ContinuousProfiler,
    MetricRegistry,
    QualityMonitor,
    SLOEngine,
    Tracer,
    default_serving_objectives,
    extract_trace_context,
    get_registry,
    get_tracer,
    render_prometheus,
)
from .artifact import ModelBundle
from .config import DEFAULT_TENANT, ServeConfig
from .engine import ForecastEngine
from .fleet import EnginePool
from .state import StateStore

__all__ = [
    "PlainText",
    "Request",
    "Response",
    "Route",
    "ServeApp",
    "bind_http",
    "dispatch",
    "make_server",
    "route_table",
    "run_server",
]


@dataclass(frozen=True)
class PlainText:
    """A pre-encoded response body; ``handle`` returns it where it would a dict.

    ``body`` is text, sent UTF-8 encoded, or bytes, sent as they are.
    """

    body: str | bytes
    content_type: str = "text/plain; charset=utf-8"


class EncodedJSON(PlainText, Mapping):
    """A JSON object already encoded for the wire.

    ``_Handler._send`` sends the bytes as they are. In process it reads as the
    object it encodes (``body["prediction"]``), decoded on first read.
    """

    def __init__(self, body: bytes):
        super().__init__(body, "application/json")

    @cached_property
    def _decoded(self) -> dict:
        return json.loads(self.body)

    def __getitem__(self, key: str) -> Any:
        return self._decoded[key]

    def __iter__(self):
        return iter(self._decoded)

    def __len__(self) -> int:
        return len(self._decoded)

    __eq__ = Mapping.__eq__  # equal to the dict it encodes


@dataclass(frozen=True)
class Response:
    """One HTTP response: status, body and response headers.

    Degraded and rejected responses set ``X-Degraded`` / ``Retry-After``.
    """

    status: int
    body: dict | PlainText
    headers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Route:
    """One route-table entry: ``fn(request)`` answers ``method path``.

    ``traced=False`` answers span-free: meta routes the cluster router
    scrapes from every worker, whose spans would flood the very buffers
    they read.
    """

    method: str
    path: str
    fn: Callable[["Request"], Response]
    traced: bool = True


def route_table(*routes: Route) -> dict[tuple[str, str], Route]:
    """Index ``routes`` by ``(method, path)`` for :func:`dispatch`."""
    return {(route.method, route.path): route for route in routes}


@dataclass
class Request:
    """What a route sees: the parsed path, query, headers and body.

    Header names are lowercase, however the client spelled them.

    ``payload`` is the JSON object of a POST body. ``scope`` is whatever
    the app's resolver bound the request to (``ServeApp``: the tenant).
    """

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict
    body: bytes | None
    payload: dict | None = None
    scope: Any = None

    def arg(self, name: str, cast: Callable = str) -> Any:
        """The first ``?name=`` value through ``cast``; None when absent."""
        values = self.query.get(name)
        return cast(values[0]) if values else None


class _NotFound(Exception):
    """Raised by a route or resolver to answer 404 with ``body``."""

    def __init__(self, body: dict):
        super().__init__(body["error"])
        self.body = body


def _guarded(
    call: Callable[[], Response | None],
    request: Request,
    retry_after: Callable[[BaseException, Any], dict],
    registry: MetricRegistry,
) -> Response | None:
    """Run ``call()``; the one map from exceptions onto HTTP statuses."""
    try:
        return call()
    except _NotFound as error:
        return Response(404, error.body)
    except Overloaded as error:
        # Shed load (queue saturation or quota): back off, not degrade.
        return Response(
            429, {"error": str(error)}, retry_after(error, request.scope)
        )
    # Input errors: bad arguments, malformed bodies, stale observations.
    except (ConfigError, StateError, DataError, ValueError, KeyError, TypeError) as error:
        return Response(400, {"error": str(error)})
    except ServeError as error:
        # Resilience signals that survived the fallback ladder: open
        # breaker, blown deadline, dry ladder. The server is alive but
        # cannot answer — 503 with a backoff hint.
        registry.counter("serve/unavailable_responses").inc()
        return Response(
            503,
            {"error": str(error), "cause": type(error).__name__},
            retry_after(error, request.scope),
        )


def _run(route: Route | None, request: Request) -> Response:
    """Call ``route`` on the parsed body; 404 when nothing matched."""
    if route is None:
        return Response(404, {"error": f"no route {request.method} {request.path}"})
    if route.method == "POST":
        try:
            request.payload = json.loads(request.body or b"")
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON body: {error}") from None
        if not isinstance(request.payload, dict):
            raise ValueError("request body must be a JSON object")
    return route.fn(request)


#: routes whose answers feed the SLO engine.
_SLO_ROUTES = frozenset({"/forecast", "/observe"})


def dispatch(
    routes: dict[tuple[str, str], Route],
    method: str,
    path: str,
    body: bytes | None,
    headers: dict | None,
    *,
    tracer: Tracer,
    span: str,
    slo: SLOEngine | None,
    registry: MetricRegistry,
    retry_after: Callable[[BaseException, Any], dict],
    attributes: dict | None = None,
    resolve: Callable[[Request], None] | None = None,
    on_response: Callable | None = None,
) -> Response:
    """Answer one request from ``routes``: the pipeline every app shares.

    In order: parse the path and query, and lowercase the header names
    (routes look headers up as ``x-tenant``, ``accept``); let ``resolve`` rewrite
    ``request.path`` and set ``request.scope`` (raising refuses the
    request); look the route up; open a ``span`` span unless the route
    is untraced, parented on the caller's current span, else on the
    ``traceparent`` header, else a fresh root; parse a POST body as a
    JSON object; map exceptions onto statuses (:func:`_guarded`, whose
    ``retry_after(error, scope)`` supplies the backoff header); and feed
    ``/forecast`` and ``/observe`` answers to ``slo``.
    ``on_response(route, response, latency_ms, span)`` then sees every
    answer; ``route`` is None when unmatched, ``span`` when untraced.
    """
    parsed = urlparse(path)
    request = Request(
        method, parsed.path.rstrip("/") or "/", parse_qs(parsed.query),
        {name.lower(): value for name, value in (headers or {}).items()}, body,
    )
    raw_path = request.path
    began = time.perf_counter()
    if resolve is not None:
        refused = _guarded(lambda: resolve(request), request, retry_after, registry)
        if refused is not None:
            return refused
    route = routes.get((method, request.path))
    if route is None or route.traced:
        parent = Tracer.current_context() or extract_trace_context(request.headers)
        traced = tracer.span(
            span,
            parent=parent,
            attributes={**(attributes or {}), "method": method, "route": raw_path},
        )
    else:
        traced = contextlib.nullcontext()
    with traced as opened:
        response = _guarded(
            lambda: _run(route, request), request, retry_after, registry
        )
        if opened is not None:
            opened.set_attribute("status", response.status)
            if response.status >= 400:
                opened.status = "error"
    latency_ms = (time.perf_counter() - began) * 1e3
    if slo is not None and request.path in _SLO_ROUTES:
        slo.record_request(
            response.status,
            latency_ms=latency_ms,
            degraded=bool(response.headers.get("X-Degraded")),
        )
    if on_response is not None:
        on_response(route, response, latency_ms, opened)
    return response


class ServeApp:
    """Routes requests onto a pool of per-tenant stores and engines.

    Two construction paths:

    * ``ServeApp(bundle, config=ServeConfig(...))`` — the single-model
      setup: builds a one-tenant :class:`~repro.serve.fleet.EnginePool`
      whose ``default`` tenant keeps the unlabelled metric names, so
      responses and ``/metrics`` are byte-identical to the pre-fleet
      server.
    * ``ServeApp(pool=pool)`` — adopt a pre-built multi-tenant pool
      (see :func:`~repro.serve.fleet.build_pool`).
    """

    def __init__(
        self,
        bundle: ModelBundle | None = None,
        store: StateStore | None = None,
        engine: ForecastEngine | None = None,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        quality: QualityMonitor | None = None,
        config: ServeConfig | None = None,
        pool: EnginePool | None = None,
        slo: SLOEngine | None = None,
    ):
        if pool is not None:
            if bundle is not None or store is not None or engine is not None:
                raise TypeError(
                    "ServeApp(pool=...) adopts the pool's runtimes; do not "
                    "also pass bundle/store/engine"
                )
            self.pool = pool
            self.registry = pool.registry
            self.tracer = pool.tracer
            self.config = config if config is not None else ServeConfig()
        else:
            if bundle is None:
                raise TypeError("ServeApp() needs a bundle or a pool")
            config = config if config is not None else ServeConfig()
            self.config = config
            self.registry = registry if registry is not None else get_registry()
            if tracer is not None:
                self.tracer = tracer
            elif config.trace_sample > 0:
                # Honour the config like ShardApp/ClusterRouter do; the
                # zero-sampled global tracer stays the default otherwise.
                self.tracer = Tracer(
                    sample_rate=config.trace_sample,
                    export_path=config.trace_export,
                    service="serve",
                )
            else:
                self.tracer = get_tracer()
            if engine is not None and store is not None and engine.store is not store:
                raise ValueError("engine and app must share one state store")
            if engine is not None and store is None:
                store = engine.store
            self.pool = EnginePool(registry=self.registry, tracer=self.tracer)
            # Empty labels + breaker name "model": the default tenant of a
            # single-bundle app keeps the pre-fleet metric series names.
            self.pool.add_tenant(
                DEFAULT_TENANT,
                bundle,
                config=config,
                labels={},
                engine_name="model",
                store=store,
                engine=engine,
                monitor=quality,
            )
        if slo is not None:
            self.slo: SLOEngine | None = slo
        elif self.config.slo_enabled:
            self.slo = SLOEngine(
                default_serving_objectives(latency_ms=self.config.slo_latency_ms)
            )
        else:
            self.slo = None
        self.profiler: ContinuousProfiler | None = None
        if self.config.profile_hz > 0:
            self.profiler = ContinuousProfiler(
                interval_s=1.0 / self.config.profile_hz, registry=self.registry
            ).start()
        self.routes = route_table(
            Route("GET", "/metrics", self._get_metrics, traced=False),
            Route("GET", "/traces", lambda r: self.traces(r.arg("limit", int)),
                  traced=False),
            Route("GET", "/slo", lambda r: self.slo_status(), traced=False),
            Route("GET", "/profile",
                  lambda r: self.profile(as_json=_wants_json(r)), traced=False),
            Route("GET", "/tenants", lambda r: self.tenants()),
            Route("GET", "/rollouts", lambda r: self.rollouts()),
            Route("POST", "/rollouts", lambda r: self.rollout_action(r.payload)),
            Route("GET", "/healthz", lambda r: self.healthz(self._tenant(r))),
            Route("GET", "/forecast", lambda r: self.forecast(
                r.arg("horizon", int), self._tenant(r))),
            Route("POST", "/observe",
                  lambda r: self.observe(r.payload, self._tenant(r))),
        )

    def close(self) -> None:
        """Stop background observers (the continuous profiler)."""
        if self.profiler is not None:
            self.profiler.stop()

    # ------------------------------------------------------------------
    # Default-tenant aliases: the chaos soak, the load generator and the
    # single-model tests address the app as if it held one engine.
    # ------------------------------------------------------------------
    def _default_name(self) -> str | None:
        tenants = self.pool.tenants()
        if DEFAULT_TENANT in tenants:
            return DEFAULT_TENANT
        if len(tenants) == 1:
            return tenants[0]
        return None

    def _runtime(self, tenant: str):
        return self.pool.runtime(tenant)

    @property
    def bundle(self) -> ModelBundle:
        return self._runtime(self._default_name()).bundle

    @property
    def store(self) -> StateStore:
        return self._runtime(self._default_name()).store

    @property
    def engine(self) -> ForecastEngine:
        return self._runtime(self._default_name()).engine

    @property
    def quality(self) -> QualityMonitor:
        return self._runtime(self._default_name()).monitor

    # ------------------------------------------------------------------
    # Endpoint bodies: return Response objects.
    # ------------------------------------------------------------------
    def _inspect_quality(self, runtime):
        """Refresh the tenant's quality monitor from its live window."""
        report = runtime.monitor.update(runtime.store.window(), store=runtime.store)
        if self.slo is not None:
            self.slo.record_quality(report)
        return report

    def _retry_after(self, error: BaseException | None, tenant: str | None) -> dict:
        """``Retry-After`` header for rejected/unavailable responses."""
        runtime = self._runtime(
            tenant if tenant is not None else self.pool.tenants()[0]
        )
        engine = runtime.engine
        after = engine.policy.retry_after_s
        if isinstance(error, QuotaExceeded) and runtime.quota is not None:
            after = max(after, runtime.quota.retry_after_s)
        if isinstance(error, CircuitOpen) and engine.breaker is not None:
            after = max(after, engine.breaker.snapshot()["open_remaining_s"])
        return {"Retry-After": str(max(1, math.ceil(after)))}

    def healthz(self, tenant: str) -> Response:
        runtime = self._runtime(tenant)
        report = self._inspect_quality(runtime)
        engine = runtime.engine
        reliability = engine.reliability_snapshot()
        requests = self.registry.counter(engine._m("serve/requests")).value
        reliability["fallback_hit_rate"] = (
            reliability["degraded_total"] / requests if requests else 0.0
        )
        breaker = reliability["breaker"]
        breaker_open = breaker is not None and breaker["state"] == OPEN
        body = {
            "status": "degraded" if (report.degraded or breaker_open) else "ok",
            "model": runtime.bundle.model_name,
            "num_nodes": runtime.bundle.num_nodes,
            "num_features": runtime.bundle.num_features,
            "input_length": runtime.bundle.input_length,
            "output_length": runtime.bundle.output_length,
            "warm": runtime.store.warm,
            "version": runtime.store.version,
            "newest_step": runtime.store.newest_step,
            "observations": runtime.store.observations,
            "quality": report.to_json_dict(),
            "sensors": runtime.store.sensor_summary(),
            "reliability": reliability,
        }
        if len(self.pool) > 1:
            body["tenant"] = runtime.name
            body["tenants"] = self.pool.tenants()
        return Response(200, body)

    def metrics(
        self, as_json: bool = False, exemplars: bool | None = None
    ) -> Response:
        for name in self.pool.tenants():
            runtime = self._runtime(name)
            self._inspect_quality(runtime)
            runtime.engine.reliability_snapshot()  # refresh breaker gauges
        if self.slo is not None:
            self.slo.publish(self.registry)
        if as_json:
            return Response(200, self.registry.snapshot())
        if exemplars is None:
            exemplars = self.config.exemplars
        return Response(200, PlainText(
            body=render_prometheus(self.registry, exemplars=exemplars),
            content_type=PROMETHEUS_CONTENT_TYPE,
        ))

    def traces(self, limit: int | None = None) -> Response:
        return Response(200, {"traces": self.tracer.traces(limit=limit)})

    def slo_status(self) -> Response:
        if self.slo is None:
            return Response(
                404, {"error": "SLO engine disabled; enable slo_enabled"}
            )
        self.slo.publish(self.registry)
        body = {"slo": self.slo.snapshot()}
        canaries = self.pool.canary_slo_snapshots()
        if canaries:
            body["canaries"] = canaries
        return Response(200, body)

    def profile(self, as_json: bool = False) -> Response:
        if self.profiler is None:
            return Response(
                404, {"error": "continuous profiler off; set profile_hz > 0"}
            )
        if as_json:
            return Response(200, self.profiler.snapshot())
        return Response(200, PlainText(self.profiler.collapsed()))

    def tenants(self) -> Response:
        return Response(200, {"tenants": self.pool.tenants_snapshot()})

    def rollouts(self) -> Response:
        return Response(200, {"rollouts": self.pool.rollouts_snapshot()})

    def rollout_action(self, payload: dict) -> Response:
        tenant = payload.get("tenant")
        action = payload.get("action")
        if not tenant or action not in ("rollback", "promote"):
            return Response(400, {
                "error": "rollout action body needs 'tenant' and 'action' "
                "('rollback' or 'promote')"
            })
        if action == "rollback":
            snapshot = self.pool.rollback_canary(
                tenant, reason=payload.get("reason", "manual rollback via API")
            )
        else:
            snapshot = self.pool.promote_canary(tenant)
        return Response(200, {"tenant": tenant, "canary": snapshot})

    def observe(self, payload: dict, tenant: str) -> Response:
        runtime = self._runtime(tenant)
        if runtime.engine.saturated:
            # Reject-with-backoff: while the forecast queue is drowning,
            # state churn (each accepted observation invalidates the
            # forecast cache) only deepens the hole.
            self.registry.counter(runtime.engine._m("serve/observe_rejected")).inc()
            return Response(
                429,
                {"error": "server saturated; back off and retry"},
                self._retry_after(None, tenant),
            )
        if "step" not in payload:
            return Response(400, {"error": "observation needs an integer 'step'"})
        step = int(payload["step"])
        if "node" in payload:
            features = payload.get("features", payload.get("value"))
            if features is None:
                return Response(
                    400, {"error": "per-sensor observation needs 'features'"}
                )
            accepted = self.pool.observe_sensor(
                tenant, step, int(payload["node"]),
                np.asarray(features, dtype=default_dtype()),
            )
        elif "values" in payload:
            values = np.asarray(payload["values"], dtype=default_dtype())
            if values.ndim == 1 and runtime.store.num_features == 1:
                values = values[:, None]
            mask = payload.get("mask")
            if mask is not None:
                mask = np.asarray(mask, dtype=default_dtype())
                if mask.ndim == 1 and runtime.store.num_features == 1:
                    mask = mask[:, None]
            accepted = self.pool.observe(tenant, step, values, mask)
        else:
            return Response(
                400, {"error": "observation needs 'values' or 'node'+'features'"}
            )
        return Response(200, {
            "accepted": accepted,
            "version": runtime.store.version,
            "newest_step": runtime.store.newest_step,
        })

    def forecast(self, horizon: int | None, tenant: str) -> Response:
        result = self.pool.forecast(tenant, horizon=horizon)
        if result.degraded:
            return Response(
                200, result.to_json_dict(), {"X-Degraded": result.degraded}
            )
        if result.cached:
            # A cache hit is the LRU entry itself: its body is encoded on
            # the first hit and every later hit sends the same bytes.
            return Response(200, EncodedJSON(result.encoded))
        return Response(200, result.to_json_dict())

    # ------------------------------------------------------------------
    def _get_metrics(self, request: Request) -> Response:
        raw = (request.arg("exemplars") or "").lower()
        return self.metrics(
            as_json=_wants_json(request),
            exemplars=None if not raw else raw in ("1", "true", "yes", "on"),
        )

    def _resolve_tenant(self, request: Request) -> None:
        """Scope ``request`` to a tenant: path > header > query > default."""
        route = request.path
        if route == "/t" or route.startswith("/t/"):
            parts = route.split("/", 3)  # ['', 't', tenant, rest?]
            tenant = parts[2] if len(parts) > 2 and parts[2] else None
            rest = "/" + parts[3] if len(parts) > 3 else "/"
            request.path = rest.rstrip("/") or "/"
        else:
            tenant = (
                request.headers.get("x-tenant")
                or request.arg("tenant")
                or self._default_name()
            )
        if tenant is not None and tenant not in self.pool.tenants():
            raise _NotFound(
                {"error": f"no tenant {tenant!r}", "tenants": self.pool.tenants()}
            )
        request.scope = tenant

    def _tenant(self, request: Request) -> str:
        """The request's tenant; 404 when none was named and none is default."""
        if request.scope is None:
            raise _NotFound({
                "error": "no default tenant; address one via "
                "/t/<tenant>/..., X-Tenant or ?tenant=",
                "tenants": self.pool.tenants(),
            })
        return request.scope

    def handle(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict | None = None,
    ) -> Response:
        """Dispatch one request; exceptions become JSON error responses."""
        return dispatch(
            self.routes, method, path, body, headers,
            tracer=self.tracer, span="http", slo=self.slo,
            registry=self.registry, retry_after=self._retry_after,
            resolve=self._resolve_tenant,
        )


def _wants_json(request: Request) -> bool:
    fmt = (request.arg("format") or "").lower()
    if fmt:
        return fmt == "json"
    return "application/json" in request.headers.get("accept", "")


#: the longest request or header line read, and the most header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: the ``Server`` value every answer carries (the stdlib server's string).
_SERVER = "BaseHTTP/0.6 Python/" + sys.version.split()[0]
#: what ends a header block (an empty line, or the client hanging up).
_BLANK = (b"\r\n", b"\n", b"")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(timestamp: float | None = None) -> str:
    """An RFC 9110 ``Date`` value (``Sun, 06 Nov 1994 08:49:37 GMT``).

    Day and month names are fixed English, whatever the locale.
    """
    t = time.gmtime(timestamp)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class _Refused(Exception):
    """A request the framing cannot answer: reply ``status`` and close.

    An answer to ``HEAD`` is the head alone (``head_only``).
    """

    def __init__(self, status: int, error: str, head_only: bool = False):
        super().__init__(error)
        self.status = status
        self.head_only = head_only


def _version(word: str) -> tuple[int, int]:
    """``HTTP/1.1`` -> ``(1, 1)``; 400 on anything else."""
    prefix, _, number = word.partition("/")
    parts = number.split(".")
    if (prefix != "HTTP" or len(parts) != 2
            or not all(p.isascii() and p.isdigit() and len(p) <= 10 for p in parts)):
        raise _Refused(400, f"bad request version {word!r}")
    return int(parts[0]), int(parts[1])


class _Handler(socketserver.StreamRequestHandler):
    """HTTP/1.1 framing for one connection: keep-alive, pipelining,
    ``Connection: close``, HTTP/1.0 and ``Expect: 100-continue``.

    Each answer goes out as two writes, the head then the body, with
    Nagle's algorithm on. A malformed request gets a JSON ``{"error"}``
    answer with its status (400 syntax, 414 request line, 431 header
    line or count, 501 method, 505 version) and the connection closes.
    """

    app: Any  # injected by bind_http

    def handle(self) -> None:
        while True:
            try:
                if not self._answer_one():
                    return
            except _Refused as refused:
                self._send(Response(refused.status, {"error": str(refused)},
                                    {"Connection": "close"}), refused.head_only)
                return

    def _readline(self, status: int, what: str) -> bytes:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(status, f"{what} longer than {_MAX_LINE} bytes")
        return line

    def _headers(self) -> dict[str, str]:
        """The header block; the first of a repeated name wins.

        Names are lowercased here for the framing's own lookups
        (``connection``, ``expect``, ``content-length``).
        """
        headers: dict[str, str] = {}
        count = 0
        while (line := self._readline(431, "header line")) not in _BLANK:
            count += 1
            if count > _MAX_HEADERS:
                raise _Refused(431, f"more than {_MAX_HEADERS} headers")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Refused(400, f"bad header line {line[:80]!r}")
            headers.setdefault(name.lower(), value.strip())
        return headers

    def _answer_one(self) -> bool:
        """Read and answer one request; False when the connection closes."""
        line = self._readline(414, "request line")
        words = line.decode("latin-1").split()
        if not words:
            return False  # the client closed (or sent a blank line)
        if len(words) != 3:
            raise _Refused(400, f"bad request syntax {line[:80]!r}")
        method, target, version = words
        number = _version(version)
        if number >= (2, 0):
            raise _Refused(505, f"HTTP version {version!r} not supported")
        headers = self._headers()
        connection = headers.get("connection", "").lower()
        keep_alive = connection == "keep-alive" or (
            number >= (1, 1) and connection != "close"
        )
        if (number >= (1, 1)
                and headers.get("expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        if method not in ("GET", "POST"):
            raise _Refused(501, f"unsupported method {method!r}", method == "HEAD")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _Refused(400, f"bad Content-Length {length[:80]!r}")
        size = int(length)
        body = self.rfile.read(size) if size else b""
        if target.startswith("//"):  # never read as a scheme-less URL
            target = "/" + target.lstrip("/")
        self._send(self.app.handle(
            method, target, body if method == "POST" else None, headers
        ))
        return keep_alive

    def _send(self, response: Response, head_only: bool = False) -> None:
        payload = response.body
        if isinstance(payload, PlainText):
            body = payload.body
            if isinstance(body, str):
                body = body.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {response.status} {_PHRASES.get(response.status, '')}\r\n"
            f"Server: {_SERVER}\r\nDate: {_http_date()}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        ]
        head += [f"{name}: {value}\r\n" for name, value in response.headers.items()]
        head.append("\r\n")
        self.wfile.write("".join(head).encode("latin-1"))
        if not head_only:
            self.wfile.write(body)


class HTTPServer(socketserver.ThreadingTCPServer):
    """A thread per connection (daemon threads), address reuse on."""

    daemon_threads = True
    allow_reuse_address = True


def bind_http(app, host: str, port: int) -> HTTPServer:
    """Bind a threading HTTP server for any ``handle``-shaped app.

    ``app`` needs only ``handle(method, path, body, headers) -> Response``
    — :class:`ServeApp`, the cluster shard servers and the cluster
    router all share this surface. Lifecycle (``serve_forever`` /
    ``shutdown`` / ``server_close``) belongs to the caller; so does
    starting whatever engines sit behind the app.
    """
    handler = type("BoundHandler", (_Handler,), {"app": app})
    return HTTPServer((host, port), handler)


def make_server(app: ServeApp) -> HTTPServer:
    """Bind a threading HTTP server for ``app``.

    The bind address comes from ``app.config`` (``port=0`` = ephemeral).
    The caller owns the lifecycle: ``serve_forever()`` to block,
    ``shutdown()`` + ``server_close()`` to stop. The pool is started
    here so every engine's batching dispatcher and the shadow worker
    run before the first request.
    """
    server = bind_http(app, app.config.host, app.config.port)
    app.pool.start()
    return server


def run_server(
    app: ServeApp,
    ready_event: threading.Event | None = None,
) -> None:
    """Blocking entry point used by ``repro serve`` and ``repro fleet``.

    Prints the bound address (machine-parseable first line) before
    serving; ``ready_event`` is set once the socket is listening.
    """
    server = make_server(app)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    if ready_event is not None:
        ready_event.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        app.pool.stop()
        app.close()

"""The one request pipeline: ``dispatch`` and the three route tables.

* ``dispatch`` itself over a toy table: span-free routes, parent
  precedence, the exception → status map and SLO feeding;
* the shard answers malformed input with 400 (in process and over a
  socket, where the router's client must not see ``ShardUnavailable``);
* the router's request counter is bounded by its table;
* a shard's SLO engine counts forecasts as well as observations;
* every app's route table matches its route table in the docs;
* a profiler sample inside ``ServeApp.handle`` is classified ``http``.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.errors import CircuitOpen, ConfigError, QuotaExceeded
from repro.serve import ServeApp
from repro.serve.cluster import ClusterConfig, LocalCluster, make_demo_bundle
from repro.serve.cluster.transport import HTTPShardClient
from repro.serve.http import Response, Route, bind_http, dispatch, route_table
from repro.telemetry import (
    ContinuousProfiler,
    MetricRegistry,
    SLOEngine,
    SpanContext,
    Tracer,
    default_serving_objectives,
    format_traceparent,
)

NUM_NODES = 16
DOCS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs")


# ----------------------------------------------------------------------
# dispatch over a toy table
# ----------------------------------------------------------------------
def _raise(error):
    def fn(request):
        raise error
    return fn


class Toy:
    def __init__(self):
        self.tracer = Tracer(sample_rate=1.0, seed=0)
        self.registry = MetricRegistry()
        self.slo = SLOEngine(default_serving_objectives(latency_ms=1e6))
        self.seen = []
        self.routes = route_table(
            Route("GET", "/forecast", lambda r: Response(200, {"h": r.arg("horizon", int)})),
            Route("POST", "/observe", lambda r: Response(200, dict(r.payload))),
            Route("GET", "/metrics", lambda r: Response(200, {}), traced=False),
            Route("GET", "/busy", _raise(QuotaExceeded("slow down"))),
            Route("GET", "/down", _raise(CircuitOpen("breaker open"))),
            Route("GET", "/bad", _raise(ConfigError("bad knob"))),
        )

    def handle(self, method, path, body=None, headers=None):
        return dispatch(
            self.routes, method, path, body, headers,
            tracer=self.tracer, span="toy", slo=self.slo,
            registry=self.registry, attributes={"app": "toy"},
            retry_after=lambda error, scope: {"Retry-After": "7"},
            on_response=lambda *args: self.seen.append(args),
        )


class TestDispatch:
    def test_span_carries_attributes_and_status(self):
        toy = Toy()
        toy.handle("GET", "/forecast?horizon=x")
        (span,) = toy.tracer.finished_spans()
        assert span.name == "toy"
        assert span.attributes["app"] == "toy"
        assert span.attributes["route"] == "/forecast"
        assert span.attributes["status"] == 400
        assert span.status == "error"

    def test_untraced_route_opens_no_span(self):
        toy = Toy()
        assert toy.handle("GET", "/metrics").status == 200
        assert toy.tracer.finished_spans() == []
        route, _, _, span = toy.seen[-1]
        assert route.path == "/metrics" and span is None

    def test_current_context_beats_traceparent(self):
        toy = Toy()
        header = SpanContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=True)
        headers = {"traceparent": format_traceparent(header)}
        toy.handle("GET", "/forecast", headers=headers)
        assert toy.tracer.finished_spans()[-1].parent_id == header.span_id
        with toy.tracer.span("caller") as outer:
            toy.handle("GET", "/forecast", headers=headers)
        inner = [s for s in toy.tracer.finished_spans() if s.name == "toy"][-1]
        assert inner.parent_id == outer.context.span_id

    def test_traceparent_header_name_in_any_case(self):
        toy = Toy()
        header = SpanContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=True)
        toy.handle("GET", "/forecast", headers={"Traceparent": format_traceparent(header)})
        assert toy.tracer.finished_spans()[-1].parent_id == header.span_id

    def test_routes_see_lowercase_header_names(self):
        toy = Toy()
        toy.routes[("GET", "/headers")] = Route(
            "GET", "/headers", lambda r: Response(200, dict(r.headers)))
        response = toy.handle("GET", "/headers", headers={"X-Tenant": "a", "ACCEPT": "b"})
        assert response.body == {"x-tenant": "a", "accept": "b"}

    def test_json_object_reaches_the_route(self):
        response = Toy().handle("POST", "/observe", b'{"step": 1}')
        assert response.body == {"step": 1}

    def test_error_map(self):
        toy = Toy()
        busy = toy.handle("GET", "/busy")
        assert busy.status == 429 and busy.headers == {"Retry-After": "7"}
        assert toy.handle("GET", "/bad").status == 400
        down = toy.handle("GET", "/down")
        assert down.status == 503 and down.headers == {"Retry-After": "7"}
        assert down.body["cause"] == "CircuitOpen"
        assert toy.registry.counter("serve/unavailable_responses").value == 1

    def test_unmatched_is_404_and_reported_without_a_route(self):
        toy = Toy()
        response = toy.handle("DELETE", "/forecast")
        assert response.status == 404 and "no route" in response.body["error"]
        route, _, _, span = toy.seen[-1]
        assert route is None and span is not None

    def test_slo_sees_forecast_and_observe_only(self):
        toy = Toy()
        toy.handle("GET", "/forecast")
        toy.handle("POST", "/observe", b"{}")
        toy.handle("GET", "/metrics")
        toy.handle("GET", "/busy")
        availability = [
            t for t in toy.slo.trackers.values()
            if t.objective.kind == "availability"
        ]
        assert availability
        for tracker in availability:
            assert tracker.good_total + tracker.bad_total == 2


# ----------------------------------------------------------------------
# The three apps
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("dispatch") / "bundle"
    return make_demo_bundle(str(path), num_nodes=NUM_NODES, seed=0)


@pytest.fixture()
def cluster(bundle):
    with LocalCluster(bundle, config=ClusterConfig(num_shards=2)) as c:
        yield c


def _observe_all(target, bundle, steps):
    rng = np.random.default_rng(0)
    for step in range(steps):
        body = json.dumps({
            "step": step,
            "values": rng.normal(60.0, 3.0, size=(NUM_NODES, 1)).tolist(),
        }).encode()
        assert target.handle("POST", "/observe", body, None).status == 200


BAD_SHARD_INPUTS = [
    ("GET", "/forecast?horizon=abc", None),
    ("GET", "/forecast?nodes=a,b", None),
    ("POST", "/observe", json.dumps({"step": 0, "node": "x", "features": [1.0]})),
    ("POST", "/shard/restore", json.dumps({"nodes": [0], "state": {}})),
]


class TestShardInputErrors:
    @pytest.mark.parametrize("method,path,body", BAD_SHARD_INPUTS)
    def test_in_process_400(self, cluster, method, path, body):
        app = cluster.apps[0]
        response = app.handle(method, path, body and body.encode(), None)
        assert response.status == 400
        assert response.body["error"]

    def test_over_a_socket_400_not_unavailable(self, cluster):
        server = bind_http(cluster.apps[0], "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = HTTPShardClient(*server.server_address[:2])
            response = client.request("GET", "/forecast?horizon=abc", timeout=5.0)
            assert response.status == 400
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


class TestRouterRequestSeries:
    def test_junk_paths_add_at_most_one_series(self, cluster):
        def series():
            return {
                name for name in cluster.router.registry.snapshot()["counters"]
                if name.startswith("cluster/requests")
            }

        cluster.handle("GET", "/healthz", None, None)
        before = series()
        for i in range(50):
            assert cluster.handle("GET", f"/junk/{i}", None, None).status == 404
        assert len(series() - before) <= 1
        assert 'cluster/requests{route="unmatched"}' in series()
        assert 'cluster/requests{route="healthz"}' in before


class TestShardSLO:
    def test_forecasts_and_observes_both_count(self, cluster, bundle):
        app = cluster.apps[0]
        observes = bundle.input_length
        _observe_all(app, bundle, observes)
        forecasts = 5
        for _ in range(forecasts):
            assert app.handle("GET", "/forecast", None, None).status == 200
        availability = [
            t for t in app.inner.slo.trackers.values()
            if t.objective.kind == "availability"
        ]
        assert availability
        for tracker in availability:
            assert tracker.good_total + tracker.bad_total == forecasts + observes


# ----------------------------------------------------------------------
# Docs list exactly each app's route table
# ----------------------------------------------------------------------
def doc_routes(doc: str, heading: str) -> set[tuple[str, str]]:
    """(method, path) rows of the first table after ``heading``."""
    with open(os.path.join(DOCS, doc), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index(heading)
    rows: set[tuple[str, str]] = set()
    in_table = False
    for line in lines[start + 1:]:
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0].startswith("`/"):
            rows.add((cells[1], cells[0].strip("`")))
    return rows


class TestRouteDocs:
    def test_serving_doc_lists_serve_app_routes(self, bundle):
        app = ServeApp(bundle, registry=MetricRegistry())
        assert doc_routes("SERVING.md", "## HTTP API (`repro.serve.http`)") == set(
            app.routes
        )

    def test_cluster_doc_lists_router_and_shard_routes(self, cluster):
        assert doc_routes("CLUSTER.md", "### Router routes") == set(
            cluster.router.routes
        )
        assert doc_routes("CLUSTER.md", "### Shard routes") == set(
            cluster.apps[0].routes
        )


# ----------------------------------------------------------------------
# Profiler phase of a request
# ----------------------------------------------------------------------
class TestProfilerPhase:
    def test_sample_inside_handle_is_http(self, bundle):
        app = ServeApp(bundle, registry=MetricRegistry())
        entered, release = threading.Event(), threading.Event()

        def block(request):
            entered.set()
            release.wait(5.0)
            return Response(200, {})

        app.routes[("GET", "/block")] = Route("GET", "/block", block)
        thread = threading.Thread(target=app.handle, args=("GET", "/block", None))
        thread.start()
        try:
            assert entered.wait(5.0)
            profiler = ContinuousProfiler(registry=MetricRegistry())
            profiler.sample_once()
        finally:
            release.set()
            thread.join(timeout=5.0)
        assert profiler.snapshot()["phases"].get("http", 0) >= 1

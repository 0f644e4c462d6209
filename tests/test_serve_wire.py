"""The forecast wire format over a real socket.

Every ``/forecast`` body — fresh, cached, ``stale`` and ``window_mean`` —
must be ``json.dumps(forecast.to_json_dict())`` byte for byte, at the
shortest, a middle and the full horizon, under both dtype policies. A
cache hit sends bytes encoded once for its LRU entry, so its body must
differ from the miss that filled the entry only in ``"cached": true``.
"""

import http.client
import json
import threading

import numpy as np
import pytest

from repro.autodiff import default_dtype, dtype_policy
from repro.errors import ServeError
from repro.experiments import build_model
from repro.reliability import ResiliencePolicy
from repro.serve import ServeApp, ServeConfig, bind_http, export_bundle, load_bundle
from repro.telemetry import MetricRegistry

POLICIES = ("float32", "float64")


class _Served:
    """A ``ServeApp`` on an ephemeral port, recording every forecast it answers."""

    def __init__(self, bundle_path):
        config = ServeConfig(resilience=ResiliencePolicy(
            retry_attempts=1, retry_base_delay_s=0.0, retry_max_delay_s=0.0,
        ))
        self.app = ServeApp(
            load_bundle(bundle_path), registry=MetricRegistry(), config=config
        )
        self.answers = []
        answer = self.app.pool.forecast

        def recording(*args, **kwargs):
            result = answer(*args, **kwargs)
            self.answers.append(result)
            return result

        self.app.pool.forecast = recording
        self.server = bind_http(self.app, "127.0.0.1", 0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.horizons = sorted({1, (self.app.bundle.output_length + 1) // 2,
                                self.app.bundle.output_length})

    def observe(self, steps, value=50.0):
        store = self.app.store
        rng = np.random.default_rng(len(steps))
        for step in steps:
            store.observe(step, value + rng.normal(0.0, 3.0, (store.num_nodes,
                                                              store.num_features)))

    def get(self, horizon):
        """``(headers, raw body, the Forecast it encodes)`` of one 200 answer."""
        host, port = self.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", f"/forecast?horizon={horizon}")
            raw = conn.getresponse()
            body = raw.read()
            headers = dict(raw.headers)
        finally:
            conn.close()
        assert raw.status == 200, body
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) == len(body)
        return headers, body, self.answers[-1]

    def break_model(self):
        def broken(windows):
            raise ServeError("model down")

        self.app.engine._predict = broken

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)


@pytest.fixture(params=POLICIES)
def served(request, tiny_ctx, tmp_path):
    with dtype_policy(request.param):
        base = str(tmp_path / "bundle")
        export_bundle(build_model("FC-LSTM-I", tiny_ctx), "FC-LSTM-I", tiny_ctx, base)
        served = _Served(base)
        try:
            yield served
        finally:
            served.close()


def _expected(forecast) -> bytes:
    return json.dumps(forecast.to_json_dict()).encode()


class TestWireFormat:
    def test_fresh_and_cached_bodies(self, served):
        served.observe(range(served.app.store.input_length))
        for horizon in served.horizons:
            _, miss, fresh = served.get(horizon)
            assert not fresh.cached and fresh.degraded is None
            assert fresh.prediction.dtype == default_dtype()
            assert miss == _expected(fresh)
            for _ in range(2):  # the first hit encodes, the second resends
                headers, hit, cached = served.get(horizon)
                assert cached.cached and "X-Degraded" not in headers
                assert hit == _expected(cached)
                assert hit == miss.replace(b'"cached": false', b'"cached": true')
                assert hit != miss

    def test_stale_bodies(self, served):
        input_length = served.app.store.input_length
        served.observe(range(input_length))
        served.get(served.horizons[-1])  # one success feeds the stale rung
        served.break_model()
        served.observe([input_length])  # new version: every horizon misses
        for horizon in served.horizons:
            headers, body, stale = served.get(horizon)
            assert stale.degraded == "stale" and headers["X-Degraded"] == "stale"
            assert stale.horizon == horizon
            assert body == _expected(stale)

    def test_window_mean_bodies(self, served):
        served.observe(range(served.app.store.input_length))
        served.break_model()  # before any success: no stale answer exists
        for horizon in served.horizons:
            headers, body, mean = served.get(horizon)
            assert mean.degraded == "window_mean"
            assert headers["X-Degraded"] == "window_mean"
            assert body == _expected(mean)

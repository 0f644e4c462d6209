"""The one load generator: a seeded request stream and one tally.

:func:`repro.serve.run_load` drives any ``handle(method, path, body)``
surface. These tests use fake handles, so they pin ``run_load`` itself:
which requests it sends, and how it scores each answer.
"""

import json
import sys
import threading

import pytest

from repro.serve import Response, run_load


def _recording_handle():
    calls = []
    lock = threading.Lock()

    def handle(method, path, body):
        with lock:
            calls.append((threading.get_ident(), method, path, body))
        if method == "GET":
            return Response(200, {"degraded": None})
        return Response(200, {"accepted": True})

    return handle, calls


def _run_recorded(seed):
    handle, calls = _recording_handle()
    report = run_load(
        handle, num_nodes=16, num_features=3, start_step=100,
        num_clients=4, requests_per_client=6, seed=seed,
    )
    return report, calls


class TestSeededStream:
    def test_same_seed_same_requests_whatever_the_interleaving(self):
        _, first = _run_recorded(seed=3)
        _, second = _run_recorded(seed=3)
        _, other = _run_recorded(seed=4)

        def requests(calls):
            return sorted((method, path, body or b"") for _, method, path, body in calls)

        assert requests(first) == requests(second)
        assert requests(first) != requests(other)

    def test_each_pair_observes_then_forecasts_the_same_node(self):
        # A short switch interval makes the 4 clients interleave often; a
        # lost cursor update would repeat or skip a step below.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report, calls = _run_recorded(seed=0)
        finally:
            sys.setswitchinterval(interval)
        assert report.requests == len(calls) == 4 * 6 * 2
        steps = []
        for thread in {ident for ident, *_ in calls}:
            sequence = [call[1:] for call in calls if call[0] == thread]
            for (m1, p1, body), (m2, p2, _) in zip(sequence[::2], sequence[1::2]):
                payload = json.loads(body)
                assert (m1, p1, m2) == ("POST", "/observe", "GET")
                assert p2 == f"/forecast?node={payload['node']}"
                assert len(payload["features"]) == 3
                steps.append(payload["step"])
        assert sorted(steps) == list(range(100, 100 + 4 * 6))


class TestTally:
    def test_every_bucket_and_availability(self):
        script = iter([
            Response(200, {"accepted": True}),  # observe
            Response(200, {"degraded": None}),  # clean forecast
            Response(200, {"accepted": True}),
            Response(200, {"degraded": "stale"}, {"X-Degraded": "stale"}),  # tagged
            Response(429, {"error": "saturated"}),
            Response(200, {"degraded": "stale"}),  # body tag, no header
            Response(404, {"error": "no tenant"}),
            Response(503, {"error": "unavailable"}),
            RuntimeError("connection reset"),
            Response(200, {"degraded": None}, {"X-Degraded": "stale"}),  # header only
        ])

        def handle(method, path, body):
            outcome = next(script)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        report = run_load(
            handle, num_nodes=4, num_features=1,
            num_clients=1, requests_per_client=5, seed=0,
        )
        assert report.requests == 10
        assert report.ok == 6
        assert report.degraded == 3
        assert report.untagged_degraded == 2
        assert report.rejected == 1
        assert report.client_errors == 1
        assert report.server_errors == 1
        assert report.crashes == 1
        assert report.availability == pytest.approx(1.0 - 2 / 10)
        assert report.throughput_rps > 0
        assert report.latency_ms_p99 >= report.latency_ms_p50 >= 0.0
        assert "1 crashes" in report.render()

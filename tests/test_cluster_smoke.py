"""Cluster smoke harness and worker-process supervisor.

The in-process smoke runs the full identity + chaos sequence (identity
under a scoped float64 policy; seeded kill/warm-restart chaos) and must
pass its own checks. The supervisor test spawns real worker processes,
drives the router over actual sockets, hard-kills a shard and restarts
it warmed from a replica snapshot — the production failover walkthrough
of ``docs/CLUSTER.md`` in miniature.
"""

import json

import numpy as np
import pytest

from repro.serve.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    build_plan,
    make_demo_bundle,
    run_cluster_smoke,
)


class TestInProcessSmoke:
    def test_smoke_passes_end_to_end(self):
        report = run_cluster_smoke(
            num_nodes=32,
            num_shards=2,
            processes=False,
            requests_per_phase=24,
        )
        assert report["checks"]["identity_within_tol"], report["identity"]
        assert report["identity"]["max_abs_diff"] <= 1e-6
        assert report["chaos"]["availability"] >= 0.99, report["chaos"]
        assert report["passed"], report["checks"]

    @pytest.mark.parametrize("seed", range(5))
    def test_chaos_gate_holds_across_seeds(self, seed):
        """At the CI size every seed passes: forecasts for the killed
        shard's nodes come from the router's cache, and the only 5xx
        are observations of nodes no live shard holds."""
        report = run_cluster_smoke(seed=seed, processes=False)
        assert report["passed"], report["checks"]
        chaos = report["chaos"]
        assert chaos["forecast_availability"] == 1.0
        for error in chaos["server_errors"]:
            assert error["method"] == "POST" and error["phase"] == 1
            assert error["node"] in chaos["unheld_nodes"]
            assert error["retry_after"] is not None

    def test_report_is_json_serializable(self):
        report = run_cluster_smoke(
            num_nodes=24, num_shards=2, chaos=False, processes=False,
        )
        text = json.dumps(report)
        assert "identity" in json.loads(text)

    def test_identity_only_mode_skips_chaos(self):
        report = run_cluster_smoke(
            num_nodes=24, num_shards=2, chaos=False, processes=False,
        )
        assert "chaos" not in report
        assert set(report["checks"]) == {
            "identity_within_tol", "observations_accepted",
        }


class TestSupervisor:
    @pytest.fixture(scope="class")
    def running(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sup") / "bundle"
        bundle = make_demo_bundle(str(path), num_nodes=16, seed=0)
        config = ClusterConfig(num_shards=2)
        plan = build_plan(bundle, config)
        supervisor = ClusterSupervisor(str(path), plan, config=config)
        supervisor.start()
        yield supervisor
        supervisor.stop()

    def test_kill_and_warm_restart_over_sockets(self, running):
        rng = np.random.default_rng(0)
        for step in range(8):
            body = json.dumps({
                "step": step,
                "values": rng.normal(60.0, 3.0, size=(16, 1)).tolist(),
            }).encode()
            assert running.handle("POST", "/observe", body).status == 200
        before = running.handle("GET", "/forecast", None)
        assert before.status == 200
        assert before.body["degraded"] is None

        victim = 1
        running.kill_shard(victim)
        during = running.handle("GET", "/forecast", None)
        assert during.status == 200, "one worker down is degraded, not down"
        assert during.headers.get("X-Degraded")

        restart = running.restart_shard(victim, warm=True)
        assert restart["warmed_from"] is not None
        assert running.wait_healthy(timeout_s=15.0)
        after = running.handle("GET", "/forecast", None)
        assert after.status == 200
        # the restarted shard answers warm: replica state was replayed,
        # so shared (halo) slots are populated rather than cold
        health = running.router.healthz()
        assert health.body["shards"][f"s{victim}"]["status"] == "ok"
        assert health.body["shards"][f"s{victim}"]["newest_step"] >= 0

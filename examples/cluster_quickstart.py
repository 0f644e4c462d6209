"""Cluster quickstart: shard a model across an in-process 2-shard
cluster, watch halo writes fan out, walk the failover ladder, and warm
a "restarted" shard from its replica's snapshot.

Uses :class:`repro.serve.cluster.LocalCluster` — the same plan, router,
breakers and shard apps as the worker-process topology, minus the
sockets — so it runs in seconds and every step is inspectable. Swap in
``ClusterSupervisor`` (or ``python -m repro.cli cluster``) for real
processes; the client API is identical.

Usage::

    python examples/cluster_quickstart.py
"""

import json
import tempfile

import numpy as np

from repro.autodiff import dtype_policy
from repro.serve import ServeApp
from repro.serve.cluster import (
    ClusterConfig,
    LocalCluster,
    corridor_adjacency,
    make_demo_bundle,
    shard_quality,
)
from repro.telemetry import MetricRegistry

NUM_NODES = 32


def observe(target, step, values):
    body = json.dumps({"step": step, "values": values.tolist()}).encode()
    response = target.handle("POST", "/observe", body, None)
    assert response.status == 200, response.body
    return response


def main() -> None:
    # float64 so the cluster-vs-single-process comparison is exact
    with dtype_policy("float64"):
        workdir = tempfile.mkdtemp(prefix="repro-cluster-")
        bundle = make_demo_bundle(f"{workdir}/bundle", num_nodes=NUM_NODES)

        # --------------------------------------------------------------
        # 1. Plan: every node gets one primary shard + a 2-hop halo
        #    (GCN-LSTM with K=3 reads 2 hops per forward).
        # --------------------------------------------------------------
        cluster = LocalCluster(bundle, config=ClusterConfig(num_shards=2))
        plan = cluster.plan
        quality = shard_quality(plan, corridor_adjacency(NUM_NODES))
        print(f"owned per shard: {quality['owned_sizes']}, "
              f"edge cut {quality['edge_cut']:.1%}, "
              f"replication x{quality['replication_factor']:.2f}")

        single = ServeApp(bundle, registry=MetricRegistry())
        single.pool.start()
        with cluster:
            # ----------------------------------------------------------
            # 2. Stream the same observations to both topologies.
            # ----------------------------------------------------------
            rng = np.random.default_rng(0)
            for step in range(bundle.input_length + 2):
                values = rng.normal(60.0, 4.0, size=(NUM_NODES, 1))
                observe(single, step, values)
                observe(cluster, step, values)

            # a halo node's write is duplicated to every holder
            halo_node = next(
                n for n in range(NUM_NODES) if len(plan.holders_of(n)) > 1
            )
            body = json.dumps(
                {"step": 2, "node": halo_node, "features": [55.0]}
            ).encode()
            acks = cluster.handle("POST", "/observe", body, None).body
            print(f"halo node {halo_node} write acked by shards "
                  f"{sorted(acks['shards'])}")
            # mirror the write to the single-process app so the identity
            # comparison below sees the same state on both sides
            assert single.handle("POST", "/observe", body, None).status == 200

            # ----------------------------------------------------------
            # 3. Identity: sharded forecasts == single-process forecasts.
            # ----------------------------------------------------------
            lhs = single.handle("GET", "/forecast", None, None).body
            rhs = cluster.handle("GET", "/forecast", None, None).body
            diff = np.max(np.abs(
                np.asarray(lhs["prediction"]) - np.asarray(rhs["prediction"])
            ))
            print(f"cluster vs single-process: max |diff| = {diff:.2e}")
            assert diff <= 1e-6

            # ----------------------------------------------------------
            # 4. Failover ladder: kill a shard, answers degrade — 200s
            #    with X-Degraded, never 500s.
            # ----------------------------------------------------------
            cluster.kill(1)
            degraded = cluster.handle("GET", "/forecast", None, None)
            print(f"shard 1 down -> {degraded.status} "
                  f"X-Degraded={degraded.headers.get('X-Degraded')!r}")
            health = cluster.handle("GET", "/healthz", None, None).body
            print(f"healthz: {health['status']} "
                  f"(s1 {health['shards']['s1']['status']})")

            # ----------------------------------------------------------
            # 5. Warm restart: revive + replay the replica's snapshot,
            #    retarget the router (which closes the shard's breaker).
            # ----------------------------------------------------------
            cluster.revive(1)
            cluster.warm(1)
            recovered = cluster.handle("GET", "/forecast", None, None)
            print(f"after warm restart -> {recovered.status} "
                  f"degraded={recovered.body['degraded']}")
            assert recovered.body["degraded"] is None
        single.pool.stop()
    print("done — see docs/CLUSTER.md for the full walkthrough")


if __name__ == "__main__":
    main()

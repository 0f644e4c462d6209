"""Sharded N-worker serving topology over the engine pool.

A :class:`~repro.serve.cluster.ShardPlan` (consistent-hashed contiguous
regions + k-hop halos) assigns sensor nodes to shards; each shard runs
an :class:`~repro.serve.fleet.EnginePool`-backed
:class:`~.shard.ShardApp` over an exactly-sliced sub-model; a thin
:class:`~.router.ClusterRouter` front tier fans writes to holders,
scatter-gathers reads under per-shard deadlines, and fails over through
halo replicas, snapshot-warmed restarts and a stale-row cache.

See ``docs/CLUSTER.md`` for the topology diagram, halo semantics and
the failover walkthrough.
"""

from .config import ClusterConfig
from .demo import corridor_adjacency, make_demo_bundle
from .local import LocalCluster, build_plan, resolve_halo_hops
from .process import ClusterSupervisor, shard_worker_main
from .router import ClusterRouter, merge_prometheus
from .shard import ShardApp
from .sharding import (
    ShardPlan,
    coupling_adjacency,
    k_hop_reach,
    make_shard_bundle,
    plan_shards,
    shard_quality,
    spatial_hops,
    translate_snapshot,
)
from .smoke import run_cluster_smoke
from .transport import HTTPShardClient, LocalShardClient, ShardUnavailable

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterSupervisor",
    "HTTPShardClient",
    "LocalCluster",
    "LocalShardClient",
    "ShardApp",
    "ShardPlan",
    "ShardUnavailable",
    "build_plan",
    "corridor_adjacency",
    "coupling_adjacency",
    "k_hop_reach",
    "make_demo_bundle",
    "make_shard_bundle",
    "merge_prometheus",
    "plan_shards",
    "resolve_halo_hops",
    "run_cluster_smoke",
    "shard_quality",
    "shard_worker_main",
    "spatial_hops",
    "translate_snapshot",
]

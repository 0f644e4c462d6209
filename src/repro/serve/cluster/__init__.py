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

from ... import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".config": ("ClusterConfig",),
    ".demo": ("corridor_adjacency", "make_demo_bundle"),
    ".local": ("LocalCluster", "build_plan", "resolve_halo_hops"),
    ".process": ("ClusterSupervisor", "shard_worker_main"),
    ".router": ("ClusterRouter", "merge_prometheus"),
    ".shard": ("ShardApp",),
    ".sharding": (
        "ShardPlan", "coupling_adjacency", "k_hop_reach", "make_shard_bundle", "plan_shards",
        "shard_quality", "spatial_hops", "translate_snapshot",
    ),
    ".smoke": ("run_cluster_smoke",),
    ".transport": ("HTTPShardClient", "LocalShardClient", "ShardUnavailable"),
})

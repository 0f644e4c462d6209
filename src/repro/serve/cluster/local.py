"""In-process cluster: every shard in this process, no sockets.

The tier-1 test surface and the identity control. Shards are real
:class:`~.shard.ShardApp` instances behind
:class:`~.transport.LocalShardClient` wrappers, so the router exercises
the exact production fan-out/scatter-gather/failover paths — only the
transport is swapped. ``kill``/``revive``/``warm`` simulate worker
crashes and snapshot-warmed restarts without processes.
"""

from __future__ import annotations

import json

from ...errors import ConfigError, StateError
from ...telemetry import MetricRegistry
from ..artifact import ModelBundle
from .config import ClusterConfig
from .router import ClusterRouter
from .shard import ShardApp
from .sharding import ShardPlan, coupling_adjacency, plan_shards, spatial_hops
from .transport import LocalShardClient, ShardUnavailable

__all__ = ["LocalCluster", "resolve_halo_hops", "build_plan"]


def resolve_halo_hops(bundle: ModelBundle, halo_hops: int | None) -> int:
    """The halo the bundle's model needs, unless explicitly overridden.

    ``None`` (auto) picks the model's per-forward receptive field; an
    unbounded field means full replication (halo = graph diameter,
    approximated by ``num_nodes``).
    """
    if halo_hops is not None:
        return int(halo_hops)
    hops = spatial_hops(bundle.model)
    if hops is None:
        return int(bundle.num_nodes)  # BFS saturates: full replication
    return int(hops)


def build_plan(bundle: ModelBundle, config: ClusterConfig) -> ShardPlan:
    """Shard plan for a bundle under a cluster config (halo auto-derived)."""
    return plan_shards(
        coupling_adjacency(bundle),
        config.num_shards,
        halo_hops=resolve_halo_hops(bundle, config.halo_hops),
        num_regions=config.num_regions,
        load_factor=config.load_factor,
        salt=config.salt,
    )


class LocalCluster:
    """A full sharded topology living in one process."""

    def __init__(
        self,
        bundle: ModelBundle,
        config: ClusterConfig | None = None,
        plan: ShardPlan | None = None,
    ):
        self.config = config if config is not None else ClusterConfig()
        self.bundle = bundle
        self.plan = plan if plan is not None else build_plan(bundle, self.config)
        if self.plan.num_shards != self.config.num_shards and config is not None:
            raise ConfigError(
                f"plan has {self.plan.num_shards} shards, config wants "
                f"{self.config.num_shards}"
            )
        self.apps = [
            ShardApp(
                bundle, self.plan, shard,
                config=self.config.serve,
                registry=MetricRegistry(),
            )
            for shard in range(self.plan.num_shards)
        ]
        self.clients = [LocalShardClient(app) for app in self.apps]
        self.router = ClusterRouter(
            self.plan, self.clients, config=self.config,
            registry=MetricRegistry(),
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "LocalCluster":
        for app in self.apps:
            app.start()
        return self

    def stop(self) -> None:
        self.router.close()
        for app in self.apps:
            app.stop()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def handle(self, method, path, body, headers=None):
        return self.router.handle(method, path, body, headers)

    # -- chaos hooks ---------------------------------------------------
    def kill(self, shard: int) -> None:
        """Simulate a dead worker: its client refuses every request."""
        self.clients[shard].down = True

    def revive(self, shard: int, warm: bool = True) -> bool:
        """Bring a killed worker back; True when snapshot-warmed."""
        self.clients[shard].down = False
        warmed = self.warm(shard) if warm else False
        # Re-register with the router so its breaker starts closed, as
        # a real restart (new port, retarget) would.
        self.router.retarget(shard, self.clients[shard])
        return warmed

    def warm(self, shard: int) -> bool:
        """Warm ``shard`` from the first live peer that answers.

        Returns True when a replica snapshot was replayed into the
        shard's store (the production restart path, minus sockets).
        """
        for peer in self.plan.replicas_of(shard):
            if self.clients[peer].down:
                continue
            try:
                snap = self.clients[peer].request("GET", "/shard/snapshot")
            except (StateError, ShardUnavailable):
                continue
            if snap.status != 200:
                continue
            body = json.dumps({
                "nodes": snap.body["nodes"],
                "state": snap.body["state"],
            }).encode()
            restored = self.clients[shard].request(
                "POST", "/shard/restore", body=body
            )
            if restored.status == 200:
                return True
        return False

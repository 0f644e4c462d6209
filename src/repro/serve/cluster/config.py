"""Cluster topology configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import ConfigError
from ..config import ServeConfig

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and routing knobs for the sharded serving cluster.

    ``halo_hops=None`` derives the halo from the bundle's model (the
    spatial receptive field of one forward pass, or full replication
    when that is unbounded). ``serve`` configures every shard's inner
    engine; ``host``/``port`` are the router's bind address.
    """

    num_shards: int = 2
    halo_hops: int | None = None
    num_regions: int | None = None
    load_factor: float = 1.25
    salt: str = ""
    host: str = "127.0.0.1"
    port: int = 0
    #: wall-clock budget for one fan-out request to one shard
    shard_deadline_s: float = 2.0
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self):
        if self.num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.halo_hops is not None and self.halo_hops < 0:
            raise ConfigError(f"halo_hops must be >= 0, got {self.halo_hops}")
        if self.shard_deadline_s <= 0:
            raise ConfigError(
                f"shard_deadline_s must be positive, got {self.shard_deadline_s}"
            )
        if self.load_factor < 1.0:
            raise ConfigError(f"load_factor must be >= 1, got {self.load_factor}")

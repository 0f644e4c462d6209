"""Heterogeneous graph set (Section III-D).

One *geographic* graph (from road-network distances, Eq. 8) plus ``M``
*temporal* graphs — one per timeline interval — built from pairwise series
distances between the nodes' historical-average profiles within that
interval. The HGCN block runs one GCN per graph and aggregates node
embeddings with per-timestamp interval weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjacency import gaussian_kernel_adjacency
from .laplacian import chebyshev_polynomials
from .partition import (
    PartitionConfig,
    TimelinePartition,
    TimelinePartitioner,
    daily_profile,
    wrap_slice,
)

__all__ = [
    "HeterogeneousGraphSet",
    "build_temporal_graphs",
    "build_heterogeneous_graphs",
]


def build_temporal_graphs(
    data: np.ndarray,
    mask: np.ndarray | None,
    partition: TimelinePartition,
    metric: str = "dtw",
    epsilon: float = 0.1,
    downsample_to: int = 24,
    metric_kwargs: dict | None = None,
) -> list[np.ndarray]:
    """One adjacency matrix per partition interval.

    For each interval, per-node historical-average series are extracted
    from the (missing-aware) daily profile, pairwise series distances are
    computed with ``metric``, and Eq. (8) converts them to edge weights.
    """
    from ..distances.pairwise import series_distance_matrix

    profile = daily_profile(data, mask, partition.steps_per_day)  # (S, N, D)
    graphs: list[np.ndarray] = []
    for start, end in partition.intervals:
        segment = wrap_slice(profile, start, end)  # (L, N, D)
        length = segment.shape[0]
        target = min(downsample_to, length)
        if length > target:
            edges = np.linspace(0, length, target + 1).astype(int)
            segment = np.stack(
                [segment[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])]
            )
        series = np.transpose(segment, (1, 0, 2))  # (N, L, D)
        distances = series_distance_matrix(series, metric=metric, **(metric_kwargs or {}))
        graphs.append(gaussian_kernel_adjacency(distances, epsilon=epsilon))
    return graphs


@dataclass
class HeterogeneousGraphSet:
    """The full graph collection consumed by the HGCN block.

    Attributes
    ----------
    geographic:
        Adjacency from road-network distances, ``(N, N)``.
    temporal:
        One adjacency per timeline interval.
    partition:
        The interval structure (provides per-timestamp weights).
    membership_mode:
        ``"hard"`` or ``"soft"`` interval weighting (see
        :meth:`TimelinePartition.membership_weights`).
    """

    geographic: np.ndarray
    temporal: list[np.ndarray]
    partition: TimelinePartition
    membership_mode: str = "hard"
    membership_temperature: float | None = None
    _weight_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = self.geographic.shape[0]
        for idx, adj in enumerate(self.temporal):
            if adj.shape != (n, n):
                raise ValueError(
                    f"temporal graph {idx} has shape {adj.shape}, expected {(n, n)}"
                )
        if len(self.temporal) != self.partition.num_intervals:
            raise ValueError(
                f"{len(self.temporal)} temporal graphs for "
                f"{self.partition.num_intervals} intervals"
            )

    @property
    def num_nodes(self) -> int:
        return self.geographic.shape[0]

    @property
    def num_temporal(self) -> int:
        return len(self.temporal)

    def all_adjacencies(self) -> list[np.ndarray]:
        """Geographic graph first, then the temporal graphs."""
        return [self.geographic, *self.temporal]

    def cheb_stacks(self, order: int) -> list[np.ndarray]:
        """Chebyshev polynomial stacks ``(K, N, N)`` for every graph."""
        return [chebyshev_polynomials(adj, order) for adj in self.all_adjacencies()]

    def interval_weights(self, steps_of_day: np.ndarray) -> np.ndarray:
        """Per-timestamp temporal-graph weights ``(len(steps), M)``.

        Memoized per unique step since windows revisit the same
        time-of-day slots constantly during training.
        """
        steps = (np.asarray(steps_of_day, dtype=np.int64) % self.partition.steps_per_day).tolist()
        # A sorted set, not np.unique: NumPy 2's unique imports numpy.ma.
        missing = [s for s in sorted(set(steps)) if s not in self._weight_cache]
        if missing:
            fresh = self.partition.membership_weights(
                np.array(missing, dtype=np.int64),
                mode=self.membership_mode,
                temperature=self.membership_temperature,
            )
            for step, row in zip(missing, fresh):
                self._weight_cache[step] = row
        return np.stack([self._weight_cache[s] for s in steps])


def build_heterogeneous_graphs(
    data: np.ndarray,
    mask: np.ndarray | None,
    geographic_distances: np.ndarray,
    steps_per_day: int,
    num_intervals: int = 4,
    metric: str = "dtw",
    epsilon: float = 0.1,
    partition_config: PartitionConfig | None = None,
    membership_mode: str = "hard",
) -> HeterogeneousGraphSet:
    """End-to-end construction: partition the timeline, build all graphs.

    This is the one-call entry point used by the experiment harness; the
    pieces are individually exposed for finer control and tests.
    """
    config = partition_config or PartitionConfig(num_intervals=num_intervals, metric=metric)
    if config.num_intervals != num_intervals:
        raise ValueError(
            "partition_config.num_intervals disagrees with num_intervals "
            f"({config.num_intervals} vs {num_intervals})"
        )
    partition = TimelinePartitioner(config).fit(data, mask, steps_per_day=steps_per_day)
    temporal = build_temporal_graphs(
        data, mask, partition, metric=metric, epsilon=epsilon,
        downsample_to=config.downsample_to,
    )
    geographic = gaussian_kernel_adjacency(geographic_distances, epsilon=epsilon)
    return HeterogeneousGraphSet(
        geographic=geographic,
        temporal=temporal,
        partition=partition,
        membership_mode=membership_mode,
    )

"""Timeline partitioning — Eq. (2) of the paper and its four constraints.

To build ``M`` temporal graphs, the daily timeline is split into ``M``
non-overlapping intervals such that the total pairwise distance between the
historical traffic profiles of the intervals is maximized:

    max_{t_1..t_{M-1}}  sum_{i,j} D(H_{t_i}, H_{t_j})

subject to (Section III-D2):

1. every interval is at least ``min_hours`` long (paper: 1 hour, derived
   from ``T/(P·M)``);
2. every interval is at most ``Q·T/M`` long (paper: Q=2, i.e. 12 h for M=4);
3. the ratio between the minimum pairwise interval distance and the sum of
   all pairwise distances is at most ``eta`` (paper: 10 %);
4. the longest interval covers at most ``gamma`` of the timeline
   (paper: 50 %).

Candidate split points live on hour boundaries. The search is exhaustive
when the combination count is tractable and falls back to a stochastic
beam search for large ``M``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..distances import paired_distances

__all__ = [
    "TimelinePartition",
    "PartitionConfig",
    "TimelinePartitioner",
    "daily_profile",
    "wrap_slice",
    "ShardPlan",
    "plan_shards",
    "shard_quality",
    "k_hop_reach",
]

#: ``(start, end)`` of a timeline interval in candidate slots; ``end`` may
#: pass the day's slot count when the interval wraps midnight.
Interval = tuple[int, int]


def daily_profile(
    data: np.ndarray,
    mask: np.ndarray | None,
    steps_per_day: int,
) -> np.ndarray:
    """Missing-aware historical average per time-of-day slot.

    Parameters
    ----------
    data:
        Array ``(T, N, D)`` of traffic measurements over multiple days.
    mask:
        Same shape; 1 where observed. ``None`` means fully observed.
    steps_per_day:
        Number of timestamps per day (e.g. 288 for 5-minute data).

    Returns
    -------
    Array ``(steps_per_day, N, D)``; slots never observed fall back to the
    global per-node mean.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError(f"data must be (T, N, D), got shape {data.shape}")
    total, n, d = data.shape
    if mask is None:
        mask = np.ones_like(data)
    mask = np.asarray(mask, dtype=np.float64)
    profile_sum = np.zeros((steps_per_day, n, d))
    profile_count = np.zeros((steps_per_day, n, d))
    slots = np.arange(total) % steps_per_day
    np.add.at(profile_sum, slots, data * mask)
    np.add.at(profile_count, slots, mask)
    with np.errstate(invalid="ignore"):
        profile = profile_sum / profile_count
    # Fallback for never-observed slots: per-node/feature global mean.
    observed_total = mask.sum(axis=0)
    observed_total[observed_total == 0] = 1.0
    global_mean = (data * mask).sum(axis=0) / observed_total
    missing_slots = profile_count == 0
    profile[missing_slots] = np.broadcast_to(global_mean, profile.shape)[missing_slots]
    return profile


@dataclass
class PartitionConfig:
    """Constraint and search configuration for Eq. (2)."""

    num_intervals: int = 4
    min_hours: float = 1.0  # constraint 1 (paper: 1 hour)
    q_factor: float = 2.0  # constraint 2: max length Q*T/M
    eta: float = 0.10  # constraint 3
    gamma: float = 0.50  # constraint 4
    metric: str = "dtw"
    metric_kwargs: dict = field(default_factory=dict)
    #: let the first interval start anywhere in the day (the paper keeps the
    #: timeline linear from 00:00 and flags the circular variant as future
    #: work; we implement both).
    circular: bool = False
    candidate_resolution_hours: float = 1.0
    downsample_to: int = 24  # per-interval series length cap for speed
    exhaustive_limit: int = 20000  # combinations; beyond this use beam search
    beam_width: int = 32
    beam_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.num_intervals < 2:
            raise ValueError(f"need at least 2 intervals, got {self.num_intervals}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")


@dataclass
class TimelinePartition:
    """Result of the optimization: interval boundaries over one day.

    ``boundaries`` holds the ``M`` split points in *steps*, sorted
    ascending. Interval ``m`` covers ``[boundaries[m], boundaries[m+1])``;
    the last interval wraps around midnight to ``boundaries[0]`` (for the
    paper's linear timeline, ``boundaries[0] == 0`` and the last interval
    simply ends at ``steps_per_day``). Interval ends may therefore exceed
    ``steps_per_day``; use :func:`wrap_slice` to extract profile segments.
    """

    boundaries: tuple[int, ...]
    steps_per_day: int
    score: float = 0.0

    def __post_init__(self):
        bounds = tuple(self.boundaries)
        if any(b >= self.steps_per_day or b < 0 for b in bounds):
            raise ValueError(
                f"boundaries must lie in [0, {self.steps_per_day}), got {bounds}"
            )
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must be strictly increasing, got {bounds}")

    @property
    def num_intervals(self) -> int:
        return len(self.boundaries)

    @property
    def circular(self) -> bool:
        """True when the first interval does not start at midnight."""
        return self.boundaries[0] != 0

    @property
    def intervals(self) -> list[tuple[int, int]]:
        """List of ``(start_step, end_step)`` pairs; the last wraps."""
        ends = list(self.boundaries[1:]) + [self.boundaries[0] + self.steps_per_day]
        return list(zip(self.boundaries, ends))

    def interval_of(self, step_of_day: int) -> int:
        """Index of the interval containing a time-of-day step."""
        step = int(step_of_day) % self.steps_per_day
        if step < self.boundaries[0]:
            step += self.steps_per_day  # falls in the wrapped last interval
        for idx, (start, end) in enumerate(self.intervals):
            if start <= step < end:
                return idx
        raise RuntimeError(f"step {step} not covered by any interval")  # pragma: no cover

    def membership_weights(
        self,
        steps_of_day: np.ndarray,
        mode: str = "hard",
        temperature: float | None = None,
    ) -> np.ndarray:
        """Per-interval weights for each timestamp, shape ``(len(steps), M)``.

        ``hard``: indicator of the containing interval (the weighted sum in
        HGCN then selects one temporal GCN per step). ``soft``: weights decay
        with the circular distance between the step and each interval
        center, so steps near a boundary blend adjacent interval graphs.
        """
        steps = np.asarray(steps_of_day) % self.steps_per_day
        m = self.num_intervals
        weights = np.zeros((len(steps), m))
        if mode == "hard":
            for i, step in enumerate(steps):
                weights[i, self.interval_of(int(step))] = 1.0
            return weights
        if mode == "soft":
            if temperature is None:
                temperature = self.steps_per_day / (4.0 * m)
            centers = np.array(
                [((s + e) / 2.0) % self.steps_per_day for s, e in self.intervals]
            )
            delta = np.abs(steps[:, None] - centers[None, :])
            circular = np.minimum(delta, self.steps_per_day - delta)
            weights = np.exp(-circular / temperature)
            return weights / weights.sum(axis=1, keepdims=True)
        raise ValueError(f"unknown membership mode {mode!r}")


class TimelinePartitioner:
    """Solves Eq. (2) over hour-boundary candidates.

    Usage::

        partitioner = TimelinePartitioner(config)
        partition = partitioner.fit(data, mask, steps_per_day=288)
    """

    def __init__(self, config: PartitionConfig | None = None):
        self.config = config or PartitionConfig()

    # ------------------------------------------------------------------
    def fit(
        self,
        data: np.ndarray,
        mask: np.ndarray | None = None,
        steps_per_day: int = 288,
    ) -> TimelinePartition:
        """Compute the optimal partition for the given history."""
        cfg = self.config
        profile = daily_profile(data, mask, steps_per_day)

        steps_per_candidate = max(1, round(steps_per_day * cfg.candidate_resolution_hours / 24.0))
        num_candidates = steps_per_day // steps_per_candidate
        min_len = max(1, math.ceil(num_candidates * cfg.min_hours / 24.0))
        max_len_q = cfg.q_factor * num_candidates / cfg.num_intervals
        max_len_gamma = cfg.gamma * num_candidates
        max_len = int(min(max_len_q, max_len_gamma))
        if max_len * cfg.num_intervals < num_candidates:
            raise ValueError(
                "constraints are infeasible: maximum interval length "
                f"{max_len} x {cfg.num_intervals} intervals cannot cover "
                f"{num_candidates} candidate slots"
            )

        candidates = self._search(num_candidates, min_len, max_len)
        distances = self._pair_distances(profile, candidates, num_candidates)
        best_splits, best_score = self._select_best(candidates, distances, num_candidates)
        boundaries = tuple(int(s * steps_per_candidate) for s in best_splits)
        return TimelinePartition(
            boundaries=boundaries, steps_per_day=steps_per_day, score=best_score
        )

    # ------------------------------------------------------------------
    def _search(
        self, num_candidates: int, min_len: int, max_len: int
    ) -> list[tuple[int, ...]]:
        """Enumerate (or sample) feasible boundary tuples.

        Linear mode pins the first boundary at 0 (the paper's setting);
        circular mode lets all ``M`` boundaries float, so the first interval
        can straddle midnight.
        """
        cfg = self.config
        free = cfg.num_intervals - (0 if cfg.circular else 1)
        first_position = 0 if cfg.circular else 1
        positions = range(first_position, num_candidates)
        total_combos = math.comb(len(positions), free)
        feasible: list[tuple[int, ...]] = []

        def to_boundaries(combo: Sequence[int]) -> tuple[int, ...]:
            return tuple(combo) if cfg.circular else (0, *combo)

        def lengths_ok(combo: Sequence[int]) -> bool:
            bounds = to_boundaries(combo)
            edges = [*bounds, bounds[0] + num_candidates]
            lengths = [b - a for a, b in zip(edges[:-1], edges[1:])]
            return all(min_len <= length <= max_len for length in lengths)

        if total_combos <= cfg.exhaustive_limit:
            for combo in itertools.combinations(positions, free):
                if lengths_ok(combo):
                    feasible.append(to_boundaries(combo))
        else:
            rng = np.random.default_rng(cfg.seed)
            # Seed the beam with uniform splits, then mutate.
            uniform = tuple(
                round(first_position + i * (num_candidates - first_position) / free)
                for i in range(free)
            )
            beam = {uniform} if lengths_ok(uniform) else set()
            attempts = 0
            while len(beam) < cfg.beam_width and attempts < 100 * cfg.beam_width:
                attempts += 1
                combo = tuple(
                    sorted(rng.choice(np.asarray(positions), free, replace=False))
                )
                if lengths_ok(combo):
                    beam.add(combo)
            beam_list = list(beam)
            for _ in range(cfg.beam_iterations):
                parent = beam_list[rng.integers(len(beam_list))]
                idx = rng.integers(free)
                shift = int(rng.choice([-2, -1, 1, 2]))
                child = list(parent)
                child[idx] = int(
                    np.clip(child[idx] + shift, first_position, num_candidates - 1)
                )
                child_t = tuple(sorted(set(child)))
                if len(child_t) == free and lengths_ok(child_t):
                    beam_list.append(child_t)
            feasible = [to_boundaries(c) for c in dict.fromkeys(beam_list)]
        if not feasible:
            raise RuntimeError("no feasible partition under the configured constraints")
        return feasible

    def _select_best(
        self,
        candidates: list[tuple[int, ...]],
        pair_distances: dict[tuple[Interval, Interval], float],
        num_candidates: int,
    ) -> tuple[tuple[int, ...], float]:
        cfg = self.config
        best_splits: tuple[int, ...] | None = None
        best_score = -math.inf
        fallback_splits: tuple[int, ...] | None = None
        fallback_score = -math.inf
        for bounds in candidates:
            distances = [
                pair_distances[pair]
                for pair in itertools.combinations(_intervals(bounds, num_candidates), 2)
            ]
            score = float(sum(distances))
            total = score if score > 0 else 1.0
            eta_ok = min(distances) / total <= cfg.eta
            if eta_ok and score > best_score:
                best_score = score
                best_splits = bounds
            if score > fallback_score:
                fallback_score = score
                fallback_splits = bounds
        if best_splits is None:
            # Every candidate violates the eta constraint; use the best
            # unconstrained candidate rather than failing (the constraint is
            # a tie-breaker in the paper, not a hard feasibility condition).
            best_splits = fallback_splits
            best_score = fallback_score
        assert best_splits is not None
        return best_splits, best_score

    # ------------------------------------------------------------------
    def _pair_distances(
        self,
        profile: np.ndarray,
        candidates: list[tuple[int, ...]],
        num_candidates: int,
    ) -> dict[tuple[Interval, Interval], float]:
        """D(H_a, H_b), the mean per-node series distance, for every interval
        pair some candidate needs.

        Each distinct interval's series is built once, and the pairs are
        scored in batches of equal series shapes (one batched DTW per shape).
        """
        cfg = self.config
        pairs = dict.fromkeys(
            pair
            for bounds in candidates
            for pair in itertools.combinations(_intervals(bounds, num_candidates), 2)
        )
        series = {
            interval: self._interval_series(profile, interval, num_candidates)
            for interval in dict.fromkeys(itertools.chain.from_iterable(pairs))
        }
        by_shape: dict[tuple, list[tuple[Interval, Interval]]] = {}
        for a, b in pairs:
            by_shape.setdefault((series[a].shape, series[b].shape), []).append((a, b))
        values: dict[tuple[Interval, Interval], float] = {}
        for group in by_shape.values():
            left = np.stack([series[a] for a, _ in group])  # (P, N, L_a, D)
            right = np.stack([series[b] for _, b in group])  # (P, N, L_b, D)
            per_node = paired_distances(
                left.reshape(-1, *left.shape[2:]),
                right.reshape(-1, *right.shape[2:]),
                cfg.metric,
                **cfg.metric_kwargs,
            ).reshape(left.shape[:2])
            # A row mean over the contiguous node axis sums like np.mean of
            # one pair's node list, so each value is the per-pair mean exactly.
            values.update(zip(group, per_node.mean(axis=1).tolist()))
        return values

    def _interval_series(
        self, profile: np.ndarray, interval: Interval, num_candidates: int
    ) -> np.ndarray:
        """Per-node profile slice for an interval, downsampled, ``(N, L, D)``."""
        steps_per_day = profile.shape[0]
        start = interval[0] * steps_per_day // num_candidates
        end = interval[1] * steps_per_day // num_candidates
        segment = wrap_slice(profile, start, end)  # (L, N, D)
        length = segment.shape[0]
        target = min(self.config.downsample_to, length)
        if length > target:
            # Average-pool to `target` points.
            edges = np.linspace(0, length, target + 1).astype(int)
            segment = np.stack(
                [segment[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])]
            )
        return np.transpose(segment, (1, 0, 2))  # (N, L, D)


def _intervals(bounds: tuple[int, ...], num_candidates: int) -> list[Interval]:
    """``(start, end)`` candidate-slot intervals of a boundary tuple; the last wraps."""
    edges = [*bounds, bounds[0] + num_candidates]
    return list(zip(edges[:-1], edges[1:]))


def wrap_slice(profile: np.ndarray, start: int, end: int) -> np.ndarray:
    """Slice ``profile`` along axis 0 over ``[start, end)``, wrapping.

    ``profile`` covers one day; ``end`` may exceed its length for intervals
    that straddle midnight (circular partitions), in which case the slice
    concatenates the tail of the day with its head.
    """
    period = profile.shape[0]
    if not 0 <= start < period:
        raise ValueError(f"start {start} outside [0, {period})")
    if end <= start or end > start + period:
        raise ValueError(f"end {end} must satisfy start < end <= start + period")
    if end <= period:
        return profile[start:end]
    return np.concatenate([profile[start:], profile[: end - period]], axis=0)


# ----------------------------------------------------------------------
# Node sharding (spatial partitioning for the sharded serving cluster)
# ----------------------------------------------------------------------


def _support(adjacency: np.ndarray) -> np.ndarray:
    """Boolean symmetric edge support of a (possibly directed) adjacency."""
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    support = np.abs(a) > 0
    support |= support.T
    np.fill_diagonal(support, False)
    return support


def k_hop_reach(adjacency: np.ndarray, seeds: Sequence[int], hops: int) -> np.ndarray:
    """Sorted node ids within ``hops`` edges of ``seeds`` (seeds included)."""
    support = _support(adjacency)
    reached = np.zeros(support.shape[0], dtype=bool)
    reached[np.asarray(list(seeds), dtype=int)] = True
    frontier = reached.copy()
    for _ in range(int(hops)):
        if not frontier.any():
            break
        nxt = support[frontier].any(axis=0) & ~reached
        reached |= nxt
        frontier = nxt
    return np.flatnonzero(reached)


def _grow_regions(support: np.ndarray, num_regions: int) -> list[list[int]]:
    """Split nodes into ``num_regions`` contiguous, balanced regions.

    Greedy BFS growth: seed each region at the lowest-index unassigned
    node, absorb neighbours in index order up to a balanced capacity,
    jump to a fresh seed when the frontier dries up (disconnected
    graphs). Deterministic in the adjacency alone.
    """
    n = support.shape[0]
    capacity = math.ceil(n / num_regions)
    assigned = np.full(n, -1, dtype=int)
    regions: list[list[int]] = []
    for region in range(num_regions):
        members: list[int] = []
        remaining = np.flatnonzero(assigned < 0)
        if remaining.size == 0:
            regions.append(members)
            continue
        queue = [int(remaining[0])]
        while len(members) < capacity:
            if not queue:
                remaining = np.flatnonzero(assigned < 0)
                if remaining.size == 0:
                    break
                queue = [int(remaining[0])]
            node = queue.pop(0)
            if assigned[node] >= 0:
                continue
            assigned[node] = region
            members.append(node)
            neighbours = np.flatnonzero(support[node] & (assigned < 0))
            queue.extend(int(v) for v in neighbours if v not in queue)
        regions.append(sorted(members))
    leftovers = np.flatnonzero(assigned < 0)
    if leftovers.size:  # pragma: no cover - capacity*num_regions >= n
        regions[-1].extend(int(v) for v in leftovers)
        regions[-1].sort()
    return regions


def _hash_position(token: str) -> int:
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big")


def _ring_assign(
    num_regions: int, num_shards: int, salt: str, vnodes: int, load_factor: float
) -> list[int]:
    """Consistent-hash regions onto shards with bounded per-shard load.

    Each shard owns ``vnodes`` positions on a sha256 ring; a region maps
    to the first clockwise position whose shard is below the load bound
    ``ceil(num_regions / num_shards * load_factor)``. Adding a shard
    therefore only moves regions onto the new shard, and no shard can
    grab more than the bound even for adversarial hashes.
    """
    ring = sorted(
        (_hash_position(f"{salt}|shard:{shard}|vnode:{v}"), shard)
        for shard in range(num_shards)
        for v in range(vnodes)
    )
    bound = math.ceil(num_regions / num_shards * load_factor)
    loads = [0] * num_shards
    assignment = [0] * num_regions
    positions = [pos for pos, _ in ring]
    for region in range(num_regions):
        key = _hash_position(f"{salt}|region:{region}")
        start = np.searchsorted(positions, key) % len(ring)
        for offset in range(len(ring)):
            shard = ring[(start + offset) % len(ring)][1]
            if loads[shard] < bound:
                assignment[region] = shard
                loads[shard] += 1
                break
    return assignment


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of sensor nodes to serving shards, with halos.

    ``assignment[node]`` is the owning (primary) shard. ``halos[s]``
    holds the extra nodes shard ``s`` replicates read-only so that a
    ``halo_hops``-hop graph convolution over its owned nodes sees the
    same neighbourhood it would on the full graph. Regions record the
    contiguous groups that consistent hashing placed (provenance for
    rebalancing).
    """

    num_nodes: int
    num_shards: int
    halo_hops: int
    assignment: tuple[int, ...]
    halos: tuple[tuple[int, ...], ...]
    regions: tuple[tuple[int, ...], ...]
    region_shard: tuple[int, ...]
    salt: str = ""

    def __post_init__(self):
        if len(self.assignment) != self.num_nodes:
            raise ValueError(
                f"assignment covers {len(self.assignment)} nodes, expected {self.num_nodes}"
            )
        if len(self.halos) != self.num_shards:
            raise ValueError(f"need one halo per shard, got {len(self.halos)}")
        for node, shard in enumerate(self.assignment):
            if not 0 <= shard < self.num_shards:
                raise ValueError(f"node {node} assigned to invalid shard {shard}")

    # -- lookups -------------------------------------------------------
    def owner(self, node: int) -> int:
        """Primary shard of a global node id."""
        if not 0 <= node < self.num_nodes:
            raise KeyError(f"node {node} outside [0, {self.num_nodes})")
        return self.assignment[node]

    def nodes_of(self, shard: int) -> tuple[int, ...]:
        """Sorted global ids owned by ``shard``."""
        return tuple(n for n, s in enumerate(self.assignment) if s == shard)

    def halo_of(self, shard: int) -> tuple[int, ...]:
        """Sorted global ids replicated (not owned) on ``shard``."""
        return self.halos[shard]

    def retained_of(self, shard: int) -> tuple[int, ...]:
        """Sorted global ids materialized on ``shard`` (owned + halo)."""
        return tuple(sorted({*self.nodes_of(shard), *self.halos[shard]}))

    def holders_of(self, node: int) -> tuple[int, ...]:
        """Owner first, then every shard retaining ``node`` in its halo."""
        owner = self.owner(node)
        replicas = [s for s in range(self.num_shards) if s != owner and node in self.halos[s]]
        return (owner, *replicas)

    def replicas_of(self, shard: int) -> tuple[int, ...]:
        """Failover order: the other shards, nearest ring successor first."""
        return tuple((shard + off) % self.num_shards for off in range(1, self.num_shards))

    # -- serialization -------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "num_shards": self.num_shards,
            "halo_hops": self.halo_hops,
            "assignment": list(self.assignment),
            "halos": [list(h) for h in self.halos],
            "regions": [list(r) for r in self.regions],
            "region_shard": list(self.region_shard),
            "salt": self.salt,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ShardPlan":
        return cls(
            num_nodes=int(payload["num_nodes"]),
            num_shards=int(payload["num_shards"]),
            halo_hops=int(payload["halo_hops"]),
            assignment=tuple(int(s) for s in payload["assignment"]),
            halos=tuple(tuple(int(n) for n in h) for h in payload["halos"]),
            regions=tuple(tuple(int(n) for n in r) for r in payload["regions"]),
            region_shard=tuple(int(s) for s in payload["region_shard"]),
            salt=str(payload.get("salt", "")),
        )


def plan_shards(
    adjacency: np.ndarray,
    num_shards: int,
    halo_hops: int = 1,
    num_regions: int | None = None,
    vnodes: int = 64,
    load_factor: float = 1.25,
    salt: str = "",
) -> ShardPlan:
    """Build a :class:`ShardPlan` for a sensor graph.

    Two-level placement: the graph is first split into contiguous
    balanced regions (BFS growth, so spatial locality survives), then
    region ids are consistent-hashed onto shards via a bounded-load
    sha256 ring — the halo ring of each shard is the ``halo_hops``-hop
    BFS fringe of its owned set. ``halo_hops`` at least ``K - 1`` (the
    Chebyshev order minus one) makes a one-conv-per-step model's owned
    rows exact; larger models need larger halos.
    """
    support = _support(adjacency)
    n = support.shape[0]
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > n:
        raise ValueError(f"cannot split {n} nodes into {num_shards} shards")
    if halo_hops < 0:
        raise ValueError(f"halo_hops must be >= 0, got {halo_hops}")
    if num_regions is None:
        num_regions = min(n, max(num_shards, 4 * num_shards))
    if num_regions < num_shards or num_regions > n:
        raise ValueError(
            f"num_regions must lie in [{num_shards}, {n}], got {num_regions}"
        )
    regions = _grow_regions(support, num_regions)
    region_shard = _ring_assign(num_regions, num_shards, salt, vnodes, load_factor)
    # Guarantee no shard is empty: hand the largest region of the most
    # loaded shard to each empty one (rare; bounded loads make it rarer).
    owned_regions: dict[int, list[int]] = {s: [] for s in range(num_shards)}
    for region, shard in enumerate(region_shard):
        owned_regions[shard].append(region)
    for shard in range(num_shards):
        if owned_regions[shard]:
            continue
        donor = max(
            (s for s in range(num_shards) if len(owned_regions[s]) > 1),
            key=lambda s: len(owned_regions[s]),
            default=None,
        )
        if donor is None:
            raise ValueError(
                f"cannot place {num_shards} shards over {num_regions} regions"
            )
        moved = owned_regions[donor].pop()
        owned_regions[shard].append(moved)
        region_shard[moved] = shard
    assignment = np.zeros(n, dtype=int)
    for region, shard in enumerate(region_shard):
        assignment[list(regions[region])] = shard
    halos = []
    for shard in range(num_shards):
        owned = np.flatnonzero(assignment == shard)
        reach = k_hop_reach(support, owned, halo_hops) if owned.size else np.array([], dtype=int)
        halos.append(tuple(int(v) for v in reach if assignment[v] != shard))
    return ShardPlan(
        num_nodes=n,
        num_shards=num_shards,
        halo_hops=int(halo_hops),
        assignment=tuple(int(s) for s in assignment),
        halos=tuple(halos),
        regions=tuple(tuple(r) for r in regions),
        region_shard=tuple(int(s) for s in region_shard),
        salt=salt,
    )


def shard_quality(plan: ShardPlan, adjacency: np.ndarray) -> dict:
    """Partition quality metrics: edge cut, balance, replication.

    ``edge_cut`` is the fraction of (undirected) edges whose endpoints
    live on different primary shards; ``balance`` is the largest owned
    share relative to a perfectly even split (1.0 = perfect);
    ``replication_factor`` is materialized rows over graph rows (1.0 =
    no halo overhead).
    """
    support = _support(adjacency)
    iu = np.triu_indices_from(support, k=1)
    edges = np.flatnonzero(support[iu])
    src, dst = iu[0][edges], iu[1][edges]
    assignment = np.asarray(plan.assignment)
    cut = int((assignment[src] != assignment[dst]).sum()) if edges.size else 0
    owned_sizes = [len(plan.nodes_of(s)) for s in range(plan.num_shards)]
    retained_sizes = [len(plan.retained_of(s)) for s in range(plan.num_shards)]
    even = plan.num_nodes / plan.num_shards
    return {
        "edge_cut": cut / max(1, edges.size),
        "cut_edges": cut,
        "total_edges": int(edges.size),
        "balance": max(owned_sizes) / even if even else 1.0,
        "owned_sizes": owned_sizes,
        "retained_sizes": retained_sizes,
        "replication_factor": sum(retained_sizes) / max(1, plan.num_nodes),
        "max_halo_fraction": max(
            (len(plan.halo_of(s)) / max(1, len(plan.nodes_of(s))))
            for s in range(plan.num_shards)
        ),
    }

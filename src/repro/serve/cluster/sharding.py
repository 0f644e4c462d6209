"""Node sharding: which shard owns which sensor, and the sub-graph
bundle each shard serves.

:func:`plan_shards` places sensor nodes on shards in two levels. It
first splits the graph into contiguous balanced regions by BFS growth,
so spatial locality survives. It then consistent-hashes the region ids
onto shards through a bounded-load sha256 ring. Each shard also keeps a
``halo_hops``-hop halo of read-only neighbours. The result is a
:class:`ShardPlan`; :func:`shard_quality` scores its edge cut, balance
and replication.

A shard serves forecasts for its *owned* nodes using a model sliced to
its retained nodes (owned + halo). For the one-conv-per-timestep family
(FC-LSTM / FC-GCN / GCN-LSTM) the slice is **exact**: every parameter is
node-count independent, and the only N-dependent state — the Chebyshev
basis — is replaced with row/column slices of the *full* graph's
precomputed basis. Recomputing the basis on the sub-adjacency would
change the spectral operator (the scaled Laplacian bakes in global
degrees and the global max eigenvalue), so slicing is load-bearing, not
an optimisation. With a halo of at least ``cheb_order - 1`` hops, the
forecast rows at owned nodes match the full-graph model to float
round-off; halo rows are inexact and only served as degraded failover.

Models whose spatial receptive field grows per missing step (the
imputation family feeds spatial estimates back into missing entries) or
whose parameters are node-count dependent (Graph WaveNet's learned
adjacency) report ``spatial_hops() = None`` and require full
replication (every shard retains the whole graph) to stay exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ...autodiff import ChebBasis, Tensor, dtype_policy
from ...datasets import ZScoreScaler
from ...errors import ConfigError, ShapeMismatchError
from ...graphs import HeterogeneousGraphSet
from ...models.hgcn import HGCNBlock
from ...models.recurrent_imputation import RecurrentImputationForecaster
from ...models.spatiotemporal import SpatioTemporalForecaster
from ...nn.graph import AdaptiveGraphConv, ChebConv, GraphConv
from ..artifact import ModelBundle, _RebuildContext

__all__ = [
    "ShardPlan",
    "plan_shards",
    "shard_quality",
    "k_hop_reach",
    "spatial_hops",
    "coupling_adjacency",
    "make_shard_bundle",
    "translate_snapshot",
]


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



def _conv_hops(model) -> int | None:
    """Hops mixed by one application of the model's graph operators."""
    hops = 0
    for module in model.modules():
        if isinstance(module, AdaptiveGraphConv):
            return None  # learned adjacency: no fixed locality
        if isinstance(module, (ChebConv, HGCNBlock)):
            hops = max(hops, module.order - 1)  # K polynomials reach K - 1 hops
        elif isinstance(module, GraphConv):
            hops = max(hops, 1)
    return hops


def spatial_hops(model) -> int | None:
    """Spatial receptive field of one forward pass, in graph hops.

    ``None`` means unbounded (or unknown): the model is only exactly
    shardable with full replication. The recurrent imputation family
    is unbounded whenever it mixes space at all, because per-step
    estimates — which already saw the neighbourhood — are fed back into
    missing entries, compounding the reach by ``K - 1`` hops per missing
    step. Unknown model classes are treated conservatively.
    """
    hops = _conv_hops(model)
    if hops is None:
        return None
    if isinstance(model, SpatioTemporalForecaster):
        return hops  # one conv per timestep on raw inputs, no feedback
    if isinstance(model, RecurrentImputationForecaster):
        return 0 if hops == 0 else None
    return 0 if hops == 0 else None


def coupling_adjacency(bundle: ModelBundle) -> np.ndarray:
    """Union edge support the shard planner must respect.

    For heterogeneous models the temporal graphs couple nodes the
    geographic adjacency does not; the halo has to cover every edge any
    operator can propagate along.
    """
    support = (np.abs(bundle.adjacency) > 0).astype(np.float64)
    if bundle.graph_set is not None:
        support += np.abs(bundle.graph_set.geographic) > 0
        for temporal in bundle.graph_set.temporal:
            support += np.abs(temporal) > 0
    return (support > 0).astype(np.float64)


def _check_retained(retained, num_nodes: int) -> np.ndarray:
    ix = np.asarray(sorted(int(v) for v in retained), dtype=int)
    if ix.size == 0:
        raise ConfigError("a shard must retain at least one node")
    if ix[0] < 0 or ix[-1] >= num_nodes:
        raise ConfigError(
            f"retained nodes must lie in [0, {num_nodes}), got {ix[0]}..{ix[-1]}"
        )
    if np.unique(ix).size != ix.size:
        raise ConfigError("retained node list contains duplicates")
    return ix


def make_shard_bundle(bundle: ModelBundle, retained) -> ModelBundle:
    """Slice ``bundle`` down to the given sorted global node ids.

    Returns the bundle itself when the slice covers every node (full
    replication). Raises :class:`ConfigError` when the model has
    node-count-dependent parameters and therefore cannot be sliced.
    """
    n = bundle.num_nodes
    ix = _check_retained(retained, n)
    if ix.size == n:
        return bundle

    sub_adjacency = bundle.adjacency[np.ix_(ix, ix)]
    sub_graph_set = None
    if bundle.graph_set is not None:
        gs = bundle.graph_set
        sub_graph_set = HeterogeneousGraphSet(
            geographic=gs.geographic[np.ix_(ix, ix)],
            temporal=[t[np.ix_(ix, ix)] for t in gs.temporal],
            partition=gs.partition,
            membership_mode=gs.membership_mode,
            membership_temperature=gs.membership_temperature,
        )
    from ...experiments.registry import NEURAL_MODELS

    # build the sub-model under the PARENT's parameter dtype, not the
    # ambient policy — slicing a float64 bundle in a float32 process
    # must not downcast the weights (it would break shard exactness)
    parent_dtype = str(
        next(iter(bundle.model.parameters())).data.dtype
    )

    ctx = _RebuildContext(
        data_config=replace(bundle.data_config, num_nodes=int(ix.size)),
        model_config=bundle.model_config,
        num_nodes=int(ix.size),
        num_features=bundle.num_features,
        adjacency=sub_adjacency,
        graph_set=sub_graph_set,
    )
    with dtype_policy(parent_dtype):
        sub_model = NEURAL_MODELS[bundle.model_name](ctx)
    state = bundle.model.state_dict()
    for name, param in sub_model.named_parameters():
        ref = state.get(name)
        if ref is not None and tuple(ref.shape) != tuple(param.data.shape):
            raise ConfigError(
                f"model {bundle.model_name!r} is not node-shardable: "
                f"parameter {name} is node-count dependent "
                f"(full graph {tuple(ref.shape)}, sub-graph "
                f"{tuple(param.data.shape)}); shard it with full replication"
            )
    try:
        sub_model.load_state_dict(state)
    except ShapeMismatchError as error:  # e.g. non-parameter buffers
        raise ConfigError(
            f"model {bundle.model_name!r} is not node-shardable: {error}"
        ) from error

    # Replace every fixed graph operator with a row/column slice of the
    # FULL graph's operator (see module docstring: recomputing on the
    # sub-adjacency would change the spectral basis).
    full_chebs = [m for m in bundle.model.modules() if isinstance(m, ChebConv)]
    sub_chebs = [m for m in sub_model.modules() if isinstance(m, ChebConv)]
    for full_conv, sub_conv in zip(full_chebs, sub_chebs):
        stack = full_conv._basis.forward_basis.reshape(full_conv.order, n, n)
        sub_conv._basis = ChebBasis(stack[:, ix][:, :, ix])
        sub_conv.num_nodes = int(ix.size)
    full_gconvs = [m for m in bundle.model.modules() if isinstance(m, GraphConv)]
    sub_gconvs = [m for m in sub_model.modules() if isinstance(m, GraphConv)]
    for full_conv, sub_conv in zip(full_gconvs, sub_gconvs):
        sub_conv._propagation = Tensor(full_conv._propagation.data[np.ix_(ix, ix)])
        sub_conv.num_nodes = int(ix.size)

    scaler = bundle.scaler
    if scaler.per_node and scaler.mean_ is not None:
        sub_scaler = ZScoreScaler(per_node=True)
        sub_scaler.mean_ = scaler.mean_[..., ix, :]
        sub_scaler.std_ = scaler.std_[..., ix, :]
        scaler = sub_scaler

    header = dict(bundle.header)
    header["shard"] = {
        "retained_nodes": [int(v) for v in ix],
        "parent_num_nodes": n,
    }
    return ModelBundle(
        model=sub_model,
        scaler=scaler,
        model_name=bundle.model_name,
        data_config=ctx.data_config,
        model_config=bundle.model_config,
        adjacency=sub_adjacency,
        graph_set=sub_graph_set,
        header=header,
    )


def translate_snapshot(state: dict, src_nodes, dst_nodes) -> dict:
    """Re-key a :meth:`StateStore.snapshot` between shard node layouts.

    ``src_nodes`` are the global ids behind the snapshot's rows (in row
    order); the result is a snapshot for a store over ``dst_nodes``.
    Nodes the source never held restore cold (zero mask, never seen) —
    a warmed-from-replica shard is exact on the intersection and merely
    cold, not wrong, on the rest.
    """
    src_index = {int(g): i for i, g in enumerate(src_nodes)}
    dst = [int(g) for g in dst_nodes]
    values = np.asarray(state["values"], dtype=np.float64)
    mask = np.asarray(state["mask"], dtype=np.float64)
    length, _, num_features = values.shape
    out_values = np.zeros((length, len(dst), num_features))
    out_mask = np.zeros_like(out_values)
    src_last = state["last_seen"]
    src_seen = state["seen_ever"]
    cold_last = int(state["start_step"]) - 1
    last_seen: list[int] = []
    seen_ever: list[bool] = []
    for j, node in enumerate(dst):
        i = src_index.get(node)
        if i is None:
            last_seen.append(cold_last)
            seen_ever.append(False)
            continue
        out_values[:, j] = values[:, i]
        out_mask[:, j] = mask[:, i]
        last_seen.append(int(src_last[i]))
        seen_ever.append(bool(src_seen[i]))
    out = dict(state)
    out.update(
        num_nodes=len(dst),
        values=out_values.tolist(),
        mask=out_mask.tolist(),
        last_seen=last_seen,
        seen_ever=seen_ever,
    )
    return out

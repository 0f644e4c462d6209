"""Node-sharding tests: shard plans, halo coverage, quality metrics.

Property-based invariants of :func:`repro.serve.cluster.plan_shards`:

* every node appears in exactly one primary shard (disjoint cover);
* halos cover all k-hop boundary edges — every node reachable within
  ``halo_hops`` of a shard's owned set is retained by that shard;
* plans are deterministic and JSON round-trip exactly;
* :func:`repro.serve.cluster.shard_quality` metrics live in their stated
  ranges (edge cut in [0, 1], balance >= 1, replication >= 1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import from_dict, to_dict
from repro.serve.cluster import (
    ShardPlan,
    corridor_adjacency,
    k_hop_reach,
    plan_shards,
    shard_quality,
)


def random_adjacency(num_nodes: int, density: float, seed: int) -> np.ndarray:
    """Symmetric random graph with weighted edges, no self-loops."""
    rng = np.random.default_rng(seed)
    upper = rng.random((num_nodes, num_nodes)) < density
    weights = rng.uniform(0.1, 1.0, size=(num_nodes, num_nodes))
    adjacency = np.triu(upper * weights, k=1)
    return adjacency + adjacency.T


plan_cases = st.tuples(
    st.integers(min_value=4, max_value=32),   # nodes
    st.integers(min_value=1, max_value=4),    # shards
    st.integers(min_value=0, max_value=2),    # halo hops
    st.floats(min_value=0.05, max_value=0.5),  # density
    st.integers(min_value=0, max_value=10_000),  # seed
)


class TestPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(plan_cases)
    def test_every_node_in_exactly_one_primary_shard(self, case):
        n, shards, halo, density, seed = case
        plan = plan_shards(random_adjacency(n, density, seed), shards,
                           halo_hops=halo)
        counts = np.zeros(n, dtype=int)
        for shard in range(plan.num_shards):
            owned = plan.nodes_of(shard)
            counts[list(owned)] += 1
            # the assignment vector agrees with the per-shard listing
            assert all(plan.owner(node) == shard for node in owned)
        assert (counts == 1).all(), "primary ownership must partition nodes"

    @settings(max_examples=60, deadline=None)
    @given(plan_cases)
    def test_halos_cover_k_hop_boundary(self, case):
        n, shards, halo, density, seed = case
        adjacency = random_adjacency(n, density, seed)
        plan = plan_shards(adjacency, shards, halo_hops=halo)
        for shard in range(plan.num_shards):
            owned = set(plan.nodes_of(shard))
            retained = set(plan.retained_of(shard))
            reach = k_hop_reach(adjacency, sorted(owned), halo)
            assert retained == set(reach), (
                f"shard {shard} halo misses k-hop reach"
            )
            # in particular: every boundary edge's far end is in the halo
            if halo >= 1:
                for u in owned:
                    for v in np.flatnonzero(adjacency[u]):
                        assert int(v) in retained

    @settings(max_examples=40, deadline=None)
    @given(plan_cases)
    def test_deterministic_and_json_round_trip(self, case):
        n, shards, halo, density, seed = case
        adjacency = random_adjacency(n, density, seed)
        plan_a = plan_shards(adjacency, shards, halo_hops=halo, salt="x")
        plan_b = plan_shards(adjacency, shards, halo_hops=halo, salt="x")
        assert to_dict(plan_a) == to_dict(plan_b)
        restored = from_dict(ShardPlan, to_dict(plan_a))
        assert to_dict(restored) == to_dict(plan_a)
        assert restored.num_shards == plan_a.num_shards
        assert [restored.owner(i) for i in range(n)] == [
            plan_a.owner(i) for i in range(n)
        ]

    @settings(max_examples=40, deadline=None)
    @given(plan_cases)
    def test_quality_metric_ranges(self, case):
        n, shards, halo, density, seed = case
        adjacency = random_adjacency(n, density, seed)
        plan = plan_shards(adjacency, shards, halo_hops=halo)
        quality = shard_quality(plan, adjacency)
        assert 0.0 <= quality["edge_cut"] <= 1.0
        assert quality["balance"] >= 1.0
        assert quality["replication_factor"] >= 1.0
        assert sum(quality["owned_sizes"]) == n
        assert len(quality["retained_sizes"]) == plan.num_shards

    @settings(max_examples=40, deadline=None)
    @given(plan_cases)
    def test_holders_start_with_owner(self, case):
        n, shards, halo, density, seed = case
        plan = plan_shards(random_adjacency(n, density, seed), shards,
                           halo_hops=halo)
        for node in range(n):
            holders = plan.holders_of(node)
            assert holders[0] == plan.owner(node)
            for holder in holders:
                assert node in set(plan.retained_of(holder))


class TestCorridorPlans:
    def test_single_shard_owns_everything(self):
        plan = plan_shards(corridor_adjacency(12), 1, halo_hops=2)
        assert list(plan.nodes_of(0)) == list(range(12))
        assert list(plan.halo_of(0)) == []

    def test_contiguous_regions_keep_halos_thin(self):
        adjacency = corridor_adjacency(48)
        plan = plan_shards(adjacency, 2, halo_hops=2)
        quality = shard_quality(plan, adjacency)
        # a width-2 corridor has ~2*width boundary nodes per cut; the
        # two-level plan must stay far from full replication
        assert quality["replication_factor"] < 1.9
        assert quality["edge_cut"] < 0.5

    def test_no_empty_shards(self):
        # more shards than regions would naively allow; donor fixup must
        # leave every shard with at least one node
        plan = plan_shards(corridor_adjacency(16), 4, halo_hops=1)
        for shard in range(4):
            assert plan.nodes_of(shard)

    def test_salt_changes_placement(self):
        adjacency = corridor_adjacency(48)
        plans = {
            tuple(plan_shards(adjacency, 3, halo_hops=1, salt=s).assignment)
            for s in ("", "a", "b", "c")
        }
        assert len(plans) > 1, "ring salt should move region placement"

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            plan_shards(np.zeros((3, 4)), 2)
        with pytest.raises(ValueError):
            plan_shards(corridor_adjacency(8), 0)


class TestKHopReach:
    def test_zero_hops_is_identity(self):
        adjacency = corridor_adjacency(10, width=1)
        assert list(k_hop_reach(adjacency, [3, 4], 0)) == [3, 4]

    def test_hops_expand_along_the_corridor(self):
        adjacency = corridor_adjacency(10, width=1)
        assert list(k_hop_reach(adjacency, [5], 2)) == [3, 4, 5, 6, 7]

    def test_disconnected_component_unreachable(self):
        adjacency = np.zeros((6, 6))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[3, 4] = adjacency[4, 3] = 1.0
        assert list(k_hop_reach(adjacency, [0], 5)) == [0, 1]

"""Tests for road-network generation and the traffic-field simulator."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    PEAK_CLUSTERS,
    TrafficFieldConfig,
    city_grid,
    highway_corridor,
    simulate_traffic_field,
)
from repro.experiments import DataConfig
from repro.experiments.context import _build_dataset


class TestHighwayCorridor:
    def test_basic_shape(self):
        net = highway_corridor(num_nodes=15, seed=0)
        assert net.num_nodes == 15
        assert net.coordinates.shape == (15, 2)
        assert net.distances.shape == (15, 15)

    def test_distances_are_road_distances(self):
        """Shortest-path distances: symmetric, zero diagonal, triangle."""
        net = highway_corridor(num_nodes=10, seed=1)
        d = net.distances
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        n = net.num_nodes
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_connected(self):
        net = highway_corridor(num_nodes=20, seed=2)
        reached, todo = {0}, [0]
        while todo:
            for nbr in net.graph[todo.pop()]:
                if nbr not in reached:
                    reached.add(nbr)
                    todo.append(nbr)
        assert reached == set(range(net.num_nodes))

    def test_graph_is_an_undirected_adjacency_dict(self):
        net = highway_corridor(num_nodes=12, seed=3)
        assert list(net.graph) == list(range(12))
        for u, nbrs in net.graph.items():
            for v, length in nbrs.items():
                assert net.graph[v][u] == length > 0.0
                assert net.distances[u, v] == length  # a tree: each road is the shortest path

    def test_freeway_metadata(self):
        net = highway_corridor(num_nodes=8, seed=0)
        assert (net.speed_limits == 65.0).all()
        assert (net.traffic_lights == 0).all()
        assert (net.lanes >= 3).all()

    def test_deterministic(self):
        a = highway_corridor(num_nodes=10, seed=7)
        b = highway_corridor(num_nodes=10, seed=7)
        assert np.allclose(a.coordinates, b.coordinates)
        assert np.allclose(a.distances, b.distances)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            highway_corridor(num_nodes=1)


class TestCityGrid:
    def test_grid_size(self):
        net = city_grid(rows=3, cols=4, seed=0)
        assert net.num_nodes == 12

    def test_urban_metadata(self):
        net = city_grid(rows=2, cols=3, seed=0)
        assert set(net.speed_limits).issubset({25.0, 30.0, 35.0})
        assert (net.lanes <= 2).all()
        assert (net.traffic_lights <= 3).all()

    def test_grid_adjacent_closer_than_diagonal(self):
        net = city_grid(rows=3, cols=3, seed=1)
        # Node 0's grid neighbour (1) is closer than the far corner (8).
        assert net.distances[0, 1] < net.distances[0, 8]


class TestTrafficFieldConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficFieldConfig(num_days=0)
        with pytest.raises(ValueError):
            TrafficFieldConfig(peak_congestion=1.0)
        with pytest.raises(ValueError):
            TrafficFieldConfig(cluster_names=("martian",))


class TestTrafficField:
    @pytest.fixture(scope="class")
    def field(self):
        net = highway_corridor(num_nodes=8, seed=0)
        cfg = TrafficFieldConfig(num_days=7, steps_per_day=96, seed=0)
        return simulate_traffic_field(net, cfg)

    def test_shapes(self, field):
        assert field.speeds.shape == (7 * 96, 8)
        assert field.congestion.shape == field.speeds.shape
        assert len(field.clusters) == 8

    def test_speeds_positive(self, field):
        assert (field.speeds > 0).all()

    def test_congestion_bounded(self, field):
        assert (field.congestion >= 0).all()
        assert (field.congestion < 1).all()

    def test_rush_hour_slower_than_night(self, field):
        hours = field.steps_of_day * 24 / 96
        weekday = ~np.isin(field.days_of_week, (5, 6))
        rush = weekday & (np.abs(hours - 8) < 1)
        night = weekday & ((hours < 4) | (hours > 23))
        # Use non-flat nodes only.
        active = [i for i, c in enumerate(field.clusters) if c != "flat"]
        if active:
            assert (
                field.speeds[rush][:, active].mean()
                < field.speeds[night][:, active].mean()
            )

    def test_weekend_lighter(self, field):
        weekend = np.isin(field.days_of_week, (5, 6))
        assert field.congestion[weekend].mean() < field.congestion[~weekend].mean()

    def test_clusters_valid_names(self, field):
        assert set(field.clusters).issubset(set(PEAK_CLUSTERS))

    def test_morning_cluster_peaks_in_morning(self):
        """Force a morning node and verify its daily congestion profile."""
        net = highway_corridor(num_nodes=4, seed=3)
        cfg = TrafficFieldConfig(
            num_days=7, steps_per_day=96, cluster_names=("morning",),
            spatial_diffusion=0.0, incident_rate_per_day=0.0, noise_std=0.0,
            seed=3,
        )
        field = simulate_traffic_field(net, cfg)
        hours = field.steps_of_day * 24 / 96
        weekday = ~np.isin(field.days_of_week, (5, 6))
        morning = weekday & (np.abs(hours - 8) < 1.5)
        evening = weekday & (np.abs(hours - 17.5) < 1.5)
        assert field.congestion[morning].mean() > field.congestion[evening].mean()

    def test_deterministic(self):
        net = highway_corridor(num_nodes=5, seed=0)
        cfg = TrafficFieldConfig(num_days=2, steps_per_day=48, seed=11)
        a = simulate_traffic_field(net, cfg)
        b = simulate_traffic_field(net, cfg)
        assert np.allclose(a.speeds, b.speeds)

    def test_steps_and_days_metadata(self, field):
        assert field.steps_of_day.max() == 95
        assert field.days_of_week.max() <= 6
        assert field.num_steps == 7 * 96
        assert field.num_nodes == 8


def _digest(*arrays, graph=None) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    if graph is not None:
        h.update(repr([(u, list(nbrs.items())) for u, nbrs in graph.items()]).encode())
    return h.hexdigest()


class TestPinnedDatasets:
    """The simulated datasets are bit-for-bit what they were when networkx
    built the road graphs and their Dijkstra distances.

    One case per dataset the named specs build through ``repro`` at each
    ``--scale`` (fast, small, full; PEMS and Stampede, data seed 0), plus
    two larger networks. Each digest covers the readings, mask, truth,
    steps of day, every network array (``distances`` included) and the
    adjacency in insertion order.
    """

    @pytest.mark.parametrize("dataset,num_nodes,num_days,digest", [
        ("pems", 6, 4, "4f200c8b692e18c131c999eb21ca1942de6f5f4029809688d674b21aa8851f5d"),
        ("pems", 10, 6, "3454501e9eaa40f9fd5208f04a0490b67fef299e9f6f898545a96f1df42432f0"),
        ("pems", 16, 10, "85f60f692b63124916b240fbc26dba2a68f394ab2e8dc65955aa33fc06750879"),
        ("stampede", 6, 10, "94b674dfbca9f222f6d450f423e58c914597fe367ba669a7d1e16d5146f73445"),
    ])
    def test_spec_datasets_are_unchanged(self, dataset, num_nodes, num_days, digest):
        ds = _build_dataset(DataConfig(dataset=dataset, num_nodes=num_nodes, num_days=num_days))
        net = ds.network
        assert _digest(
            ds.data, ds.mask, ds.truth, ds.steps_of_day, net.coordinates, net.distances,
            net.lanes, net.speed_limits, net.traffic_lights, net.segment_lengths,
            graph=net.graph,
        ) == digest

    @pytest.mark.parametrize("net,digest", [
        (lambda: highway_corridor(num_nodes=50, seed=0),
         "390b7d5549a280680e1ed257920d638a35bf0f735bf351906781dc41c6d5a60f"),
        (lambda: city_grid(rows=5, cols=6, seed=3),
         "35a461c8a3f807fb8deab3e11378003c367d743f8d83a46523b9785ae91fc944"),
    ], ids=["corridor-50", "grid-5x6"])
    def test_larger_networks_are_unchanged(self, net, digest):
        net = net()
        assert _digest(net.coordinates, net.distances, graph=net.graph) == digest

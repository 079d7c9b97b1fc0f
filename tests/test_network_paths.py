"""Tests for path enumeration and random shortest-path pinning."""

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.network.paths import (
    all_shortest_paths,
    edge_disjoint_paths,
    path_hop_count,
    pin_random_shortest_paths,
    random_shortest_path,
    shortest_path,
)
from repro.network.topologies import paper_example_topology, swan_topology


class TestShortestPath:
    def test_direct_edge(self):
        g = swan_topology()
        assert shortest_path(g, "NY", "FL") == ("NY", "FL")

    def test_multi_hop(self):
        g = paper_example_topology()
        path = shortest_path(g, "s", "t")
        assert path[0] == "s" and path[-1] == "t"
        assert len(path) == 3

    def test_no_path_raises(self):
        g = paper_example_topology()
        g.add_node("lonely")
        with pytest.raises(ValueError, match="no path"):
            shortest_path(g, "lonely", "t")

    def test_unknown_node_raises(self):
        with pytest.raises(ValueError):
            shortest_path(swan_topology(), "NY", "Mars")


class TestAllShortestPaths:
    def test_example_graph_has_three(self):
        g = paper_example_topology()
        paths = all_shortest_paths(g, "s", "t")
        assert len(paths) == 3
        assert all(len(p) == 3 for p in paths)
        assert paths == sorted(paths)

    def test_single_edge_unique(self):
        g = swan_topology()
        assert all_shortest_paths(g, "NY", "FL") == [("NY", "FL")]


class TestRandomShortestPath:
    def test_result_is_a_shortest_path(self):
        g = paper_example_topology()
        candidates = set(all_shortest_paths(g, "s", "t"))
        for seed in range(5):
            assert random_shortest_path(g, "s", "t", seed) in candidates

    def test_deterministic_given_seed(self):
        g = paper_example_topology()
        assert random_shortest_path(g, "s", "t", 3) == random_shortest_path(
            g, "s", "t", 3
        )

    def test_covers_multiple_choices(self):
        g = paper_example_topology()
        rng = np.random.default_rng(0)
        seen = {random_shortest_path(g, "s", "t", rng) for _ in range(30)}
        assert len(seen) >= 2


class TestPinRandomShortestPaths:
    def test_all_flows_pinned(self):
        g = swan_topology()
        coflows = [
            Coflow([Flow("NY", "HK", 2.0), Flow("LA", "BA", 1.0)]),
            Coflow([Flow("FL", "NY", 1.0)]),
        ]
        pinned = pin_random_shortest_paths(g, coflows, rng=0)
        assert all(f.has_path for c in pinned for f in c)
        for c in pinned:
            for f in c:
                g.validate_path(f.path)

    def test_existing_paths_preserved_by_default(self):
        g = swan_topology()
        coflows = [Coflow([Flow("NY", "FL", 1.0, path=("NY", "FL"))])]
        pinned = pin_random_shortest_paths(g, coflows, rng=0)
        assert pinned[0].flows[0].path == ("NY", "FL")

    def test_overwrite_replaces_paths(self):
        g = paper_example_topology()
        original = ("s", "v1", "t")
        coflows = [Coflow([Flow("s", "t", 1.0, path=original)])]
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(20):
            pinned = pin_random_shortest_paths(g, coflows, rng=rng, overwrite=True)
            seen.add(pinned[0].flows[0].path)
        assert len(seen) >= 2

    def test_inputs_not_modified(self):
        g = swan_topology()
        coflows = [Coflow([Flow("NY", "HK", 2.0)])]
        pin_random_shortest_paths(g, coflows, rng=0)
        assert not coflows[0].flows[0].has_path


class TestMiscHelpers:
    def test_path_hop_count(self):
        assert path_hop_count(("a", "b", "c")) == 2
        with pytest.raises(ValueError):
            path_hop_count(("a",))

    def test_edge_disjoint_paths(self):
        g = paper_example_topology()
        paths = edge_disjoint_paths(g, "s", "t")
        assert len(paths) == 3
        used = set()
        for p in paths:
            for e in zip(p[:-1], p[1:]):
                assert e not in used
                used.add(e)

    def test_edge_disjoint_paths_max_paths(self):
        g = paper_example_topology()
        assert len(edge_disjoint_paths(g, "s", "t", max_paths=2)) == 2

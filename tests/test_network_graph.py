"""Tests for NetworkGraph."""

import numpy as np
import pytest

from repro.network.graph import NetworkGraph


def triangle() -> NetworkGraph:
    g = NetworkGraph(name="triangle")
    g.add_edge("a", "b", 2.0)
    g.add_edge("b", "c", 3.0)
    g.add_edge("a", "c", 1.0)
    return g


class TestConstruction:
    def test_from_mapping(self):
        g = NetworkGraph({("a", "b"): 1.0, ("b", "c"): 2.0})
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_triples(self):
        g = NetworkGraph([("a", "b", 1.0), ("b", "a", 1.5)])
        assert g.capacity("b", "a") == 1.5

    def test_isolated_nodes(self):
        g = NetworkGraph(nodes=["x", "y"])
        assert g.num_nodes == 2
        assert g.num_edges == 0

    def test_self_loop_rejected(self):
        g = NetworkGraph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge("a", "a", 1.0)

    def test_nonpositive_capacity_rejected(self):
        g = NetworkGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", 0.0)

    def test_add_edge_overwrites_capacity(self):
        g = NetworkGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "b", 5.0)
        assert g.capacity("a", "b") == 5.0
        assert g.num_edges == 1

    def test_bidirected_edge_adds_both_directions(self):
        g = NetworkGraph()
        g.add_bidirected_edge("a", "b", 2.0)
        assert g.capacity("a", "b") == 2.0
        assert g.capacity("b", "a") == 2.0


class TestInspection:
    def test_nodes_insertion_order(self):
        g = triangle()
        assert g.nodes == ("a", "b", "c")

    def test_edges_and_index_alignment(self):
        g = triangle()
        index = g.edge_index()
        caps = g.capacity_vector()
        for edge, i in index.items():
            assert caps[i] == g.capacity(*edge)

    def test_in_out_edges(self):
        g = triangle()
        assert set(g.out_edges("a")) == {("a", "b"), ("a", "c")}
        assert set(g.in_edges("c")) == {("b", "c"), ("a", "c")}

    def test_capacity_missing_edge_raises(self):
        with pytest.raises(KeyError):
            triangle().capacity("c", "a")

    def test_min_max_total_capacity(self):
        g = triangle()
        assert g.min_capacity() == 1.0
        assert g.max_capacity() == 3.0
        assert g.total_capacity() == pytest.approx(6.0)

    def test_min_capacity_empty_graph_raises(self):
        with pytest.raises(ValueError):
            NetworkGraph().min_capacity()

    def test_contains_and_iter(self):
        g = triangle()
        assert "a" in g
        assert "z" not in g
        assert list(g) == ["a", "b", "c"]
        assert len(g) == 3


class TestPathsAndFlows:
    def test_validate_path_accepts_existing(self):
        triangle().validate_path(["a", "b", "c"])

    def test_validate_path_rejects_missing_edge(self):
        with pytest.raises(ValueError, match="missing edge"):
            triangle().validate_path(["c", "b"])

    def test_validate_path_rejects_single_node(self):
        with pytest.raises(ValueError):
            triangle().validate_path(["a"])

    def test_path_bottleneck(self):
        assert triangle().path_bottleneck(["a", "b", "c"]) == 2.0

    def test_is_connected(self):
        g = triangle()
        assert g.is_connected("a", "c")
        assert not g.is_connected("c", "a")

    def test_max_flow_value(self):
        # a->c direct (1.0) plus a->b->c (2.0) = 3.0
        assert triangle().max_flow_value("a", "c") == pytest.approx(3.0)

    def test_max_flow_is_memoized_until_the_topology_changes(self, monkeypatch):
        import networkx as nx

        from repro.coflow.coflow import Coflow
        from repro.coflow.flow import Flow
        from repro.coflow.instance import CoflowInstance
        from repro.core.timeindexed import suggest_horizon

        calls = []
        real = nx.maximum_flow

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(nx, "maximum_flow", counted)
        graph = triangle()
        instance = CoflowInstance(
            graph,
            [Coflow([Flow("a", "c", 6.0), Flow("b", "c", 3.0)])],
            model="free_path",
        )
        first = suggest_horizon(instance)
        assert sorted(calls) == [("a", "c"), ("b", "c")]
        assert suggest_horizon(instance) == first
        assert len(calls) == 2
        # A wider a->c link raises the max flow: the memo must not survive.
        assert instance.graph.max_flow_value("a", "c") == pytest.approx(3.0)
        instance.graph.add_edge("a", "c", 4.0)
        assert instance.graph.max_flow_value("a", "c") == pytest.approx(6.0)
        assert len(calls) == 3


class TestConversionsAndCopies:
    def test_to_networkx_has_capacities(self):
        nxg = triangle().to_networkx()
        assert nxg["a"]["b"]["capacity"] == 2.0

    def test_to_networkx_returns_copy(self):
        g = triangle()
        view = g.to_networkx()
        view.add_edge("c", "a", capacity=9.0)
        assert not g.has_edge("c", "a")

    def test_mutated_copies_change_no_later_query(self):
        """The read-only queries run on a cached graph, not on a copy; a
        mutated copy from to_networkx must not reach them."""
        from repro.network.paths import all_shortest_paths, shortest_path

        def answers(graph: NetworkGraph) -> tuple:
            return (
                graph.is_connected("a", "c"),
                graph.is_connected("c", "a"),
                graph.max_flow_value("a", "c"),
                shortest_path(graph, "a", "c"),
                all_shortest_paths(graph, "a", "c"),
            )

        expected = answers(triangle())
        for cold in (True, False):
            g = triangle()
            if not cold:
                assert answers(g) == expected  # the cache is built first
            first, second = g.to_networkx(), g.to_networkx()
            assert first is not second
            first.remove_edge("a", "c")
            first.add_edge("c", "a", capacity=9.0)
            first["a"]["b"]["capacity"] = 0.5
            second.remove_node("b")
            assert answers(g) == expected
            assert g.to_networkx()["a"]["b"]["capacity"] == 2.0

    @pytest.mark.parametrize("topology", ["swan_topology", "gscale_topology"])
    def test_queries_answer_as_on_a_copy(self, topology):
        """Equal shortest paths are told apart by predecessor order, which a
        copy rebuilds; the cached graph must answer as to_networkx() would
        (SWAN NY->HK and G-Scale DC5->DC9 differ on an uncopied graph)."""
        import networkx as nx

        from repro.network import topologies
        from repro.network.paths import shortest_path

        graph = getattr(topologies, topology)()
        for source in graph.nodes:
            for sink in graph.nodes:
                if source == sink or not graph.is_connected(source, sink):
                    continue
                copy = graph.to_networkx()
                assert shortest_path(graph, source, sink) == tuple(
                    nx.shortest_path(copy, source, sink)
                )
                assert graph.max_flow_value(source, sink) == pytest.approx(
                    nx.maximum_flow_value(copy, source, sink, capacity="capacity"),
                    rel=0,
                    abs=0,
                )

    def test_scaled(self):
        scaled = triangle().scaled(2.0)
        assert scaled.capacity("a", "b") == 4.0
        assert scaled.num_edges == 3

    def test_copy_is_independent(self):
        g = triangle()
        copy = g.copy()
        copy.add_edge("c", "a", 1.0)
        assert not g.has_edge("c", "a")

    def test_equality(self):
        assert triangle() == triangle()
        other = triangle()
        other.add_edge("c", "a", 1.0)
        assert triangle() != other

    def test_capacity_vector_matches_edges(self):
        g = triangle()
        np.testing.assert_allclose(
            g.capacity_vector(), [g.capacity(*e) for e in g.edges]
        )

"""Path enumeration and random shortest-path pinning.

The single path model requires each flow to specify its route.  The paper's
evaluation (Section 6.2) notes that "since path information is not available
in the datasets, we randomly generate one for each flow.  For a source sink
pair we randomly select one of the shortest paths."  This module implements
exactly that selection, plus the path-enumeration helpers needed by the
Jahanjou baseline and the examples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import networkx as nx

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.network.graph import NetworkGraph
from repro.utils.rng import RandomSource, as_generator


def shortest_path(graph: NetworkGraph, source: str, sink: str) -> Tuple[str, ...]:
    """One hop-count shortest path from *source* to *sink*.

    Raises
    ------
    ValueError
        If no path exists.
    """
    try:
        path = nx.shortest_path(graph.to_networkx(), str(source), str(sink))
    except nx.NetworkXNoPath as exc:
        raise ValueError(f"no path from {source!r} to {sink!r}") from exc
    except nx.NodeNotFound as exc:
        raise ValueError(str(exc)) from exc
    return tuple(path)


def all_shortest_paths(
    graph: NetworkGraph, source: str, sink: str
) -> List[Tuple[str, ...]]:
    """Every hop-count shortest path from *source* to *sink* (sorted)."""
    try:
        paths = nx.all_shortest_paths(graph.to_networkx(), str(source), str(sink))
        result = sorted(tuple(p) for p in paths)
    except nx.NetworkXNoPath as exc:
        raise ValueError(f"no path from {source!r} to {sink!r}") from exc
    except nx.NodeNotFound as exc:
        raise ValueError(str(exc)) from exc
    return result


def random_shortest_path(
    graph: NetworkGraph,
    source: str,
    sink: str,
    rng: RandomSource = None,
) -> Tuple[str, ...]:
    """Uniformly pick one of the hop-count shortest paths (paper Section 6.2)."""
    candidates = all_shortest_paths(graph, source, sink)
    gen = as_generator(rng)
    index = int(gen.integers(0, len(candidates)))
    return candidates[index]


def pin_random_shortest_paths(
    graph: NetworkGraph,
    coflows: Sequence[Coflow],
    rng: RandomSource = None,
    *,
    overwrite: bool = False,
) -> List[Coflow]:
    """Pin a random shortest path onto every flow of every coflow.

    Flows that already carry a path keep it unless *overwrite* is true.
    This is the preprocessing step the paper applies before running any
    single-path-model algorithm on the benchmark workloads.

    Returns a new list of coflows; the inputs are not modified.
    """
    gen = as_generator(rng)
    pinned: List[Coflow] = []
    for coflow in coflows:
        new_flows: List[Flow] = []
        for flow in coflow.flows:
            if flow.has_path and not overwrite:
                graph.validate_path(flow.path)  # type: ignore[arg-type]
                new_flows.append(flow)
            else:
                path = random_shortest_path(graph, flow.source, flow.sink, gen)
                new_flows.append(flow.with_path(path))
        pinned.append(coflow.with_flows(new_flows))
    return pinned


def path_hop_count(path: Sequence[str]) -> int:
    """Number of edges traversed by *path*."""
    if len(path) < 2:
        raise ValueError("a path must contain at least two nodes")
    return len(path) - 1


def edge_disjoint_paths(
    graph: NetworkGraph, source: str, sink: str, max_paths: Optional[int] = None
) -> List[Tuple[str, ...]]:
    """A maximal set of edge-disjoint ``source -> sink`` paths.

    Used by examples to illustrate why the free path model helps: the number
    of edge-disjoint paths bounds the parallel speed-up available to a single
    flow.
    """
    g = graph.to_networkx()
    try:
        paths = list(nx.edge_disjoint_paths(g, str(source), str(sink)))
    except nx.NetworkXNoPath:
        return []
    except nx.NetworkXError as exc:
        raise ValueError(str(exc)) from exc
    paths = [tuple(p) for p in paths]
    if max_paths is not None:
        paths = paths[:max_paths]
    return paths

"""Capacitated directed graph used by all schedulers and LP builders."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.utils.validation import check_positive

Edge = Tuple[str, str]


class NetworkGraph:
    """A directed graph with strictly positive edge capacities.

    The graph is deliberately simple: node labels are strings, there is at
    most one directed edge per ordered node pair, and every edge carries a
    bandwidth ``c(e) > 0`` expressed in data units per time slot.  Duplicate
    physical links can be modelled by summing their capacities (the LP and
    all algorithms only ever see aggregate per-edge bandwidth).

    The class wraps :class:`networkx.DiGraph` for path queries but keeps its
    own dense edge index so LP builders and simulators can address edges by
    integer position in numpy arrays.
    """

    def __init__(
        self,
        edges: Optional[Mapping[Edge, float] | Iterable[Tuple[str, str, float]]] = None,
        *,
        nodes: Optional[Iterable[str]] = None,
        name: str = "network",
    ) -> None:
        self._name = name
        self._capacity: Dict[Edge, float] = {}
        self._nodes: List[str] = []
        self._node_set: set[str] = set()
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            if isinstance(edges, Mapping):
                for (u, v), cap in edges.items():
                    self.add_edge(u, v, cap)
            else:
                for u, v, cap in edges:
                    self.add_edge(u, v, cap)
        self._edge_index_cache: Optional[Dict[Edge, int]] = None
        self._nx_cache: Optional[nx.DiGraph] = None
        self._node_edges_cache: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None
        self._capacity_vector_cache: Optional[np.ndarray] = None
        self._max_flow_cache: Dict[Edge, float] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: str) -> None:
        """Add an isolated node (no-op if it already exists)."""
        node = str(node)
        if node not in self._node_set:
            self._node_set.add(node)
            self._nodes.append(node)
            self._invalidate()

    def add_edge(self, u: str, v: str, capacity: float) -> None:
        """Add (or overwrite) the directed edge ``u -> v`` with *capacity*."""
        u, v = str(u), str(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed: {u!r}")
        check_positive(capacity, f"capacity of edge ({u!r}, {v!r})")
        self.add_node(u)
        self.add_node(v)
        self._capacity[(u, v)] = float(capacity)
        self._invalidate()

    def add_bidirected_edge(self, u: str, v: str, capacity: float) -> None:
        """Add independent edges ``u -> v`` and ``v -> u`` of equal capacity.

        WAN links are physically full-duplex; the paper's Figure 2 example
        explicitly uses "bi-directed edges of independent capacity".
        """
        self.add_edge(u, v, capacity)
        self.add_edge(v, u, capacity)

    def _invalidate(self) -> None:
        self._edge_index_cache = None
        self._nx_cache = None
        self._node_edges_cache = None
        self._capacity_vector_cache = None
        self._max_flow_cache = {}

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Human-readable topology name (used in reports)."""
        return self._name

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Node labels in insertion order."""
        return tuple(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """Directed edges in a deterministic (insertion) order."""
        return tuple(self._capacity.keys())

    @property
    def num_edges(self) -> int:
        return len(self._capacity)

    def has_node(self, node: str) -> bool:
        return str(node) in self._node_set

    def has_edge(self, u: str, v: str) -> bool:
        return (str(u), str(v)) in self._capacity

    def capacity(self, u: str, v: str) -> float:
        """Bandwidth of edge ``u -> v``.

        Raises
        ------
        KeyError
            If the edge does not exist.
        """
        return self._capacity[(str(u), str(v))]

    def capacities(self) -> Dict[Edge, float]:
        """Copy of the full capacity map."""
        return dict(self._capacity)

    def capacity_vector(self) -> np.ndarray:
        """Edge capacities as a float array aligned with :meth:`edge_index`.

        A fresh (mutable) copy is returned on every call; the underlying
        array is cached so hot paths do not re-materialize it from the dict.
        """
        if self._capacity_vector_cache is None:
            self._capacity_vector_cache = np.array(
                [self._capacity[e] for e in self.edges], dtype=float
            )
        return self._capacity_vector_cache.copy()

    def edge_index(self) -> Dict[Edge, int]:
        """Mapping edge -> dense integer index (cached, insertion order)."""
        if self._edge_index_cache is None:
            self._edge_index_cache = {e: i for i, e in enumerate(self.edges)}
        return self._edge_index_cache

    def out_edges(self, node: str) -> List[Edge]:
        """Directed edges leaving *node* (``delta_out`` in the paper)."""
        node = str(node)
        return [e for e in self.edges if e[0] == node]

    def in_edges(self, node: str) -> List[Edge]:
        """Directed edges entering *node* (``delta_in`` in the paper)."""
        node = str(node)
        return [e for e in self.edges if e[1] == node]

    def _node_edges(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        if self._node_edges_cache is None:
            ins: Dict[str, List[int]] = {n: [] for n in self._nodes}
            outs: Dict[str, List[int]] = {n: [] for n in self._nodes}
            for i, (u, v) in enumerate(self.edges):
                outs[u].append(i)
                ins[v].append(i)
            self._node_edges_cache = {
                n: (
                    np.array(ins[n], dtype=np.int64),
                    np.array(outs[n], dtype=np.int64),
                )
                for n in self._nodes
            }
        return self._node_edges_cache

    def in_edge_indices(self, node: str) -> np.ndarray:
        """Dense indices of the edges entering *node* (cached array)."""
        return self._node_edges()[str(node)][0]

    def out_edge_indices(self, node: str) -> np.ndarray:
        """Dense indices of the edges leaving *node* (cached array)."""
        return self._node_edges()[str(node)][1]

    def min_capacity(self) -> float:
        """Smallest edge capacity in the graph."""
        if not self._capacity:
            raise ValueError("graph has no edges")
        return min(self._capacity.values())

    def max_capacity(self) -> float:
        """Largest edge capacity in the graph."""
        if not self._capacity:
            raise ValueError("graph has no edges")
        return max(self._capacity.values())

    def total_capacity(self) -> float:
        """Sum of all edge capacities (the network's aggregate bandwidth)."""
        return float(sum(self._capacity.values()))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def _nx_graph(self) -> nx.DiGraph:
        """The cached :class:`networkx.DiGraph`, uncopied, for the package's
        read-only queries (frozen, so adding or removing a node or an edge
        raises; rebuilt whenever the topology changes)."""
        if self._nx_cache is None:
            g = nx.DiGraph(name=self._name)
            g.add_nodes_from(self._nodes)
            for (u, v), cap in self._capacity.items():
                g.add_edge(u, v, capacity=cap)
            # A copy orders each node's predecessors by tail node, not by
            # edge insertion.  Bidirectional searches read that order to
            # pick among equal shortest paths, so queries run on a copy, as
            # they would on any to_networkx() result.
            self._nx_cache = nx.freeze(g.copy())
        return self._nx_cache

    def to_networkx(self) -> nx.DiGraph:
        """A :class:`networkx.DiGraph` copy with ``capacity`` edge attributes.

        Every call returns a fresh, mutable copy of a cached graph; mutating
        it does not affect this object or any later query.
        """
        return self._nx_graph().copy()

    def scaled(self, factor: float, *, name: Optional[str] = None) -> "NetworkGraph":
        """Return a copy with every capacity multiplied by *factor*."""
        check_positive(factor, "factor")
        scaled = {(u, v): cap * factor for (u, v), cap in self._capacity.items()}
        return NetworkGraph(scaled, nodes=self._nodes, name=name or self._name)

    def copy(self) -> "NetworkGraph":
        """Deep copy of the graph."""
        return NetworkGraph(dict(self._capacity), nodes=self._nodes, name=self._name)

    # ------------------------------------------------------------------ #
    # queries used by schedulers
    # ------------------------------------------------------------------ #
    def is_connected(self, source: str, sink: str) -> bool:
        """Whether a directed path exists from *source* to *sink*."""
        return nx.has_path(self._nx_graph(), str(source), str(sink))

    def validate_path(self, path: Sequence[str]) -> None:
        """Raise ``ValueError`` unless *path* traverses existing edges."""
        path = [str(p) for p in path]
        if len(path) < 2:
            raise ValueError("a path must contain at least two nodes")
        for u, v in zip(path[:-1], path[1:]):
            if not self.has_edge(u, v):
                raise ValueError(f"path uses missing edge ({u!r}, {v!r})")

    def path_bottleneck(self, path: Sequence[str]) -> float:
        """Minimum capacity along *path* (its maximum sustainable rate)."""
        self.validate_path(path)
        path = [str(p) for p in path]
        return min(self.capacity(u, v) for u, v in zip(path[:-1], path[1:]))

    def max_flow_value(self, source: str, sink: str) -> float:
        """Maximum ``source -> sink`` flow value (per unit time).

        Used by :func:`repro.core.timeindexed.suggest_horizon` for the
        free-path serial bound.  Memoized per ``(source, sink)`` until the
        topology changes.
        """
        key = (str(source), str(sink))
        if key not in self._max_flow_cache:
            value, _ = nx.maximum_flow(self._nx_graph(), *key, capacity="capacity")
            self._max_flow_cache[key] = float(value)
        return self._max_flow_cache[key]

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __contains__(self, node: str) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"NetworkGraph(name={self._name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return (
            set(self._nodes) == set(other._nodes)
            and self._capacity == other._capacity
        )

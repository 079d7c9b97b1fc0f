"""Network substrate: capacitated directed graphs, WAN topologies and routing.

The paper models the data-center / inter-data-center network as a directed
graph ``G = (V, E)`` with an edge-capacity function ``c``.  This package
provides:

* :class:`~repro.network.graph.NetworkGraph` — the capacitated digraph used
  by every LP builder and simulator in the library;
* :mod:`~repro.network.topologies` — the two WAN topologies used in the
  paper's evaluation (Microsoft SWAN and Google G-Scale) plus a few extras
  used by examples and tests;
* :mod:`~repro.network.paths` — shortest-path enumeration and random
  shortest-path selection (used to pin paths for the single path model, as
  the paper does in Section 6.2);
* :mod:`~repro.network.gadgets` — the switch-model gadget of footnote 1
  (per-node I/O limits expressed as an extra edge).
"""

from repro.network.graph import NetworkGraph
from repro.network.topologies import (
    gscale_topology,
    line_topology,
    parallel_edges_topology,
    ring_topology,
    star_topology,
    swan_topology,
    paper_example_topology,
)
from repro.network.paths import (
    all_shortest_paths,
    pin_random_shortest_paths,
    random_shortest_path,
    shortest_path,
)
from repro.network.gadgets import switch_fabric_topology, with_io_limits

__all__ = [
    "NetworkGraph",
    "swan_topology",
    "gscale_topology",
    "paper_example_topology",
    "star_topology",
    "line_topology",
    "ring_topology",
    "parallel_edges_topology",
    "shortest_path",
    "all_shortest_paths",
    "random_shortest_path",
    "pin_random_shortest_paths",
    "switch_fabric_topology",
    "with_io_limits",
]

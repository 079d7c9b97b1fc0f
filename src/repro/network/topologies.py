"""WAN topologies used in the paper's evaluation plus helpers for tests.

The paper evaluates on two inter-datacenter WANs:

* **SWAN** (Hong et al., SIGCOMM 2013) — Microsoft's inter-datacenter WAN
  with 5 datacenters and 7 inter-datacenter links.
* **G-Scale** (Jain et al., SIGCOMM 2013, "B4") — Google's inter-datacenter
  WAN with 12 datacenters and 19 inter-datacenter links.

The published papers give the site graphs but not the exact per-link
bandwidths; following the paper ("we calculate link bandwidth using the setup
described by Hong et al."), links are assigned bandwidths proportional to a
small set of capacity classes.  The default unit is "data units per time
slot"; experiments scale demands relative to these capacities so only the
*ratios* matter.

All topologies use independent bi-directed links (full duplex), matching the
example in the paper's Figure 2.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.network.graph import NetworkGraph
from repro.utils.validation import check_positive

#: SWAN datacenter sites (Hong et al. describe 5 DCs across 3 continents).
SWAN_SITES: Tuple[str, ...] = ("NY", "FL", "BA", "LA", "HK")

#: SWAN inter-datacenter links with relative capacity classes.  7 links.
_SWAN_LINKS: Tuple[Tuple[str, str, float], ...] = (
    ("NY", "FL", 10.0),
    ("NY", "BA", 10.0),
    ("NY", "LA", 5.0),
    ("FL", "BA", 5.0),
    ("FL", "LA", 10.0),
    ("LA", "HK", 5.0),
    ("BA", "HK", 10.0),
)

#: G-Scale datacenter sites (Jain et al., Figure 1: 12 sites).
GSCALE_SITES: Tuple[str, ...] = (
    "DC1", "DC2", "DC3", "DC4", "DC5", "DC6",
    "DC7", "DC8", "DC9", "DC10", "DC11", "DC12",
)

#: G-Scale inter-datacenter links (19 links, from the B4 site graph).
_GSCALE_LINKS: Tuple[Tuple[str, str, float], ...] = (
    ("DC1", "DC2", 10.0),
    ("DC1", "DC3", 10.0),
    ("DC2", "DC3", 5.0),
    ("DC2", "DC4", 10.0),
    ("DC3", "DC5", 10.0),
    ("DC4", "DC5", 5.0),
    ("DC4", "DC6", 10.0),
    ("DC5", "DC6", 10.0),
    ("DC5", "DC7", 5.0),
    ("DC6", "DC8", 10.0),
    ("DC7", "DC8", 10.0),
    ("DC7", "DC9", 5.0),
    ("DC8", "DC10", 10.0),
    ("DC9", "DC10", 10.0),
    ("DC9", "DC11", 5.0),
    ("DC10", "DC12", 10.0),
    ("DC11", "DC12", 10.0),
    ("DC3", "DC9", 5.0),
    ("DC6", "DC11", 5.0),
)


def _bidirected(
    links: Sequence[Tuple[str, str, float]],
    capacity_scale: float,
    name: str,
) -> NetworkGraph:
    graph = NetworkGraph(name=name)
    for u, v, cap in links:
        graph.add_bidirected_edge(u, v, cap * capacity_scale)
    return graph


def swan_topology(capacity_scale: float = 1.0) -> NetworkGraph:
    """Microsoft's SWAN inter-datacenter WAN (5 sites, 7 full-duplex links).

    Parameters
    ----------
    capacity_scale:
        Multiplier applied to every link bandwidth (> 0).  Use it to express
        capacities in whatever data-unit-per-slot convention the workload
        uses.
    """
    check_positive(capacity_scale, "capacity_scale")
    return _bidirected(_SWAN_LINKS, capacity_scale, name="SWAN")


def gscale_topology(capacity_scale: float = 1.0) -> NetworkGraph:
    """Google's G-Scale (B4) inter-datacenter WAN (12 sites, 19 links)."""
    check_positive(capacity_scale, "capacity_scale")
    return _bidirected(_GSCALE_LINKS, capacity_scale, name="G-Scale")


def paper_example_topology() -> NetworkGraph:
    """The 5-node example of the paper's Figure 2.

    Nodes ``s, v1, v2, v3, t`` with unit-capacity bi-directed edges
    ``s-v1, s-v2, s-v3, v1-t, v2-t, v3-t``.  On this graph the single path
    model (with the Figure 3 path pinning) has optimal total completion time
    7, while the free path model achieves 5 (Figure 4).
    """
    graph = NetworkGraph(name="paper-example")
    for hub in ("v1", "v2", "v3"):
        graph.add_bidirected_edge("s", hub, 1.0)
        graph.add_bidirected_edge(hub, "t", 1.0)
    return graph


def figure1_topology() -> NetworkGraph:
    """The WAN of the paper's Figure 1 (HK, LA, NY, FL, BA with given bandwidths)."""
    graph = NetworkGraph(name="figure-1")
    links = (
        ("NY", "LA", 4.0),
        ("NY", "FL", 6.0),
        ("NY", "BA", 5.0),
        ("LA", "FL", 4.0),
        ("LA", "HK", 2.0),
        ("FL", "BA", 4.0),
        ("FL", "HK", 4.0),
    )
    for u, v, cap in links:
        graph.add_bidirected_edge(u, v, cap)
    return graph


def star_topology(num_leaves: int, capacity: float = 1.0) -> NetworkGraph:
    """A hub-and-spoke topology: leaves ``h1..hk`` bi-connected to ``hub``."""
    if num_leaves < 1:
        raise ValueError("num_leaves must be at least 1")
    check_positive(capacity, "capacity")
    graph = NetworkGraph(name=f"star-{num_leaves}")
    for i in range(1, num_leaves + 1):
        graph.add_bidirected_edge("hub", f"h{i}", capacity)
    return graph


def line_topology(num_nodes: int, capacity: float = 1.0) -> NetworkGraph:
    """A directed line ``n0 -> n1 -> ... -> n_{k-1}`` (plus reverse edges)."""
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")
    check_positive(capacity, "capacity")
    graph = NetworkGraph(name=f"line-{num_nodes}")
    for i in range(num_nodes - 1):
        graph.add_bidirected_edge(f"n{i}", f"n{i + 1}", capacity)
    return graph


def ring_topology(num_nodes: int, capacity: float = 1.0) -> NetworkGraph:
    """A bi-directed ring of *num_nodes* nodes."""
    if num_nodes < 3:
        raise ValueError("num_nodes must be at least 3")
    check_positive(capacity, "capacity")
    graph = NetworkGraph(name=f"ring-{num_nodes}")
    for i in range(num_nodes):
        graph.add_bidirected_edge(f"n{i}", f"n{(i + 1) % num_nodes}", capacity)
    return graph


def fat_tree_topology(
    num_tors: int = 4,
    hosts_per_tor: int = 2,
    *,
    host_capacity: float = 1.0,
    oversubscription: float = 1.0,
    num_cores: int = 2,
) -> NetworkGraph:
    """A two-tier leaf/spine fat tree with a tunable oversubscription ratio.

    Hosts ``t{i}h{j}`` attach to their top-of-rack switch ``tor{i}`` with
    *host_capacity* links; every ToR attaches to each of *num_cores* core
    switches.  The total uplink bandwidth of a ToR is its total downlink
    bandwidth divided by *oversubscription*:

    * ``oversubscription=1`` — a rearrangeably non-blocking fabric (any
      host-to-host traffic matrix that respects host line rates fits);
    * ``oversubscription=k > 1`` — classic datacenter oversubscription: the
      core can carry only ``1/k`` of the aggregate host demand, so
      cross-rack coflows contend exactly the way the scenario engine's
      ``oversubscribed`` family wants to stress.

    With ``num_cores >= 2`` distinct core switches give cross-rack flows
    genuine path diversity, which exercises the free path model's joint
    routing + scheduling (single-path instances pin one shortest path per
    flow as usual).
    """
    if num_tors < 2:
        raise ValueError("num_tors must be at least 2")
    if hosts_per_tor < 1:
        raise ValueError("hosts_per_tor must be at least 1")
    if num_cores < 1:
        raise ValueError("num_cores must be at least 1")
    check_positive(host_capacity, "host_capacity")
    check_positive(oversubscription, "oversubscription")
    uplink = hosts_per_tor * host_capacity / (oversubscription * num_cores)
    graph = NetworkGraph(
        name=f"fat-tree-{num_tors}x{hosts_per_tor}-o{oversubscription:g}"
    )
    for i in range(1, num_tors + 1):
        for j in range(1, hosts_per_tor + 1):
            graph.add_bidirected_edge(f"t{i}h{j}", f"tor{i}", host_capacity)
        for c in range(1, num_cores + 1):
            graph.add_bidirected_edge(f"tor{i}", f"core{c}", uplink)
    return graph


def fat_tree_hosts(graph: NetworkGraph) -> Tuple[str, ...]:
    """The host nodes of a :func:`fat_tree_topology` graph (sorted)."""
    return tuple(sorted(n for n in graph.nodes if "h" in n and n.startswith("t")))


def parallel_edges_topology(
    num_machines: int, capacity: float = 1.0
) -> NetworkGraph:
    """Disjoint unit links ``x_i -> y_i`` — the hardness-reduction gadget.

    This is exactly the graph built in the paper's Section 5 proof: one
    isolated directed edge per "machine" of a concurrent open shop instance.
    """
    if num_machines < 1:
        raise ValueError("num_machines must be at least 1")
    check_positive(capacity, "capacity")
    graph = NetworkGraph(name=f"parallel-{num_machines}")
    for i in range(1, num_machines + 1):
        graph.add_edge(f"x{i}", f"y{i}", capacity)
    return graph


#: The names :func:`named_topology` accepts, one canonical spelling each
#: (it also takes a few aliases, e.g. ``b4`` for ``gscale``).
TOPOLOGY_NAMES: Tuple[str, ...] = (
    "swan",
    "gscale",
    "paper-example",
    "figure-1",
    "fat-tree",
    "fat-tree-oversubscribed",
)


def named_topology(name: str, capacity_scale: float = 1.0) -> NetworkGraph:
    """Look up a topology by the name used in experiment configurations."""
    key = name.strip().lower().replace("_", "-")
    if key in ("swan", "microsoft-swan"):
        return swan_topology(capacity_scale)
    if key in ("gscale", "g-scale", "b4"):
        return gscale_topology(capacity_scale)
    if key in ("paper-example", "example"):
        return paper_example_topology()
    if key in ("figure-1", "figure1"):
        return figure1_topology()
    if key in ("fat-tree", "fattree"):
        return fat_tree_topology(host_capacity=capacity_scale)
    if key in ("fat-tree-oversubscribed", "oversubscribed"):
        return fat_tree_topology(host_capacity=capacity_scale, oversubscription=4.0)
    raise KeyError(
        f"unknown topology {name!r}; expected one of "
        + ", ".join(repr(known) for known in TOPOLOGY_NAMES)
    )

"""Built-in scenario families.

Importing this module populates the registry of
:mod:`repro.scenarios.engine` with the eight families the verification
harness samples by default:

=======================  ====================================================
name                     what it stresses
=======================  ====================================================
``online-poisson``       online operation: memoryless (Poisson) coflow arrivals
``bursty-arrivals``      synchronized bursts — many coflows released at once
``zipf-sizes``           heavy-tailed (Zipf) flow sizes: elephants among mice
``oversubscribed``       fat-tree fabrics whose core carries 1/k of host demand
``link-failure``         degraded-capacity WAN variants (partial link failures)
``trace-replay``         the save → load → replay path of :mod:`repro.workloads.traces`
``hardness-gadget``      Section 5 open-shop reductions: worst-case LP gaps
``adversarial-arrival``  geometric arrival bursts engineered against SRTF
=======================  ====================================================

Every family alternates the transmission model with the scenario index,
and the families are split into two phase groups (see ``MODEL_OFFSET``):
three start at free path, five at single path.  A round-robin sample
therefore covers *both* LP families and every registered algorithm —
including the model-restricted Terra and Jahanjou — even when the budget is
as small as two scenarios.  Builders draw all randomness from the generator
the engine hands them — see the engine module docstring for the
reproducibility contract.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.graph import NetworkGraph
from repro.network.paths import pin_random_shortest_paths
from repro.network.topologies import (
    fat_tree_hosts,
    fat_tree_topology,
    gscale_topology,
    swan_topology,
)
from repro.openshop.instance import OpenShopInstance
from repro.openshop.reduction import (
    openshop_objective_bounds,
    openshop_to_coflow_instance,
)
from repro.utils.io import scratch_path
from repro.workloads.generator import WorkloadSpec, generate_coflows
from repro.workloads.traces import replay_trace, save_trace

from repro.scenarios.engine import register_family

#: Builders keep instances deliberately small: every scenario is solved by
#: every registered algorithm, including the time-indexed LPs, so a budget-50
#: nightly run must stay minutes, not hours.
MAX_COFLOWS = 5
MAX_WIDTH = 3

#: Model phase per family: offset 0 families start at free path, offset 1
#: families at single path, both alternating with the scenario index.  The
#: offsets are fixed literals (not derived from registry order) so scenario
#: addresses stay stable when families are added, removed or renamed — and
#: both phases are populated so even a budget that only reaches index 0
#: (one scenario per family) exercises both transmission models.
MODEL_OFFSET = {
    "online-poisson": 0,
    "bursty-arrivals": 1,
    "zipf-sizes": 0,
    "oversubscribed": 1,
    "link-failure": 0,
    "trace-replay": 1,
    "hardness-gadget": 1,
    "adversarial-arrival": 1,
}


def expected_model(family: str, index: int) -> TransmissionModel:
    """The transmission model scenario ``(family, index)`` is built with."""
    offset = MODEL_OFFSET.get(family, 0)
    return (
        TransmissionModel.FREE_PATH
        if (index + offset) % 2 == 0
        else TransmissionModel.SINGLE_PATH
    )


def _assemble(
    graph: NetworkGraph,
    coflows: Sequence[Coflow],
    model: TransmissionModel,
    rng: np.random.Generator,
    name: str,
) -> CoflowInstance:
    coflows = list(coflows)
    if model is TransmissionModel.SINGLE_PATH:
        coflows = pin_random_shortest_paths(graph, coflows, rng)
    return CoflowInstance(graph, coflows, model=model, name=name)


def _draw_endpoints(
    rng: np.random.Generator, nodes: Sequence[str], width: int
) -> List[Tuple[str, str]]:
    pairs = []
    for _ in range(width):
        src, dst = rng.choice(np.asarray(nodes, dtype=object), size=2, replace=False)
        pairs.append((str(src), str(dst)))
    return pairs


def _make_coflows(
    rng: np.random.Generator,
    nodes: Sequence[str],
    *,
    num_coflows: int,
    release_times: np.ndarray,
    demand_sampler,
    weighted: bool,
    label: str,
) -> List[Coflow]:
    coflows: List[Coflow] = []
    for j in range(num_coflows):
        width = int(rng.integers(1, MAX_WIDTH + 1))
        pairs = _draw_endpoints(rng, nodes, width)
        demands = np.maximum(np.asarray(demand_sampler(width), dtype=float), 1e-3)
        flows = tuple(
            Flow(src, dst, float(demand), release_time=float(release_times[j]), name=f"f{i}")
            for i, ((src, dst), demand) in enumerate(zip(pairs, demands))
        )
        weight = float(rng.uniform(1.0, 10.0)) if weighted else 1.0
        coflows.append(
            Coflow(
                flows,
                weight=weight,
                release_time=float(release_times[j]),
                name=f"{label}-{j}",
            )
        )
    return coflows


# --------------------------------------------------------------------------- #
# online arrivals
# --------------------------------------------------------------------------- #
@register_family(
    "online-poisson",
    description="Poisson coflow arrivals on the SWAN WAN (online operation)",
    tags=("online", "arrivals"),
)
def _build_online_poisson(rng: np.random.Generator, index: int):
    model = expected_model("online-poisson", index)
    graph = swan_topology()
    num_coflows = int(rng.integers(3, MAX_COFLOWS + 1))
    mean_interarrival = float(rng.uniform(0.4, 1.5))
    inter = rng.exponential(scale=mean_interarrival, size=num_coflows)
    release = np.cumsum(inter)
    release[0] = 0.0  # the first coflow arrives at time zero
    weighted = bool(rng.integers(0, 2))
    coflows = _make_coflows(
        rng,
        graph.nodes,
        num_coflows=num_coflows,
        release_times=release,
        demand_sampler=lambda k: rng.lognormal(mean=0.2, sigma=0.6, size=k) * 1.5,
        weighted=weighted,
        label="poisson",
    )
    params = {
        "num_coflows": num_coflows,
        "mean_interarrival": mean_interarrival,
        "weighted": weighted,
    }
    return _assemble(graph, coflows, model, rng, f"online-poisson-{index}"), params


@register_family(
    "bursty-arrivals",
    description="synchronized release bursts — several coflows arrive at once",
    tags=("online", "arrivals", "bursty"),
)
def _build_bursty(rng: np.random.Generator, index: int):
    model = expected_model("bursty-arrivals", index)
    graph = swan_topology()
    num_bursts = int(rng.integers(1, 3))
    per_burst = int(rng.integers(2, 4))
    num_coflows = min(num_bursts * per_burst, MAX_COFLOWS)
    burst_gap = float(rng.uniform(1.0, 4.0))
    burst_times = np.arange(num_bursts) * burst_gap
    release = np.repeat(burst_times, per_burst)[:num_coflows]
    coflows = _make_coflows(
        rng,
        graph.nodes,
        num_coflows=num_coflows,
        release_times=release,
        demand_sampler=lambda k: rng.uniform(0.5, 3.0, size=k),
        weighted=True,
        label="burst",
    )
    params = {
        "num_bursts": num_bursts,
        "per_burst": per_burst,
        "burst_gap": burst_gap,
    }
    return _assemble(graph, coflows, model, rng, f"bursty-{index}"), params


# --------------------------------------------------------------------------- #
# skewed sizes
# --------------------------------------------------------------------------- #
@register_family(
    "zipf-sizes",
    description="heavy-tailed (Zipf) flow sizes: a few elephants, many mice",
    tags=("skew", "sizes"),
)
def _build_zipf(rng: np.random.Generator, index: int):
    model = expected_model("zipf-sizes", index)
    graph = swan_topology()
    num_coflows = int(rng.integers(3, MAX_COFLOWS + 1))
    zipf_a = float(rng.uniform(1.4, 2.6))
    base_demand = float(rng.uniform(0.3, 0.8))

    def demands(k: int) -> np.ndarray:
        # rng.zipf draws unbounded integers; cap the tail so one elephant
        # cannot blow the LP horizon up by orders of magnitude.
        return base_demand * np.minimum(rng.zipf(zipf_a, size=k), 24)

    release = np.zeros(num_coflows)  # offline: skew is the stressor here
    coflows = _make_coflows(
        rng,
        graph.nodes,
        num_coflows=num_coflows,
        release_times=release,
        demand_sampler=demands,
        weighted=True,
        label="zipf",
    )
    params = {
        "num_coflows": num_coflows,
        "zipf_a": zipf_a,
        "base_demand": base_demand,
    }
    return _assemble(graph, coflows, model, rng, f"zipf-{index}"), params


# --------------------------------------------------------------------------- #
# oversubscription
# --------------------------------------------------------------------------- #
@register_family(
    "oversubscribed",
    description="cross-rack coflows on a fat tree with an oversubscribed core",
    tags=("topology", "oversubscription", "fat-tree"),
)
def _build_oversubscribed(rng: np.random.Generator, index: int):
    model = expected_model("oversubscribed", index)
    ratio = float(rng.choice(np.array([2.0, 4.0, 8.0])))
    num_tors = int(rng.integers(2, 4))
    graph = fat_tree_topology(
        num_tors=num_tors, hosts_per_tor=2, oversubscription=ratio
    )
    hosts = fat_tree_hosts(graph)
    by_tor: Dict[str, List[str]] = {}
    for host in hosts:
        by_tor.setdefault(host.split("h")[0], []).append(host)
    tors = sorted(by_tor)
    num_coflows = int(rng.integers(3, MAX_COFLOWS + 1))
    coflows: List[Coflow] = []
    for j in range(num_coflows):
        width = int(rng.integers(1, MAX_WIDTH + 1))
        flows = []
        for i in range(width):
            # Cross-rack on purpose: pick two distinct racks, then one host
            # in each, so every flow traverses the oversubscribed core.
            src_tor, dst_tor = rng.choice(
                np.asarray(tors, dtype=object), size=2, replace=False
            )
            src = str(rng.choice(np.asarray(by_tor[str(src_tor)], dtype=object)))
            dst = str(rng.choice(np.asarray(by_tor[str(dst_tor)], dtype=object)))
            demand = float(rng.uniform(0.3, 1.5))
            flows.append(Flow(src, dst, demand, name=f"f{i}"))
        coflows.append(
            Coflow(
                tuple(flows),
                weight=float(rng.uniform(1.0, 10.0)),
                name=f"xrack-{j}",
            )
        )
    params = {
        "oversubscription": ratio,
        "num_tors": num_tors,
        "num_coflows": num_coflows,
    }
    return _assemble(graph, coflows, model, rng, f"oversub-{index}"), params


# --------------------------------------------------------------------------- #
# failures
# --------------------------------------------------------------------------- #
@register_family(
    "link-failure",
    description="SWAN with randomly degraded links (partial link failures)",
    tags=("topology", "failures"),
)
def _build_link_failure(rng: np.random.Generator, index: int):
    model = expected_model("link-failure", index)
    base = swan_topology()
    undirected = sorted({tuple(sorted(edge)) for edge in base.edges})
    num_failures = int(rng.integers(1, 3))
    picks = rng.choice(len(undirected), size=num_failures, replace=False)
    # Degrade (not remove) both directions of each picked link: degraded
    # capacity keeps every instance feasible while still rerouting load.
    factors = {
        undirected[int(p)]: float(rng.uniform(0.15, 0.5)) for p in picks
    }
    degraded = NetworkGraph(name=f"swan-degraded-{index}")
    for (u, v), cap in base.capacities().items():
        factor = factors.get(tuple(sorted((u, v))), 1.0)
        degraded.add_edge(u, v, cap * factor)

    num_coflows = int(rng.integers(3, MAX_COFLOWS + 1))
    release = np.round(rng.uniform(0.0, 3.0, size=num_coflows), 3)
    release[int(rng.integers(0, num_coflows))] = 0.0
    coflows = _make_coflows(
        rng,
        degraded.nodes,
        num_coflows=num_coflows,
        release_times=release,
        demand_sampler=lambda k: rng.uniform(0.4, 2.5, size=k),
        weighted=True,
        label="fail",
    )
    params = {
        "degraded_links": {f"{u}-{v}": f for (u, v), f in factors.items()},
        "num_coflows": num_coflows,
    }
    return _assemble(degraded, coflows, model, rng, f"link-failure-{index}"), params


# --------------------------------------------------------------------------- #
# trace replay
# --------------------------------------------------------------------------- #
@register_family(
    "trace-replay",
    description="save → load → replay of a generated trace, possibly on a new WAN",
    tags=("traces", "io"),
)
def _build_trace_replay(rng: np.random.Generator, index: int):
    model = expected_model("trace-replay", index)
    source_graph = swan_topology()
    num_coflows = int(rng.integers(3, MAX_COFLOWS + 1))
    spec = WorkloadSpec(
        profile="FB",
        num_coflows=num_coflows,
        weighted=True,
        demand_scale=float(rng.uniform(0.8, 1.6)),
    )
    coflows = generate_coflows(source_graph, spec, rng)
    # Replay onto G-Scale half the time: endpoints are then foreign and the
    # replay hook's deterministic node remapping is exercised for real.
    cross_topology = bool(rng.integers(0, 2))
    target_graph = gscale_topology() if cross_topology else swan_topology()

    with scratch_path(suffix=".json", prefix="repro-trace-") as path:
        save_trace(list(coflows), path)
        instance = replay_trace(
            path,
            target_graph,
            model=model,
            rng=rng,
            name=f"trace-replay-{index}",
        )
    params = {
        "num_coflows": num_coflows,
        "demand_scale": spec.demand_scale,
        "cross_topology": cross_topology,
        "target": target_graph.name,
    }
    return instance, params


# --------------------------------------------------------------------------- #
# adversarial families
# --------------------------------------------------------------------------- #
@register_family(
    "hardness-gadget",
    description="Section 5 open-shop reduction instances (worst-case LP gaps)",
    tags=("adversarial", "hardness", "openshop"),
)
def _build_hardness_gadget(rng: np.random.Generator, index: int):
    model = expected_model("hardness-gadget", index)
    num_machines = int(rng.integers(2, 4))
    num_jobs = int(rng.integers(3, MAX_COFLOWS + 1))
    shop = OpenShopInstance.random(
        num_machines=num_machines,
        num_jobs=num_jobs,
        rng=rng,
        max_processing=4.0,
        density=0.8,
        weighted=bool(rng.integers(0, 2)),
    )
    instance = openshop_to_coflow_instance(shop, model=model)
    # Cheap combinatorial bounds on the open-shop side, recorded in the
    # params so a verification report shows them next to each LP gap.
    shop_lower, shop_upper = openshop_objective_bounds(shop)
    params = {
        "num_machines": num_machines,
        "num_jobs": num_jobs,
        "openshop_lower": float(shop_lower),
        "openshop_upper": float(shop_upper),
    }
    return instance, params


@register_family(
    "adversarial-arrival",
    description="geometric arrival bursts engineered against SRTF-style policies",
    tags=("adversarial", "online", "arrivals"),
)
def _build_adversarial_arrival(rng: np.random.Generator, index: int):
    model = expected_model("adversarial-arrival", index)
    graph = swan_topology()
    num_coflows = int(rng.integers(4, MAX_COFLOWS + 1))
    base = float(rng.uniform(1.5, 2.0))
    epsilon = float(rng.uniform(0.01, 0.05))
    # One heavy coflow at time zero, then light coflows arriving just after
    # each geometric boundary base^k: an SRTF-style policy keeps preempting
    # the elephant, which is exactly the worst case the LP bound exposes.
    heavy = _make_coflows(
        rng,
        graph.nodes,
        num_coflows=1,
        release_times=np.zeros(1),
        demand_sampler=lambda k: rng.uniform(3.0, 5.0, size=k),
        weighted=False,
        label="adv-heavy",
    )
    boundaries = np.array(
        [base**k + epsilon for k in range(num_coflows - 1)], dtype=float
    )
    light = _make_coflows(
        rng,
        graph.nodes,
        num_coflows=num_coflows - 1,
        release_times=boundaries,
        demand_sampler=lambda k: rng.uniform(0.1, 0.4, size=k),
        weighted=False,
        label="adv-light",
    )
    params = {
        "num_coflows": num_coflows,
        "base": base,
        "epsilon": epsilon,
    }
    return (
        _assemble(graph, heavy + light, model, rng, f"adversarial-arrival-{index}"),
        params,
    )


#: Families registered by this module (the default sample set).
BUILTIN_FAMILIES = (
    "online-poisson",
    "bursty-arrivals",
    "zipf-sizes",
    "oversubscribed",
    "link-failure",
    "trace-replay",
    "hardness-gadget",
    "adversarial-arrival",
)

#: The arrival-driven families — the default sample set when specifically
#: exercising the online policies (``repro verify --family ...`` in the
#: nightly online job, ``repro online --family ...`` demos).  Both carry the
#: ``"online"`` tag in the registry.
ONLINE_FAMILIES = (
    "online-poisson",
    "bursty-arrivals",
)

"""Workload generation: from a profile + topology to a coflow instance.

The generation procedure mirrors the paper's setup (Section 6): jobs are
sampled from a benchmark's population, assigned to random datacenter pairs,
given production-like (Poisson) release times and, for the weighted
experiments, weights uniform in [1, 100].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.graph import NetworkGraph
from repro.network.paths import pin_random_shortest_paths
from repro.utils.rng import RandomSource, as_generator
from repro.workloads.profiles import WorkloadProfile, get_profile


@dataclass
class WorkloadSpec:
    """Everything needed to generate one experiment's workload.

    Attributes
    ----------
    profile:
        Benchmark shape (or its name).
    num_coflows:
        Number of coflows to generate.  The paper uses 200 jobs per
        benchmark; the default experiment configurations in this repository
        use smaller counts so the LPs solve quickly with HiGHS — see
        "Paper figures" in the README.
    weighted:
        Draw weights from the profile's weight range (True, Figs. 6–10) or
        use unit weights (False, Figs. 11–12).
    demand_scale:
        Multiplier applied to all sampled demands; use it to express demands
        relative to the topology's link capacities.
    release_spread:
        Multiplier applied to inter-arrival times (1.0 = the profile's rate).
        0 collapses all release times to 0.
    seed:
        Generation seed (kept here so experiment configs are self-contained).
    """

    profile: WorkloadProfile | str
    num_coflows: int = 20
    weighted: bool = True
    demand_scale: float = 1.0
    release_spread: float = 1.0
    seed: Optional[int] = None
    name: Optional[str] = None

    def resolved_profile(self) -> WorkloadProfile:
        if isinstance(self.profile, WorkloadProfile):
            return self.profile
        return get_profile(self.profile)


def _sample_endpoints(
    graph: NetworkGraph, width: int, rng: np.random.Generator
) -> List[tuple[str, str]]:
    """Random distinct (source, sink) pairs for one coflow's flows.

    Mirrors the paper: "We randomly assign these jobs to nodes in the
    datacenter, and the demand will be between the corresponding nodes."
    A MapReduce-style shuffle is approximated by drawing a small set of
    sources and sinks and connecting them: sources and sinks may repeat
    across flows of the same coflow but a flow never has equal endpoints.
    """
    nodes = list(graph.nodes)
    if len(nodes) < 2:
        raise ValueError("need at least two nodes to place flows")
    pairs: List[tuple[str, str]] = []
    for _ in range(width):
        src, dst = rng.choice(nodes, size=2, replace=False)
        pairs.append((str(src), str(dst)))
    return pairs


def generate_coflows(
    graph: NetworkGraph,
    spec: WorkloadSpec,
    rng: RandomSource = None,
) -> List[Coflow]:
    """Generate the coflow population described by *spec* on *graph*."""
    profile = spec.resolved_profile()
    gen = as_generator(rng if rng is not None else spec.seed)
    if spec.num_coflows < 1:
        raise ValueError("num_coflows must be at least 1")
    if spec.demand_scale <= 0:
        raise ValueError("demand_scale must be positive")
    if spec.release_spread < 0:
        raise ValueError("release_spread must be non-negative")

    # Poisson arrivals: exponential inter-arrival times with the profile rate.
    if spec.release_spread == 0:
        release_times = np.zeros(spec.num_coflows)
    else:
        inter = gen.exponential(
            scale=spec.release_spread / profile.arrival_rate, size=spec.num_coflows
        )
        release_times = np.cumsum(inter)
        release_times[0] = 0.0  # the first job arrives at time zero

    lo_w, hi_w = profile.width_range
    widths = np.exp(
        gen.uniform(np.log(lo_w), np.log(hi_w + 1), size=spec.num_coflows)
    ).astype(int)
    widths = np.clip(widths, lo_w, hi_w)

    coflows: List[Coflow] = []
    for j in range(spec.num_coflows):
        pairs = _sample_endpoints(graph, int(widths[j]), gen)
        demands = (
            gen.lognormal(
                mean=profile.demand_log_mean,
                sigma=profile.demand_log_sigma,
                size=len(pairs),
            )
            * spec.demand_scale
        )
        demands = np.maximum(demands, 1e-3)
        flows = [
            Flow(
                source=src,
                sink=dst,
                demand=float(demand),
                release_time=float(release_times[j]),
                name=f"f{i}",
            )
            for i, ((src, dst), demand) in enumerate(zip(pairs, demands))
        ]
        if spec.weighted:
            weight = float(gen.uniform(*profile.weight_range))
        else:
            weight = 1.0
        coflows.append(
            Coflow(
                flows=tuple(flows),
                weight=weight,
                release_time=float(release_times[j]),
                name=f"{profile.name}-{j}",
            )
        )
    return coflows


def generate_instance(
    graph: NetworkGraph,
    spec: WorkloadSpec,
    *,
    model: TransmissionModel | str = TransmissionModel.FREE_PATH,
    rng: RandomSource = None,
) -> CoflowInstance:
    """Generate a complete instance, pinning random shortest paths if needed.

    For the single path model, every generated flow gets a uniformly random
    shortest path (paper Section 6.2: "we randomly select one of the shortest
    paths as the path for flow f").
    """
    model = TransmissionModel.parse(model)
    gen = as_generator(rng if rng is not None else spec.seed)
    coflows = generate_coflows(graph, spec, gen)
    if model is TransmissionModel.SINGLE_PATH:
        coflows = pin_random_shortest_paths(graph, coflows, gen)
    name = spec.name or f"{spec.resolved_profile().name}-{model.value}"
    return CoflowInstance(graph, coflows, model=model, name=name)


def random_instance(
    graph: NetworkGraph,
    *,
    num_coflows: int = 5,
    max_flows_per_coflow: int = 3,
    max_demand: float = 4.0,
    weighted: bool = True,
    with_release_times: bool = True,
    model: TransmissionModel | str = TransmissionModel.FREE_PATH,
    rng: RandomSource = None,
) -> CoflowInstance:
    """A small, fully random instance (used heavily by tests and ablations).

    Unlike :func:`generate_instance` this does not follow any benchmark
    profile; it simply draws uniform widths, demands, weights and release
    times, which is handy for property-based testing.
    """
    gen = as_generator(rng)
    model = TransmissionModel.parse(model)
    nodes = list(graph.nodes)
    coflows: List[Coflow] = []
    for j in range(num_coflows):
        width = int(gen.integers(1, max_flows_per_coflow + 1))
        release = float(gen.uniform(0.0, 3.0)) if with_release_times else 0.0
        flows = []
        for i in range(width):
            src, dst = gen.choice(nodes, size=2, replace=False)
            demand = float(gen.uniform(0.5, max_demand))
            flows.append(
                Flow(str(src), str(dst), demand, release_time=release, name=f"f{i}")
            )
        weight = float(gen.uniform(1.0, 10.0)) if weighted else 1.0
        coflows.append(
            Coflow(tuple(flows), weight=weight, release_time=release, name=f"C{j}")
        )
    if model is TransmissionModel.SINGLE_PATH:
        coflows = pin_random_shortest_paths(graph, coflows, gen)
    return CoflowInstance(graph, coflows, model=model, name="random")

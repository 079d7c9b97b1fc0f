"""Loop-based reference implementations of the simulator hot path.

This module preserves the original (pre-optimization) per-event rate
allocation and simulator loop of :mod:`repro.sim.rate_allocation` /
:mod:`repro.sim.simulator`.  Like :mod:`repro.core.timeindexed_reference`
it is an equivalence oracle: ``test_sim_incremental.py`` and
``test_sim_rate_allocation.py`` assert that the optimized allocation and
simulator reproduce it (same event count, same piecewise-constant rates,
same completion times).  The tests import it as ``sim_reference`` (pytest
puts this directory on the import path).

It keeps the original loop's own interface: a mutable :class:`FlowState`
per flow, a priority function called as ``(time, flow_states, instance)``
and a :class:`RateAllocation` per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coflow.instance import CoflowInstance, FlowRef, TransmissionModel
from repro.lp.model import ConstraintSense, LinearProgram
from repro.lp.solver import solve_lp
from repro.sim.rate_allocation import RATE_TOL
from repro.sim.simulator import (
    MAX_EVENTS_FACTOR,
    SimulationResult,
    TimelineEntry,
)


@dataclass
class FlowState:
    """Mutable per-flow simulation state."""

    global_index: int
    coflow_index: int
    demand: float
    remaining: float
    release_time: float
    completion_time: Optional[float] = None


@dataclass
class RateAllocation:
    """Result of one allocation round.

    ``rates`` holds every flow's rate by global flow index (0 outside the
    active set), ``edge_rates`` the per-flow, per-edge rates of the free
    path model (``None`` for single path) and ``residual_capacity`` the
    capacity left unused on every edge.
    """

    rates: np.ndarray
    edge_rates: Optional[np.ndarray]
    residual_capacity: np.ndarray


#: The original loop's priority signature: (time, flow states, instance).
ReferencePriority = Callable[
    [float, Sequence[FlowState], CoflowInstance], Sequence[int]
]


def _path_edge_indices(instance: CoflowInstance, ref: FlowRef) -> List[int]:
    edge_index = instance.graph.edge_index()
    return [edge_index[e] for e in ref.flow.path_edges()]


def single_path_coflow_rates_reference(
    instance: CoflowInstance,
    flow_refs: Sequence[FlowRef],
    remaining: np.ndarray,
    residual: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Loop-based fastest-completion rates along pinned paths."""
    num_edges = instance.graph.num_edges
    usage_per_alpha = np.zeros(num_edges, dtype=float)
    for ref in flow_refs:
        rem = remaining[ref.global_index]
        if rem <= RATE_TOL:
            continue
        for e in _path_edge_indices(instance, ref):
            usage_per_alpha[e] += rem
    rates = np.zeros(instance.num_flows, dtype=float)
    usage = np.zeros(num_edges, dtype=float)
    loaded = usage_per_alpha > RATE_TOL
    if not loaded.any():
        return rates, usage
    with np.errstate(divide="ignore"):
        alpha = float(np.min(residual[loaded] / usage_per_alpha[loaded]))
    alpha = max(alpha, 0.0)
    if alpha <= RATE_TOL:
        return rates, usage
    for ref in flow_refs:
        rem = remaining[ref.global_index]
        if rem <= RATE_TOL:
            continue
        rate = alpha * rem
        rates[ref.global_index] = rate
        for e in _path_edge_indices(instance, ref):
            usage[e] += rate
    return rates, usage


def free_path_coflow_rates_reference(
    instance: CoflowInstance,
    flow_refs: Sequence[FlowRef],
    remaining: np.ndarray,
    residual: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loop-assembled max-concurrent-flow LP for one coflow."""
    graph = instance.graph
    num_edges = graph.num_edges
    active = [r for r in flow_refs if remaining[r.global_index] > RATE_TOL]
    rates = np.zeros(instance.num_flows, dtype=float)
    flow_edge_rates = np.zeros((instance.num_flows, num_edges), dtype=float)
    usage = np.zeros(num_edges, dtype=float)
    if not active:
        return rates, flow_edge_rates, usage

    lp = LinearProgram(name="max-concurrent-flow")
    alpha_block = lp.add_variables("alpha", 1, lower=0.0)
    alpha_idx = int(alpha_block.indices()[0])
    y_block = lp.add_variables("y", len(active) * num_edges, lower=0.0)
    y_idx = y_block.reshape(len(active), num_edges)
    lp.set_objective_coefficient(alpha_idx, -1.0)

    edge_index = graph.edge_index()
    nodes = graph.nodes
    out_edges = {n: [edge_index[e] for e in graph.out_edges(n)] for n in nodes}
    in_edges = {n: [edge_index[e] for e in graph.in_edges(n)] for n in nodes}

    for a, ref in enumerate(active):
        src, dst = ref.flow.source, ref.flow.sink
        rem = float(remaining[ref.global_index])
        for e in in_edges[src]:
            lp.fix_variable(int(y_idx[a, e]), 0.0)
        for e in out_edges[dst]:
            lp.fix_variable(int(y_idx[a, e]), 0.0)
        src_out = out_edges[src]
        dst_in = in_edges[dst]
        lp.add_constraint(
            list(y_idx[a, src_out]) + [alpha_idx],
            [1.0] * len(src_out) + [-rem],
            ConstraintSense.EQUAL,
            0.0,
        )
        lp.add_constraint(
            list(y_idx[a, dst_in]) + [alpha_idx],
            [1.0] * len(dst_in) + [-rem],
            ConstraintSense.EQUAL,
            0.0,
        )
        for node in nodes:
            if node in (src, dst):
                continue
            node_in = in_edges[node]
            node_out = out_edges[node]
            if not node_in and not node_out:
                continue
            lp.add_constraint(
                list(y_idx[a, node_in]) + list(y_idx[a, node_out]),
                [1.0] * len(node_in) + [-1.0] * len(node_out),
                ConstraintSense.EQUAL,
                0.0,
            )
    for e in range(num_edges):
        lp.add_constraint(
            y_idx[:, e],
            np.ones(len(active)),
            ConstraintSense.LESS_EQUAL,
            float(max(residual[e], 0.0)),
        )

    result = solve_lp(lp, require_optimal=True)
    alpha = result.value(alpha_idx)
    if alpha <= RATE_TOL:
        return rates, flow_edge_rates, usage
    y_values = result.values(y_idx)
    for a, ref in enumerate(active):
        rem = float(remaining[ref.global_index])
        rates[ref.global_index] = alpha * rem
        flow_edge_rates[ref.global_index] = y_values[a]
        usage += y_values[a]
    return rates, flow_edge_rates, usage


def allocate_rates_reference(
    instance: CoflowInstance,
    remaining: np.ndarray,
    coflow_priority: Sequence[int],
    *,
    active_coflows: Optional[Sequence[int]] = None,
) -> RateAllocation:
    """Greedy priority-ordered allocation, recomputed from scratch."""
    graph = instance.graph
    residual = graph.capacity_vector()
    rates = np.zeros(instance.num_flows, dtype=float)
    edge_rates = (
        np.zeros((instance.num_flows, graph.num_edges), dtype=float)
        if instance.model is TransmissionModel.FREE_PATH
        else None
    )
    active_set = set(active_coflows if active_coflows is not None else coflow_priority)

    flows_by_coflow: Dict[int, List[FlowRef]] = {}
    for ref in instance.flow_refs():
        flows_by_coflow.setdefault(ref.coflow_index, []).append(ref)

    for j in coflow_priority:
        if j not in active_set:
            continue
        refs = flows_by_coflow.get(j, [])
        if not refs:
            continue
        if instance.model is TransmissionModel.FREE_PATH:
            coflow_rates, coflow_edge_rates, usage = free_path_coflow_rates_reference(
                instance, refs, remaining, residual
            )
            if edge_rates is not None:
                edge_rates += coflow_edge_rates
        else:
            coflow_rates, usage = single_path_coflow_rates_reference(
                instance, refs, remaining, residual
            )
        rates += coflow_rates
        residual = np.clip(residual - usage, 0.0, None)
    return RateAllocation(rates=rates, edge_rates=edge_rates, residual_capacity=residual)


def fifo_priority_reference(
    time: float, flow_states: Sequence[FlowState], instance: CoflowInstance
) -> List[int]:
    """Original FIFO priority (recomputes the release vector per event)."""
    release = np.full(instance.num_coflows, np.inf)
    for ref in instance.flow_refs():
        release[ref.coflow_index] = min(release[ref.coflow_index], ref.release_time)
    return sorted(range(instance.num_coflows), key=lambda j: (release[j], j))


def srtf_priority_reference(instance: CoflowInstance, standalone: np.ndarray):
    """Original Terra/SEBF-style priority built on per-state Python loops."""

    def priority(
        time: float, flow_states: Sequence[FlowState], inst: CoflowInstance
    ) -> List[int]:
        total = np.zeros(inst.num_coflows, dtype=float)
        left = np.zeros(inst.num_coflows, dtype=float)
        for state in flow_states:
            total[state.coflow_index] += state.demand
            left[state.coflow_index] += max(state.remaining, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = np.where(total > 0, left / total, 0.0)
        remaining_time = fraction * standalone
        return sorted(
            range(inst.num_coflows),
            key=lambda j: (remaining_time[j], standalone[j], j),
        )

    return priority


def standalone_times_reference(instance: CoflowInstance) -> np.ndarray:
    """Terra's first LP family solved with the loop-based primitives."""
    residual = instance.graph.capacity_vector()
    demands = instance.demands()
    times = np.zeros(instance.num_coflows, dtype=float)
    for j in range(instance.num_coflows):
        refs = instance.flows_of(j)
        if instance.model is TransmissionModel.FREE_PATH:
            rates, _, _ = free_path_coflow_rates_reference(
                instance, refs, demands, residual
            )
        else:
            rates, _ = single_path_coflow_rates_reference(
                instance, refs, demands, residual
            )
        alphas = [
            rates[r.global_index] / demands[r.global_index]
            for r in refs
            if demands[r.global_index] > RATE_TOL
        ]
        alpha = min(alphas) if alphas else float("inf")
        times[j] = 0.0 if np.isinf(alpha) else 1.0 / alpha
    return times


def simulate_priority_schedule_reference(
    instance: CoflowInstance,
    priority_fn: ReferencePriority,
    *,
    record_timeline: bool = False,
    max_time: Optional[float] = None,
) -> SimulationResult:
    """The original event loop: full re-allocation at every event."""
    flow_states = [
        FlowState(
            global_index=ref.global_index,
            coflow_index=ref.coflow_index,
            demand=ref.demand,
            remaining=ref.demand,
            release_time=ref.release_time,
        )
        for ref in instance.flow_refs()
    ]
    num_flows = len(flow_states)
    num_coflows = instance.num_coflows
    coflow_release = instance.coflow_release_times()
    remaining = np.array([s.remaining for s in flow_states], dtype=float)
    flow_release = np.array([s.release_time for s in flow_states], dtype=float)
    flow_completion = np.zeros(num_flows, dtype=float)
    finished_flows = np.zeros(num_flows, dtype=bool)

    if max_time is None:
        max_time = float(
            instance.max_release_time()
            + instance.total_demand() / instance.graph.min_capacity()
            + num_flows
            + 10.0
        )

    time = 0.0
    timeline: List[TimelineEntry] = []
    max_events = MAX_EVENTS_FACTOR * (num_flows + num_coflows + 1)
    events = 0

    while not finished_flows.all():
        events += 1
        if events > max_events:
            raise RuntimeError(
                "simulator exceeded its event budget; the priority function "
                "may be starving some coflow"
            )
        released_flows = (flow_release <= time + 1e-12) & (~finished_flows)
        active_coflows = sorted(
            {flow_states[f].coflow_index for f in np.nonzero(released_flows)[0]}
        )
        if not active_coflows:
            future = flow_release[(~finished_flows) & (flow_release > time + 1e-12)]
            if future.size == 0:
                raise RuntimeError("no active coflows and no future releases")
            time = float(future.min())
            continue

        order = list(priority_fn(time, flow_states, instance))
        seen = set(order)
        order.extend(j for j in range(num_coflows) if j not in seen)
        allocation = allocate_rates_reference(
            instance, remaining, order, active_coflows=active_coflows
        )
        rates = allocation.rates
        rates = np.where(released_flows, rates, 0.0)

        with np.errstate(divide="ignore", invalid="ignore"):
            completion_dt = np.where(
                rates > RATE_TOL, remaining / np.maximum(rates, RATE_TOL), np.inf
            )
        next_completion = float(completion_dt.min())
        future_releases = flow_release[(~finished_flows) & (flow_release > time + 1e-12)]
        next_release_dt = (
            float(future_releases.min()) - time if future_releases.size else np.inf
        )
        dt = min(next_completion, next_release_dt)
        if not np.isfinite(dt) or dt <= 0:
            raise RuntimeError(
                f"simulation stalled at time {time:.4f}: no progress possible "
                "(some released flow has rate 0 and no release is pending)"
            )
        if time + dt > max_time:
            raise RuntimeError(
                f"simulation exceeded max_time={max_time}; instance may be "
                "infeasible for the chosen priority function"
            )

        if record_timeline:
            timeline.append(
                TimelineEntry(start=time, end=time + dt, rates=rates.copy())
            )

        transmitted = rates * dt
        remaining = np.clip(remaining - transmitted, 0.0, None)
        time += dt
        newly_finished = (~finished_flows) & (remaining <= RATE_TOL)
        for f in np.nonzero(newly_finished)[0]:
            flow_completion[f] = time
            flow_states[f].completion_time = time
        finished_flows |= newly_finished
        for f, state in enumerate(flow_states):
            state.remaining = float(remaining[f])

    coflow_completion = np.zeros(num_coflows, dtype=float)
    coflow_idx = instance.coflow_of_flow()
    np.maximum.at(coflow_completion, coflow_idx, flow_completion)
    coflow_completion = np.maximum(coflow_completion, coflow_release)

    return SimulationResult(
        instance=instance,
        coflow_completion_times=coflow_completion,
        flow_completion_times=flow_completion,
        timeline=timeline,
        metadata={"events": events, "implementation": "reference"},
    )

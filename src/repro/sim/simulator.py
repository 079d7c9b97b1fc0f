"""Event-driven, continuous-time coflow simulator.

The simulator advances from event to event (a coflow release or a flow
completion), recomputing a priority-ordered rate allocation at every event.
It underlies the Terra baseline (priority = shortest remaining standalone
time), the greedy baselines (FIFO, weighted shortest job first, ...) and the
"run each coflow alone" diagnostics used in examples.

Unlike the LP-based algorithms the simulator is preemptive and works in
continuous time; its output is a set of completion times rather than a
slotted :class:`~repro.schedule.schedule.Schedule`.
"""

from __future__ import annotations

import time as time_module
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.coflow.instance import CoflowInstance
from repro.sim.rate_allocation import (
    RATE_TOL,
    CoflowAllocation,
    get_rate_allocator,
)

#: Guard against pathological event loops (should never trigger for sane
#: priority functions: each event either releases or finishes something).
MAX_EVENTS_FACTOR = 20


@dataclass
class TimelineEntry:
    """One simulated interval with constant rates."""

    start: float
    end: float
    rates: np.ndarray

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SimulationResult:
    """Output of :func:`simulate_priority_schedule`.

    Attributes
    ----------
    coflow_completion_times:
        Completion time of every coflow (max over its flows).
    flow_completion_times:
        Completion time of every flow.
    timeline:
        The piecewise-constant rate assignment actually simulated; useful
        for plotting and for feasibility checks in tests.
    """

    instance: CoflowInstance
    coflow_completion_times: np.ndarray
    flow_completion_times: np.ndarray
    timeline: List[TimelineEntry] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def weighted_completion_time(self) -> float:
        """The objective ``sum_j w_j C_j``."""
        return float(
            np.dot(self.instance.weights, self.coflow_completion_times)
        )

    @property
    def total_completion_time(self) -> float:
        """Unweighted sum of coflow completion times."""
        return float(self.coflow_completion_times.sum())

    @property
    def makespan(self) -> float:
        return float(self.coflow_completion_times.max(initial=0.0))


#: A priority function maps (simulation time, remaining demand of every
#: flow, instance) to a list of coflow indices ordered from highest to
#: lowest priority.  The remaining-demand vector is the simulator's own and
#: must only be read.  Only released, unfinished coflows need to be ranked;
#: others are ignored.
PriorityFunction = Callable[[float, np.ndarray, CoflowInstance], Sequence[int]]


def simulate_priority_schedule(
    instance: CoflowInstance,
    priority_fn: PriorityFunction,
    *,
    record_timeline: bool = False,
    max_time: Optional[float] = None,
    incremental: bool = True,
) -> SimulationResult:
    """Simulate a priority-driven, work-conserving, preemptive schedule.

    Parameters
    ----------
    instance:
        The coflow instance (model picks the rate-allocation primitive).
    priority_fn:
        Called at every event with the current time and the remaining demand
        of every flow (see :data:`PriorityFunction`); returns coflow indices
        from highest to lowest priority.  Coflows omitted from the returned
        order are treated as lowest priority (appended in index order).
    record_timeline:
        Store the piecewise-constant rate timeline (memory-heavier; used by
        tests and examples).
    max_time:
        Safety cap on simulated time; ``None`` derives a generous bound from
        the instance.
    incremental:
        Reuse per-coflow allocations across events (default).  A coflow's
        allocation is provably unchanged when (a) every higher-priority
        coflow kept its allocation, (b) none of its flows completed or got
        released by the event, and (c) all of its unfinished flows are
        released — its flows then drain proportionally, which leaves the
        fastest-completion rates invariant.  Only coflows at and below the
        first changed priority rank are re-allocated; ``incremental=False``
        recomputes every coflow at every event (the pre-optimization
        behaviour, equal event-for-event).

    A released flow whose remaining demand is at most ``RATE_TOL`` can never
    be given a rate (rates below the tolerance count as zero), so it
    finishes at the event that releases it: a lone ``1e-9``-demand coflow
    released at 0 completes at 0 instead of stalling the simulation.

    Returns
    -------
    SimulationResult
        Its ``metadata`` holds ``events``, ``implementation``,
        ``first_coflow_service_times``, ``allocations_computed`` /
        ``allocations_reused`` (per-coflow allocations recomputed at an
        event or carried over from the previous one), ``allocations_blocked``
        (free-path allocations the allocator decided without an LP because
        some flow's sink was unreachable over edges with residual capacity),
        ``lp_solves`` (max-concurrent-flow LPs the allocator solved during
        this simulation, including any that the priority function caused),
        ``seconds`` and ``events_per_sec``.
    """
    remaining = np.array(instance.demands(), dtype=float)
    num_flows = instance.num_flows
    num_coflows = instance.num_coflows
    coflow_release = instance.coflow_release_times()
    flow_release = instance.flow_release_times()
    # Flows sorted by release time, so the next release and the flows an
    # interval releases are binary searches.  An unreleased flow is never
    # finished, so neither needs the finished mask.
    release_order = np.argsort(flow_release, kind="stable")
    sorted_release = flow_release[release_order]
    flow_completion = np.zeros(num_flows, dtype=float)
    finished_flows = np.zeros(num_flows, dtype=bool)
    # First time each coflow receives a positive rate (NaN = never served,
    # e.g. coflows whose demand is below RATE_TOL).  This is the evidence
    # the online verification invariants check against release times; the
    # counter lets the hot loop skip the bookkeeping once every coflow has
    # been seen.
    first_service = np.full(num_coflows, np.nan)
    unserved_coflows = num_coflows

    if max_time is None:
        # Serial upper bound mirrors suggest_horizon's reasoning.
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

    allocator = get_rate_allocator(instance)
    lp_solves_before = allocator.lp_solves
    blocked_before = allocator.blocked
    capacity = instance.graph.capacity_vector()
    coflow_idx = instance.coflow_of_flow()
    # Incremental-allocation state: the effective priority sequence of the
    # previous event, the per-coflow allocations it produced, and the
    # coflows whose inputs changed since their cached allocation.
    prev_seq: List[int] = []
    alloc_cache: Dict[int, CoflowAllocation] = {}
    dirty = np.ones(num_coflows, dtype=bool)
    alloc_computed = 0
    alloc_reused = 0
    wall_start = time_module.perf_counter()

    def finish(done: np.ndarray, at: float) -> None:
        flow_completion[done] = at
        finished_flows[done] = True
        dirty[coflow_idx[done]] = True

    while not finished_flows.all():
        events += 1
        if events > max_events:
            raise RuntimeError(
                "simulator exceeded its event budget; the priority function "
                "may be starving some coflow"
            )
        # Which flows can transmit right now?  A released flow with no more
        # than RATE_TOL left is never served, so it finishes on release.
        next_release = np.searchsorted(sorted_release, time + 1e-12, side="right")
        released_flows = (flow_release <= time + 1e-12) & (~finished_flows)
        negligible = released_flows & (remaining <= RATE_TOL)
        if negligible.any():
            finish(np.flatnonzero(negligible), time)
            released_flows &= ~negligible
        if not released_flows.any():
            if finished_flows.all():
                break
            # Jump to the next release event.
            if next_release == num_flows:
                raise RuntimeError("no active coflows and no future releases")
            time = float(sorted_release[next_release])
            continue
        active = np.bincount(coflow_idx[released_flows], minlength=num_coflows) > 0
        # Coflows with a pending (unreleased, unfinished) flow break the
        # proportional-drain invariant and must always be re-allocated.
        pending = (
            np.bincount(
                coflow_idx[release_order[next_release:]], minlength=num_coflows
            )
            > 0
        )

        order = np.fromiter(priority_fn(time, remaining, instance), dtype=np.int64)
        listed = np.zeros(num_coflows, dtype=bool)
        listed[order] = True
        if not listed.all():
            order = np.concatenate([order, np.flatnonzero(~listed)])
        effective_seq = order[active[order]].tolist()

        residual = capacity.copy()
        rates = np.zeros(num_flows, dtype=float)
        chain_clean = incremental
        for rank, j in enumerate(effective_seq):
            if (
                chain_clean
                and rank < len(prev_seq)
                and prev_seq[rank] == j
                and not dirty[j]
                and not pending[j]
            ):
                alloc = alloc_cache[j]
                alloc_reused += 1
            else:
                chain_clean = False
                alloc = allocator.coflow_allocation(j, remaining, residual)
                alloc_cache[j] = alloc
                dirty[j] = False
                alloc_computed += 1
            if alloc.flow_idx.size:
                rates[alloc.flow_idx] = alloc.flow_rates
                residual = np.clip(residual - alloc.usage, 0.0, None)
        prev_seq = effective_seq
        # Only released, unfinished flows may have positive rates.
        rates = np.where(released_flows, rates, 0.0)
        moving = np.flatnonzero(rates)
        fast = moving[rates[moving] > RATE_TOL]
        if unserved_coflows and fast.size:
            fresh = np.zeros(num_coflows, dtype=bool)
            fresh[coflow_idx[fast]] = True
            fresh &= np.isnan(first_service)
            if fresh.any():
                first_service[fresh] = time
                unserved_coflows -= int(np.count_nonzero(fresh))

        # Time to the next completion under these rates.
        next_completion = (
            float(np.min(remaining[fast] / rates[fast])) if fast.size else np.inf
        )
        # Time to the next release of a currently unreleased flow.
        next_release_dt = (
            float(sorted_release[next_release]) - time
            if next_release < num_flows
            else np.inf
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

        # Advance.  Only flows with a positive rate move; those left with at
        # most RATE_TOL finish now.
        remaining = remaining.copy()
        remaining[moving] = np.maximum(remaining[moving] - rates[moving] * dt, 0.0)
        previous_time = time
        time += dt
        done = moving[remaining[moving] <= RATE_TOL]
        if done.size:
            finish(done, time)
        # Coflows that gained a released flow must be re-allocated.
        crossed = release_order[
            np.searchsorted(sorted_release, previous_time + 1e-12, side="right") :
            np.searchsorted(sorted_release, time + 1e-12, side="right")
        ]
        dirty[coflow_idx[crossed]] = True

    wall_seconds = time_module.perf_counter() - wall_start

    coflow_completion = np.zeros(num_coflows, dtype=float)
    np.maximum.at(coflow_completion, coflow_idx, flow_completion)
    # A coflow can never finish before it was released.
    coflow_completion = np.maximum(coflow_completion, coflow_release)

    return SimulationResult(
        instance=instance,
        coflow_completion_times=coflow_completion,
        flow_completion_times=flow_completion,
        timeline=timeline,
        metadata={
            "events": events,
            "implementation": "incremental" if incremental else "full",
            "first_coflow_service_times": first_service,
            "allocations_computed": alloc_computed,
            "allocations_reused": alloc_reused,
            "allocations_blocked": allocator.blocked - blocked_before,
            "lp_solves": allocator.lp_solves - lp_solves_before,
            "seconds": wall_seconds,
            "events_per_sec": events / wall_seconds if wall_seconds > 0 else float("inf"),
        },
    )


def remaining_fraction_priority(
    instance: CoflowInstance,
    standalone: np.ndarray,
    *,
    standalone_tiebreak: bool = False,
) -> PriorityFunction:
    """Shortest-remaining-estimate priority shared by Terra and SEBF.

    A coflow's remaining time is estimated as its standalone completion
    time scaled by the fraction of demand still outstanding.  With
    *standalone_tiebreak* the secondary sort key is the standalone time
    (Terra's SRTF ordering); otherwise ties fall through to the coflow
    index directly (SEBF).
    """
    coflow_idx = instance.coflow_of_flow()
    totals = instance.coflow_total_demands()
    tiebreak = np.arange(instance.num_coflows)

    def priority(
        time: float, remaining: np.ndarray, inst: CoflowInstance
    ) -> List[int]:
        left = np.bincount(
            coflow_idx, weights=np.maximum(remaining, 0.0), minlength=totals.size
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = np.where(totals > 0, left / totals, 0.0)
        remaining_time = fraction * standalone
        # lexsort keys are minor-to-major: this matches the original
        # sorted() tuple orderings of the Terra / SEBF baselines.
        if standalone_tiebreak:
            keys = (tiebreak, standalone, remaining_time)
        else:
            keys = (tiebreak, remaining_time)
        return np.lexsort(keys).tolist()

    return priority


def fifo_priority(
    time: float, remaining: np.ndarray, instance: CoflowInstance
) -> List[int]:
    """First-released, first-served priority (ties broken by coflow index)."""
    release = instance.coflow_release_times()
    order = np.lexsort((np.arange(instance.num_coflows), release))
    return order.tolist()


def static_order_priority(order: Sequence[int]) -> PriorityFunction:
    """A priority function that always returns the same fixed order."""
    fixed = list(order)

    def priority(
        time: float, remaining: np.ndarray, instance: CoflowInstance
    ) -> List[int]:
        return list(fixed)

    return priority

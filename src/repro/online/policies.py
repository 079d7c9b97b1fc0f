"""The online scheduling algorithms and their registry entries.

======================  ====================================================
algorithm               decision rule
======================  ====================================================
geometric batching      coflows released in epoch ``[B^(k-1), B^k)`` are
                        batched when the epoch closes and the previous batch
                        has drained, then scheduled by a registered offline
                        algorithm with releases reset — ``O(rho)``-
                        competitive when the offline algorithm is a
                        ``rho``-approximation (Khuller et al., LATIN 2018).
                        ``early_start=True`` adds a work-conserving variant
                        that dispatches everything already arrived whenever
                        the network is idle instead of waiting for the
                        boundary (a heuristic: the constant-factor proof
                        does not cover it).  See
                        :func:`repro.online.engine.batching_schedule`.
incremental re-solve    on every arrival, re-prioritize all released
                        coflows by *remaining* standalone time / weight
                        (:func:`resolve_priority`).  The remaining
                        standalone times are max-concurrent-flow LP solves,
                        warm-started on the allocator's HiGHS engine of
                        :mod:`repro.lp.backends` (the allocator memoizes per
                        remaining-demand signature), and the schedule is
                        executed by the incremental simulator.
non-clairvoyant WSJF    the static weighted-SJF baseline: one full-demand
                        standalone/weight ordering, held fixed — the
                        order of :func:`repro.baselines.greedy.wsjf_order`,
                        which the offline ``weighted-sjf`` baseline runs
                        too.
======================  ====================================================

The module registers four algorithms in :mod:`repro.api.registry` with the
``online=True`` capability flag — ``online-batch``, ``online-batch-wc``,
``online-resolve`` and ``online-wsjf`` — so online scheduling flows through
``solve()`` / ``solve_many()``, ``repro sweep``, the result store and
``repro verify`` exactly like the offline algorithms.  Batching knobs
beyond the registered defaults (epoch base, delegated offline algorithm)
are available through :func:`~repro.online.engine.batching_schedule` and
the ``repro online`` CLI command.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

# Submodule imports (not the repro.api package): repro.api.__init__ imports
# this module while it is still initializing.
from repro.api.registry import register_algorithm
from repro.api.report import SolveReport
from repro.api.request import SolverConfig
from repro.baselines.greedy import wsjf_order, wsjf_ratios
from repro.coflow.instance import CoflowInstance
from repro.core.timeindexed import CoflowLPSolution
from repro.sim.rate_allocation import RATE_TOL, max_concurrent_rate
from repro.sim.simulator import (
    PriorityFunction,
    simulate_priority_schedule,
    static_order_priority,
)

from repro.online.engine import _boundary_tol, _service_evidence, batching_schedule


def resolve_priority(instance: CoflowInstance) -> PriorityFunction:
    """The incremental re-solve priority: re-prioritize on every arrival.

    At each event where the released set grew, every released, unfinished
    coflow's remaining standalone time is recomputed from its current
    remaining demand — a max-concurrent-flow LP per coflow on the empty
    network, warm-started on the instance allocator's HiGHS engine and
    memoized per (coflow, remaining demand) — and coflows are reordered by
    remaining-time/weight.  A finished coflow's remaining time is 0 without
    a call.  Between arrivals the order is held, so the incremental
    simulator can keep reusing allocations above the first changed rank.
    """
    num = instance.num_coflows
    release = instance.coflow_release_times()
    weights = instance.weights
    coflow_of_flow = instance.coflow_of_flow()
    state = {"released": -1, "order": list(range(num))}

    def priority(
        time: float, remaining: np.ndarray, inst: CoflowInstance
    ) -> List[int]:
        released = release <= time + _boundary_tol(time)
        count = int(released.sum())
        if count != state["released"]:
            unfinished = (
                np.bincount(coflow_of_flow[remaining > RATE_TOL], minlength=num) > 0
            )
            remaining_time = np.zeros(num, dtype=float)
            for j in np.nonzero(released & unfinished)[0]:
                rate = max_concurrent_rate(inst, int(j), remaining)
                remaining_time[j] = float("inf") if rate <= RATE_TOL else 1.0 / rate
            ratio = wsjf_ratios(remaining_time, weights)
            order = sorted(
                (int(j) for j in np.nonzero(released)[0]),
                key=lambda j: (ratio[j], j),
            )
            order.extend(j for j in range(num) if not released[j])
            state["order"] = order
            state["released"] = count
        return list(state["order"])

    return priority


def _with_lp_bound(
    report: SolveReport, lp_solution: Optional[CoflowLPSolution]
) -> SolveReport:
    """Attach a shared clairvoyant uniform-grid LP solution as the bound.

    It bounds *slot-aligned* schedules, so continuous-time online policies
    are not held to it by the ``lp-lower-bound`` invariant — the online
    policies have their own ``online-lower-bound`` invariant built on the
    per-coflow clairvoyant standalone LP bound.
    """
    if lp_solution is not None:
        report.lower_bound = lp_solution.objective
        report.lp_solution = lp_solution
    return report


def _priority_report(
    instance: CoflowInstance, priority_fn: PriorityFunction, name: str
) -> SolveReport:
    """Run *priority_fn* on the incremental simulator, which reveals a
    coflow only at its release; records its first-service evidence."""
    sim = simulate_priority_schedule(instance, priority_fn, incremental=True)
    first_service = np.asarray(sim.metadata["first_coflow_service_times"], dtype=float)
    times = sim.coflow_completion_times
    return SolveReport(
        algorithm=name,
        instance=instance,
        objective=float(np.dot(instance.weights, times)),
        coflow_completion_times=times,
        extras={
            "policy": name,
            "events": int(sim.metadata.get("events", 0)),
            "first_service_times": _service_evidence(first_service),
            "num_batches": 0,
        },
    )


@register_algorithm(
    "online-batch",
    online=True,
    description="geometric batching (base 2) over the offline LP heuristic",
)
def _solve_online_batch(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    return _with_lp_bound(batching_schedule(instance, config), lp_solution)


@register_algorithm(
    "online-batch-wc",
    online=True,
    description="work-conserving geometric batching (early start when idle)",
)
def _solve_online_batch_wc(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    return _with_lp_bound(
        batching_schedule(instance, config, early_start=True), lp_solution
    )


@register_algorithm(
    "online-resolve",
    online=True,
    description="per-arrival re-prioritization via warm-started remaining-time LPs",
)
def _solve_online_resolve(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    report = _priority_report(instance, resolve_priority(instance), "online-resolve")
    return _with_lp_bound(report, lp_solution)


@register_algorithm(
    "online-wsjf",
    online=True,
    description="non-clairvoyant static weighted-SJF baseline",
)
def _solve_online_wsjf(
    instance: CoflowInstance,
    config: SolverConfig,
    lp_solution: Optional[CoflowLPSolution] = None,
) -> SolveReport:
    # The order is precomputed for every coflow, but no information leaks:
    # the relative order among *released* coflows at any time only involves
    # standalone times each coflow's arrival would have revealed by then.
    order, _ = wsjf_order(instance)
    report = _priority_report(instance, static_order_priority(order), "online-wsjf")
    return _with_lp_bound(report, lp_solution)


__all__ = ["resolve_priority"]

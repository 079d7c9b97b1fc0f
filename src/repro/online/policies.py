"""Online scheduling policies and their registry entries.

Three policy families share the engine interface of
:mod:`repro.online.engine`:

======================  ====================================================
policy                  decision rule
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
                        does not cover it).
incremental re-solve    on every arrival, re-prioritize all released
                        coflows by *remaining* standalone time / weight.
                        The remaining standalone times are max-concurrent-
                        flow LP solves, warm-started on the allocator's
                        HiGHS engine of :mod:`repro.lp.backends` (the
                        allocator memoizes per remaining-demand signature),
                        and the schedule is executed by the incremental
                        simulator.
non-clairvoyant WSJF    the static weighted-SJF baseline: one full-demand
                        standalone/weight ordering, held fixed.
======================  ====================================================

The module registers four algorithms in :mod:`repro.api.registry` with the
``online=True`` capability flag — ``online-batch``, ``online-batch-wc``,
``online-resolve`` and ``online-wsjf`` — so online scheduling flows through
``solve()`` / ``solve_many()``, ``repro sweep``, the result store and
``repro verify`` exactly like the offline algorithms.  Policy knobs beyond
the registered defaults (epoch base, delegated offline algorithm) are
available programmatically and through the ``repro online`` CLI command.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

# Submodule imports (not the repro.api package): repro.api.__init__ imports
# this module while it is still initializing.
from repro.api.registry import get_algorithm, register_algorithm
from repro.api.report import SolveReport
from repro.api.request import SolverConfig
from repro.coflow.instance import CoflowInstance
from repro.core.timeindexed import CoflowLPSolution
from repro.sim.rate_allocation import RATE_TOL, max_concurrent_rate
from repro.sim.simulator import (
    PriorityFunction,
    array_priority,
    static_order_priority,
)
from repro.utils.validation import check_positive

from repro.online.batch import (
    OFFLINE_ALGORITHMS,
    OnlineScheduleResult,
    _boundary_tol,
    _epoch_index,
    wsjf_order,
    wsjf_ratios,
)
from repro.online.stream import ArrivalStream


class OnlinePolicy:
    """Base class: a named policy of one engine *kind* (batching/priority)."""

    kind: str = ""
    name: str = ""
    #: Batching policies delegate batches here; priority policies keep the
    #: attribute for a uniform interface (unused).
    offline_algorithm: str = ""
    base: float = 0.0
    early_start: bool = False


# --------------------------------------------------------------------------- #
# generalized geometric batching
# --------------------------------------------------------------------------- #
class GeometricBatchingPolicy(OnlinePolicy):
    """Geometric (doubling for ``base=2``) batching over an offline solver.

    Parameters
    ----------
    base:
        Epoch growth factor (> 1); epoch ``k >= 1`` covers
        ``[base^(k-1), base^k)`` and epoch 0 covers ``[0, 1)``.
    offline_algorithm:
        Any registered algorithm; the names in
        :data:`~repro.online.batch.OFFLINE_ALGORITHMS` carry the paper's
        approximation guarantee.
    early_start:
        Work-conserving variant: whenever the network is idle, everything
        already arrived is dispatched immediately instead of waiting for
        its epoch boundary.
    """

    kind = "batching"

    def __init__(
        self,
        base: float = 2.0,
        *,
        offline_algorithm: str = "lp-heuristic",
        early_start: bool = False,
    ) -> None:
        check_positive(base - 1.0, "base - 1")
        get_algorithm(offline_algorithm)  # fail fast on typos
        self.base = float(base)
        self.offline_algorithm = offline_algorithm
        self.early_start = bool(early_start)
        suffix = "+wc" if early_start else ""
        self.name = f"online-batch[{offline_algorithm}]{suffix}"

    def epoch_of(self, release_time: float) -> int:
        return _epoch_index(release_time, self.base)

    def epoch_close(self, epoch: int) -> float:
        return float(self.base**epoch)


# --------------------------------------------------------------------------- #
# incremental re-solve
# --------------------------------------------------------------------------- #
class IncrementalResolvePolicy(OnlinePolicy):
    """Re-prioritize on every arrival from *remaining* work.

    At each event where the released set grew, every released, unfinished
    coflow's remaining standalone time is recomputed from its current
    remaining demand — a max-concurrent-flow LP per coflow on the empty
    network, warm-started on the instance allocator's HiGHS engine and
    memoized per (coflow, remaining demand) — and coflows are reordered by
    remaining-time/weight.  A finished coflow's remaining time is 0 without
    a call.  Between arrivals the order is held, so the incremental
    simulator can keep reusing allocations above the first changed rank.
    """

    kind = "priority"
    name = "online-resolve"

    def priority_function(
        self, stream: ArrivalStream, config: SolverConfig
    ) -> PriorityFunction:
        instance = stream.instance
        num = instance.num_coflows
        release = instance.coflow_release_times()
        weights = instance.weights
        coflow_of_flow = instance.coflow_of_flow()
        state = {"released": -1, "order": list(range(num))}

        @array_priority
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


# --------------------------------------------------------------------------- #
# non-clairvoyant WSJF baseline
# --------------------------------------------------------------------------- #
class WSJFPolicy(OnlinePolicy):
    """Static weighted-SJF: one full-demand standalone/weight ordering.

    The order is precomputed for every coflow, but no information leaks:
    the relative order among *released* coflows at any time only involves
    standalone times each coflow's arrival would have revealed by then.
    """

    kind = "priority"
    name = "online-wsjf"

    def priority_function(
        self, stream: ArrivalStream, config: SolverConfig
    ) -> PriorityFunction:
        order, _ = wsjf_order(stream.instance)
        return static_order_priority(order)


# --------------------------------------------------------------------------- #
# registry entries
# --------------------------------------------------------------------------- #
def run_online_policy(
    instance: CoflowInstance,
    policy: OnlinePolicy,
    *,
    config: Optional[SolverConfig] = None,
) -> OnlineScheduleResult:
    """Run *policy* on *instance* through the engine (programmatic entry)."""
    # Lazy: the engine pulls in repro.api.batch, and this module is imported
    # by repro.api.__init__ itself — a module-level import would cycle.
    from repro.online.engine import OnlineEngine

    stream = ArrivalStream.from_instance(instance)
    return OnlineEngine(stream, config=config).run(policy)


def _online_report(
    result: OnlineScheduleResult,
    instance: CoflowInstance,
    lp_solution: Optional[CoflowLPSolution],
) -> SolveReport:
    """Wrap an engine result as a :class:`SolveReport` with JSON-safe extras.

    The clairvoyant uniform-grid LP objective (when a shared solution is
    handed in) is attached as the comparison bound, with the usual caveat:
    it bounds *slot-aligned* schedules, so continuous-time online policies
    are not held to it by the ``lp-lower-bound`` invariant — the online
    policies have their own ``online-lower-bound`` invariant built on the
    per-coflow clairvoyant standalone LP bound.
    """
    extras = {key: value for key, value in result.metadata.items()}
    extras["num_batches"] = result.num_batches
    if result.batches:
        extras["batches"] = [batch.to_dict() for batch in result.batches]
    return SolveReport(
        algorithm=result.algorithm,
        instance=instance,
        objective=result.weighted_completion_time,
        coflow_completion_times=result.coflow_completion_times,
        lower_bound=lp_solution.objective if lp_solution is not None else None,
        lp_solution=lp_solution,
        extras=extras,
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
    policy = GeometricBatchingPolicy(2.0, offline_algorithm="lp-heuristic")
    return _online_report(
        run_online_policy(instance, policy, config=config), instance, lp_solution
    )


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
    policy = GeometricBatchingPolicy(
        2.0, offline_algorithm="lp-heuristic", early_start=True
    )
    return _online_report(
        run_online_policy(instance, policy, config=config), instance, lp_solution
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
    return _online_report(
        run_online_policy(instance, IncrementalResolvePolicy(), config=config),
        instance,
        lp_solution,
    )


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
    return _online_report(
        run_online_policy(instance, WSJFPolicy(), config=config),
        instance,
        lp_solution,
    )


#: Names registered by this module.  They are part of the worker-safe set:
#: every process that imports :mod:`repro.api` (which worker processes do)
#: registers them, so parallel batch runs and sweeps can ship them to any
#: start method.
ONLINE_ALGORITHMS = frozenset(
    {"online-batch", "online-batch-wc", "online-resolve", "online-wsjf"}
)

__all__ = [
    "GeometricBatchingPolicy",
    "IncrementalResolvePolicy",
    "ONLINE_ALGORITHMS",
    "OFFLINE_ALGORITHMS",
    "OnlinePolicy",
    "WSJFPolicy",
    "run_online_policy",
]

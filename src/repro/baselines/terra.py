"""Terra's offline coflow scheduler (You & Chowdhury 2019), free path model.

The paper's Section 6.2 describes the baseline: "It calculates the time for
each single coflow to finish individually, and then schedules with SRTF
(shortest remaining time first).  Instead of one large LP like all other
algorithms compared here, this algorithm solves a large number of LPs, twice
the number of coflow jobs.  Terra can work with very fine grained time, to
the order of milliseconds (and does not need time to be slotted)."

Implementation here:

1. For every coflow, compute its *standalone completion time* — the minimum
   time to ship all of its flows when it owns the whole network — by solving
   a max-concurrent-flow LP (one LP per coflow).
2. Run the continuous-time simulator with SRTF priorities: at every event the
   released, unfinished coflow with the smallest *remaining* standalone time
   gets the highest priority (its remaining time is re-estimated from its
   remaining demands — the second family of LPs), the next smallest gets the
   capacity left over, and so on.  The allocation is work conserving and
   preemptive, matching Terra's fine-grained rate control.

Terra's published algorithm targets the unweighted objective (total
completion time); the paper's Figures 11–12 therefore compare on unweighted
instances.  This implementation accepts weighted instances too and simply
ignores the weights when ordering, as Terra would.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.result import BaselineResult
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.sim.rate_allocation import coflow_standalone_time
from repro.sim.simulator import (
    remaining_fraction_priority,
    simulate_priority_schedule,
)


def standalone_completion_times(instance: CoflowInstance) -> np.ndarray:
    """Terra's first LP family: each coflow's completion time run in isolation."""
    return np.array(
        [
            coflow_standalone_time(instance, j)
            for j in range(instance.num_coflows)
        ],
        dtype=float,
    )


def srtf_priority_fn(instance: CoflowInstance, standalone: np.ndarray):
    """Terra's SRTF priority for the simulator.

    Remaining standalone time scales with the remaining demand fraction:
    the max-concurrent-flow structure of a coflow does not change as it
    shrinks uniformly, so ``remaining_time = fraction * standalone_time``.
    (Non-uniform progress makes this an estimate — exactly the estimate
    Terra's SRTF step uses between its re-optimisation rounds.)
    """
    return remaining_fraction_priority(
        instance, standalone, standalone_tiebreak=True
    )


def terra_offline_schedule(instance: CoflowInstance) -> BaselineResult:
    """Run Terra's offline SRTF algorithm on a free path instance.

    Raises
    ------
    ValueError
        If the instance is not a free path instance (Terra jointly routes and
        schedules; it has no notion of pinned paths).
    """
    if instance.model is not TransmissionModel.FREE_PATH:
        raise ValueError(
            "Terra's offline algorithm applies to the free path model; convert "
            "the instance with instance.with_model('free_path')"
        )
    standalone = standalone_completion_times(instance)
    sim = simulate_priority_schedule(instance, srtf_priority_fn(instance, standalone))
    return BaselineResult(
        algorithm="terra",
        instance=instance,
        coflow_completion_times=sim.coflow_completion_times,
        metadata={
            "standalone_times": standalone,
            "events": sim.metadata.get("events"),
        },
    )


def terra_lower_bound(instance: CoflowInstance) -> float:
    """A simple lower bound Terra reports: sum of standalone completion times.

    Every coflow needs at least its standalone time after release, so
    ``sum_j w_j (r_j + standalone_j)`` lower-bounds the optimum.  Used in
    tests as an additional sanity check alongside the LP bound.
    """
    standalone = standalone_completion_times(instance)
    release = instance.release_times
    return float(np.dot(instance.weights, release + standalone))

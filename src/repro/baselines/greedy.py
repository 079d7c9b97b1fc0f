"""Simple greedy priority baselines.

These are not from the paper's evaluation; they serve three purposes in this
repository: (a) sanity baselines for examples ("what does an uncoordinated /
naive scheduler cost?"), (b) additional comparison points in the ablation
benchmarks, and (c) exercise for the continuous-time simulator substrate.

* **FIFO** — coflows ordered by release time (an "uncoordinated" cluster).
* **Weighted SJF** — coflows ordered by standalone completion time divided by
  weight (the natural weighted shortest-job-first rule; with unit weights it
  degenerates to SJF, the rule RAPIER-style heuristics build on).  The same
  static order (:func:`wsjf_order`) drives the ``online-wsjf`` policy of
  :mod:`repro.online.policies`.
* **SEBF** — smallest effective bottleneck first: order by standalone
  completion time, ignoring weights (the Varys rule transplanted to general
  graphs).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.result import BaselineResult
from repro.baselines.terra import standalone_completion_times
from repro.coflow.instance import CoflowInstance
from repro.sim.simulator import (
    fifo_priority,
    remaining_fraction_priority,
    simulate_priority_schedule,
    static_order_priority,
)

#: Weights at or below this are treated as zero by :func:`wsjf_ratios`.
WEIGHT_TOL = 1e-12


def wsjf_ratios(standalone: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``standalone / weight`` ratios with zero/near-zero weights guarded.

    A coflow whose weight underflows to (near) zero contributes nothing to
    the objective, so it deterministically gets the *worst* ratio
    (``inf`` — scheduled last) instead of emitting a divide RuntimeWarning
    and letting ``0/0 = nan`` scramble the sort order.
    """
    weights = np.asarray(weights, dtype=float)
    standalone = np.asarray(standalone, dtype=float)
    ratio = np.full(standalone.shape, np.inf)
    positive = weights > WEIGHT_TOL
    ratio[positive] = standalone[positive] / weights[positive]
    return ratio


def wsjf_order(instance: CoflowInstance) -> Tuple[List[int], np.ndarray]:
    """The static WSJF priority order with its standalone times.

    Returns ``(order, standalone)``: coflow indices sorted by full-demand
    ``standalone time / weight`` (ties by index, weights at or below
    :data:`WEIGHT_TOL` last — see :func:`wsjf_ratios`).  The one
    implementation behind both :func:`weighted_sjf_schedule` and the
    ``online-wsjf`` policy, so the two can never drift apart.
    """
    standalone = standalone_completion_times(instance)
    ratio = wsjf_ratios(standalone, instance.weights)
    order = sorted(range(instance.num_coflows), key=lambda j: (ratio[j], j))
    return order, standalone


def fifo_schedule(instance: CoflowInstance) -> BaselineResult:
    """First-come-first-served by release time (uncoordinated baseline)."""
    sim = simulate_priority_schedule(instance, fifo_priority)
    return BaselineResult(
        algorithm="fifo",
        instance=instance,
        coflow_completion_times=sim.coflow_completion_times,
    )


def weighted_sjf_schedule(instance: CoflowInstance) -> BaselineResult:
    """Weighted shortest job first: order by standalone time / weight.

    With unit weights this is plain shortest job first.  The ordering is
    static (computed once from the full demands, :func:`wsjf_order`), which
    matches how such heuristics are typically deployed.
    """
    order, standalone = wsjf_order(instance)
    sim = simulate_priority_schedule(instance, static_order_priority(order))
    return BaselineResult(
        algorithm="weighted-sjf",
        instance=instance,
        coflow_completion_times=sim.coflow_completion_times,
        metadata={"standalone_times": standalone},
    )


def sebf_priority_fn(instance: CoflowInstance, standalone: np.ndarray):
    """SEBF's dynamic priority for the simulator."""
    return remaining_fraction_priority(
        instance, standalone, standalone_tiebreak=False
    )


def sebf_schedule(instance: CoflowInstance) -> BaselineResult:
    """Smallest effective bottleneck first (Varys-style, weight-agnostic).

    The priority is dynamic: a coflow's remaining standalone time is
    estimated as its standalone time scaled by the fraction of demand still
    outstanding, so the rule behaves like shortest *remaining* bottleneck
    first as coflows drain.
    """
    standalone = standalone_completion_times(instance)
    sim = simulate_priority_schedule(instance, sebf_priority_fn(instance, standalone))
    return BaselineResult(
        algorithm="sebf",
        instance=instance,
        coflow_completion_times=sim.coflow_completion_times,
        metadata={"standalone_times": standalone},
    )

"""Output checks and the schedule-quality score of a workload run.

Every successful unit is checked three ways:

* its objective is finite;
* for algorithms whose objective is the weighted completion time
  (``objective_is_wct``), the objective equals ``sum_j w_j C_j`` of the
  reported completion times;
* every coflow completes no earlier than its lower bound.  For continuous
  completion times (simulated schedules, Jahanjou) that is
  ``r_j + standalone_j``, its release time plus the time it needs alone on
  the empty network.  A time-slotted schedule may transmit during the whole
  first slot that ends after ``r_j`` (the release mask of Eq. 4), so it can
  beat ``r_j + standalone_j`` by up to that slot's length; for it the bound
  is ``max(r_j, s_j + standalone_j)``, with ``s_j`` the start of that slot.

``wct_ratio`` is the geometric mean, over successful units, of
``objective / sum_j w_j (r_j + standalone_j)``.  The denominator depends on
neither grid nor LP, so a speed-up that degrades schedules raises it.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Relative tolerance of the equality and lower-bound checks.
RTOL = 1e-6


def release_and_standalone(instance) -> Tuple[np.ndarray, np.ndarray]:
    """``(r_j, standalone_j)`` for every coflow of *instance*.

    ``coflow_standalone_time`` memoizes on the instance, so pass a copy the
    timed section never sees.
    """
    from repro.sim.rate_allocation import coflow_standalone_time

    standalone = np.array(
        [coflow_standalone_time(instance, j) for j in range(instance.num_coflows)]
    )
    return instance.coflow_release_times(), standalone


def lower_bounds(instances: Sequence) -> List[Tuple[np.ndarray, np.ndarray]]:
    """:func:`release_and_standalone` of every instance, in order.

    ``run.py`` computes them once per run, in its own process, and every
    repetition checks against them.
    """
    return [release_and_standalone(instance) for instance in instances]


def slotted_bounds(grid, release: np.ndarray, standalone: np.ndarray) -> np.ndarray:
    """Completion-time lower bounds of a schedule on the time grid *grid*.

    The first slot coflow ``j`` may use is the first that ends after
    ``r_j``; from that slot's start ``s_j`` it needs at least
    ``standalone_j``.  So ``C_j >= max(r_j, s_j + standalone_j)``.
    """
    starts = np.array([grid.slot_start(grid.first_usable_slot(r)) for r in release])
    return np.maximum(release, starts + standalone)


def check_unit(
    algorithm: str,
    objective: float,
    completion_times: np.ndarray,
    weights: np.ndarray,
    bounds: np.ndarray,
    objective_is_wct: bool,
) -> List[str]:
    """The violations of one successful unit (empty when it passes)."""
    errors = []
    if not math.isfinite(objective):
        errors.append(f"{algorithm}: objective {objective} is not finite")
    if objective_is_wct:
        wct = float(np.dot(weights, completion_times))
        if not math.isclose(objective, wct, rel_tol=RTOL):
            errors.append(
                f"{algorithm}: objective {objective} != sum w_j C_j = {wct}"
            )
    early = np.flatnonzero(completion_times < bounds * (1.0 - RTOL))
    if early.size:
        j = int(early[0])
        errors.append(
            f"{algorithm}: coflow {j} completes at {completion_times[j]} before "
            f"its lower bound {bounds[j]} "
            f"({early.size} coflows early)"
        )
    return errors


def score(
    units: Sequence,
    instances: Sequence,
    bounds: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[float, List[str]]:
    """Check every successful unit of a run; return ``(wct_ratio, errors)``.

    *units* are :class:`workloads.UnitResult` records, *instances* fresh
    copies of the run's instances and *bounds* their :func:`lower_bounds`,
    both indexed by ``unit.instance_index``.  A
    slotted unit without its schedule's grid (a sweep report) is checked on
    the grid its ε resolves to: the LP's grid, which for ε = None has the
    same unit slots as the Stretch family's stretched grid.
    """
    from repro.api import get_algorithm
    from repro.core.timeindexed import resolve_grid

    log_ratios = []
    errors: List[str] = []
    for unit in units:
        if unit.failed:
            continue
        instance = instances[unit.instance_index]
        release, standalone = bounds[unit.instance_index]
        if unit.slotted:
            grid = unit.grid
            if grid is None:
                grid = resolve_grid(instance, epsilon=unit.epsilon)
            bound = slotted_bounds(grid, release, standalone)
        else:
            bound = release + standalone
        errors.extend(
            check_unit(
                unit.algorithm,
                unit.objective,
                unit.completion_times,
                instance.weights,
                bound,
                get_algorithm(unit.algorithm).objective_is_wct,
            )
        )
        denominator = float(np.dot(instance.weights, release + standalone))
        if unit.objective > 0 and denominator > 0:
            log_ratios.append(math.log(unit.objective / denominator))
    ratio = math.exp(sum(log_ratios) / len(log_ratios)) if log_ratios else math.nan
    return ratio, errors


def failure_signatures(units: Sequence) -> Dict[str, int]:
    """Count failed units by ``algorithm | eps=ε | error`` signature.

    The error's first two lines are kept (a feasibility error names the
    first violation on its second line), with the flow label (``flow
    TPC-H-2.f0 (NY->FL)``) and every number replaced by ``#``, so that one
    kind of violation on different flows, slots and times shares one count.
    """
    counts: Counter = Counter()
    for unit in units:
        if unit.failed:
            eps = "uniform" if unit.epsilon is None else f"{unit.epsilon:g}"
            lines = [line.strip() for line in unit.error.splitlines() if line.strip()]
            message = re.sub(r"flow \S+( \([^)]*\))?", "flow #", " ".join(lines[:2]))
            message = re.sub(r"\d+(\.\d+)?", "#", message)
            counts[f"{unit.algorithm} | eps={eps} | {message}"] += 1
    return dict(sorted(counts.items()))

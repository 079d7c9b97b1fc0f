"""Idle-slot compaction (the paper's Section 6.1 "Rounding" refinement).

The Stretch algorithm leaves slots empty once a flow's demand has been met
(see the third panel of the paper's Figure 5).  The paper's implementation
"deals with this issue by moving the schedule of every time slot t to an
earlier idle slot t' if for all flows scheduled at t, its release time is
before t'".  This module implements exactly that transformation, plus a
per-flow truncation helper shared with the Stretch algorithm.

Compaction never increases any coflow's completion time and preserves
feasibility because entire slots are moved verbatim into idle slots of at
least the same duration.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

import numpy as np

from repro.schedule.schedule import FRACTION_TOL, Schedule


def truncate_completed_flows(
    fractions: np.ndarray, tol: float = FRACTION_TOL
) -> np.ndarray:
    """Clamp each flow's cumulative fraction at 1, slot by slot.

    Given per-slot fractions that may sum to more than 1 (as produced by
    stretching an LP schedule), return fractions where transmission stops as
    soon as the cumulative total reaches 1 — step (4) of the Stretch
    algorithm ("once sigma units have been scheduled, leave the remaining
    slots empty").  Reducing per-slot volume can only relax capacity and
    conservation constraints, so feasibility is preserved.
    """
    fractions = np.asarray(fractions, dtype=float)
    cumulative = np.cumsum(fractions, axis=1)
    # Amount still allowed at the start of each slot.
    previous = np.concatenate(
        [np.zeros((fractions.shape[0], 1)), cumulative[:, :-1]], axis=1
    )
    allowed = np.clip(1.0 - previous, 0.0, None)
    truncated = np.minimum(fractions, allowed)
    return np.clip(truncated, 0.0, None)


def compact_schedule(
    schedule: Schedule,
    *,
    tol: float = FRACTION_TOL,
    respect_release_times: bool = True,
) -> Schedule:
    """Move whole slots earlier into idle slots when release times permit.

    The transformation scans slots left to right.  A slot *t* with any
    transmission is moved to the earliest idle slot *t'* < *t* such that

    * every flow transmitting in *t* has been released by the **start** of
      *t'* (slightly stricter than the LP's release rule, so the result is
      always feasible), and
    * slot *t'* is at least as long as slot *t* (automatically true on the
      uniform grids used by the main algorithm).

    Moving a whole slot keeps the per-slot multicommodity flow (or per-path
    loads) intact, so capacity and conservation constraints keep holding.

    Returns a new schedule; the input is unchanged.
    """
    result = schedule.copy()
    fractions = result.fractions
    edge_fractions = result.edge_fractions
    starts = result.grid.boundaries[:-1].tolist()
    durations = result.grid.durations.tolist()

    # A move writes only into an earlier slot and clears the slot it leaves,
    # so every busy slot still holds its original flows when the scan
    # reaches it: one mask taken up front decides them all.
    busy = fractions > tol
    active = busy.any(axis=0)
    busy_slots = np.flatnonzero(active).tolist()
    if respect_release_times:
        release = result.instance.flow_release_times()
        latest_release = np.where(busy[:, busy_slots], release[:, None], -np.inf).max(
            axis=0, initial=-np.inf
        ).tolist()
    # Sorted by index, so also by start.
    idle: List[int] = np.flatnonzero(~active).tolist()

    for i, t in enumerate(busy_slots):
        # The first idle slot that starts once every flow of slot t is out.
        first = (
            bisect.bisect_left(idle, latest_release[i] - 1e-12, key=starts.__getitem__)
            if respect_release_times
            else 0
        )
        target_pos: Optional[int] = None
        for pos in range(first, len(idle)):
            candidate = idle[pos]
            if candidate >= t:
                break
            if durations[candidate] + 1e-12 >= durations[t]:
                target_pos = pos
                break
        if target_pos is None:
            continue
        # Move the whole slot t into the idle slot `target`.
        target = idle.pop(target_pos)
        fractions[:, target] = fractions[:, t]
        fractions[:, t] = 0.0
        if edge_fractions is not None:
            edge_fractions[:, target, :] = edge_fractions[:, t, :]
            edge_fractions[:, t, :] = 0.0
        # Slot t becomes idle (and may be reused by an even later slot).
        bisect.insort(idle, t)

    result.metadata["compacted"] = True
    return result


def compaction_gain(
    before: Schedule, after: Schedule, tol: float = FRACTION_TOL
) -> float:
    """Relative reduction in weighted completion time achieved by compaction.

    Returns ``(before - after) / before``; 0.0 when the original objective is
    zero.
    """
    base = before.weighted_completion_time(tol)
    if base <= 0:
        return 0.0
    return float((base - after.weighted_completion_time(tol)) / base)

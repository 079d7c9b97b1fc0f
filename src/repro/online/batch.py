"""Online coflow scheduling via geometric batching (doubling framework).

The classical reduction from offline to online minimisation of weighted
completion time (Hall et al.; applied to coflows by Khuller et al., LATIN
2018 — reference [17] of the paper) works as follows:

* Time is divided into geometrically growing epochs ``[B^(k-1), B^k)``
  (``B = 2`` gives the classic doubling framework).
* When an epoch ends, all coflows released during it are handed to an
  *offline* scheduler as one batch, with release times reset to the batch
  start.
* A batch begins transmitting only when (a) its epoch has ended and (b) the
  previous batch has completely drained; batches therefore never overlap and
  every batch schedule remains feasible on its own.

If the offline scheduler is a ``rho``-approximation, the online algorithm is
``O(rho)``-competitive.  Here the offline scheduler is either the LP
heuristic (λ = 1) or the Stretch algorithm from :mod:`repro.core`, so the
resulting online scheduler inherits the paper's guarantees up to the
batching constant.

This module targets the *completion time* objective, as the paper notes that
online *flow time* is a much harder open problem.  The framework itself runs
as :class:`~repro.online.policies.GeometricBatchingPolicy` on the event
engine; this module holds what the policies share: the result types and
the epoch arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

# No repro.api import here: repro.api.__init__ imports
# repro.online.policies (which imports this module) to register the online
# algorithms, so pulling the api package in here would make the import
# order observable.
from repro.coflow.instance import CoflowInstance
from repro.schedule.timegrid import relative_tol

#: The offline algorithms the framework's guarantees are stated for.  Any
#: algorithm registered in :mod:`repro.api` (and supporting the instance's
#: transmission model) is accepted; delegating to a baseline yields an
#: online variant of that baseline instead of the paper's guarantee.
OFFLINE_ALGORITHMS = ("lp-heuristic", "stretch", "stretch-best")


@dataclass
class BatchRecord:
    """Bookkeeping for one scheduled batch (used in reports and tests)."""

    epoch_index: int
    epoch_end: float
    start_time: float
    makespan: float
    coflow_indices: List[int] = field(default_factory=list)
    offline_objective: float = 0.0
    #: LP lower bound of the batch sub-problem; ``None`` when the delegated
    #: offline algorithm solves no LP (e.g. a greedy baseline).
    lp_lower_bound: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON rendering (crosses the store / export boundary)."""
        return {
            "epoch_index": int(self.epoch_index),
            "epoch_end": float(self.epoch_end),
            "start_time": float(self.start_time),
            "makespan": float(self.makespan),
            "coflow_indices": [int(j) for j in self.coflow_indices],
            "offline_objective": float(self.offline_objective),
            "lp_lower_bound": (
                None if self.lp_lower_bound is None else float(self.lp_lower_bound)
            ),
        }


@dataclass
class OnlineScheduleResult:
    """Outcome of an online scheduling run.

    Completion times are reported in the original (global) time axis, so the
    weighted completion time is directly comparable with offline schedules
    of the same instance.
    """

    instance: CoflowInstance
    algorithm: str
    coflow_completion_times: np.ndarray
    batches: List[BatchRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def weighted_completion_time(self) -> float:
        return float(np.dot(self.instance.weights, self.coflow_completion_times))

    @property
    def total_completion_time(self) -> float:
        return float(self.coflow_completion_times.sum())

    @property
    def makespan(self) -> float:
        return float(self.coflow_completion_times.max(initial=0.0))

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    def competitive_ratio(self, offline_objective: float) -> float:
        """Ratio of the online objective to a given offline objective/bound."""
        if offline_objective <= 0:
            return float("inf")
        return self.weighted_completion_time / offline_objective


def _boundary_tol(magnitude: float) -> float:
    """Relative epoch-boundary tolerance — the shared ``TimeGrid`` discipline."""
    return relative_tol(magnitude, 1e-12)


def _epoch_index(release_time: float, base: float) -> int:
    """Index of the geometric epoch ``[base^(k-1), base^k)`` containing *release_time*.

    Epoch 0 is ``[0, 1)`` so that jobs released at time zero are scheduled
    after one unit of waiting at most.

    Computed from ``log(release)/log(base)`` but corrected with a relative
    boundary tolerance: the log ratio of a release *exactly at* ``base**k``
    can round just below the integer (e.g. ``log(1000)/log(10) =
    2.9999999999999996``), which would land the coflow in the epoch
    *ending* at its release instead of the one starting there.
    """
    if release_time < 0.5:  # comfortably inside epoch 0 (log(0) is -inf)
        return 0
    k = int(np.floor(np.log(release_time) / np.log(base)))
    tol = _boundary_tol(release_time)
    # Release at (or within tolerance of) the upper boundary base**(k+1):
    # the log ratio rounded below the integer — it belongs to the epoch
    # starting there.
    while base ** (k + 1) <= release_time + tol:
        k += 1
    # Symmetric guard: the ratio rounded up past the integer (release just
    # below base**k reported as epoch k + 1).
    while base**k > release_time + tol:
        k -= 1
    # Sub-1 releases collapse into epoch 0 regardless of how negative the
    # log ratio was (epoch 0 covers all of [0, 1)).
    return max(k + 1, 0)

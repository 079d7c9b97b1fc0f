"""The unified result type of the solver API.

Every algorithm reachable through :mod:`repro.api` — the paper's LP-based
algorithms *and* the four comparison baselines — returns a
:class:`SolveReport`: the objective, per-coflow completion times, the LP
lower bound and gap when an LP was solved, the slot schedule and
feasibility report when one exists, plus free-form extras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.coflow.instance import CoflowInstance
from repro.core.timeindexed import CoflowLPSolution
from repro.schedule.feasibility import FeasibilityReport
from repro.schedule.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.baselines.result import BaselineResult


@dataclass
class SolveReport:
    """Outcome of solving one instance with one algorithm.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm that produced this report.
    instance:
        The instance that was solved.
    objective:
        The value the algorithm reports for the paper's objective
        ``sum_j w_j C_j`` (for ``stretch-average`` this is the mean over the
        λ draws; ``coflow_completion_times`` then describe the best draw).
    coflow_completion_times:
        Completion time of every coflow, shape ``(num_coflows,)``.
    lower_bound:
        LP lower bound on the optimum, when an LP was solved (else ``None``).
        The uniform-grid LP bounds *slot-aligned* schedules, so
        continuous-time baselines (terra, fifo, …) can legitimately beat it
        at coarse slot granularity — a :attr:`gap` below 1 for those
        algorithms signals slot quantisation, not an error.
    lp_solution:
        The LP solution backing the lower bound, when available.
    schedule:
        The slotted schedule, for algorithms that produce one (core
        algorithms and Jahanjou); continuous-time baselines leave it ``None``.
    feasibility:
        Feasibility report of *schedule*, when one was checked.
    solve_seconds:
        Wall-clock time spent inside the algorithm (including LP solves it
        triggered itself, excluding a shared LP solution passed in).
        ``None`` means *not measured yet* — :func:`repro.api.solve` fills it
        in for any report whose algorithm did not time itself.  A measured
        ``0.0`` (possible under coarse clocks) is a legitimate value and is
        never overwritten.
    extras:
        Algorithm-specific data (sampled λ, orderings, evaluations, …).
    """

    algorithm: str
    instance: CoflowInstance
    objective: float
    coflow_completion_times: np.ndarray
    lower_bound: Optional[float] = None
    lp_solution: Optional[CoflowLPSolution] = None
    schedule: Optional[Schedule] = None
    feasibility: Optional[FeasibilityReport] = None
    solve_seconds: Optional[float] = None
    extras: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.coflow_completion_times, dtype=float)
        if times.shape != (self.instance.num_coflows,):
            raise ValueError(
                "coflow_completion_times must have one entry per coflow "
                f"({self.instance.num_coflows}), got shape {times.shape}"
            )
        self.coflow_completion_times = times

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    @property
    def weighted_completion_time(self) -> float:
        """``sum_j w_j C_j`` of the reported completion times."""
        return float(
            np.dot(self.instance.weights, self.coflow_completion_times)
        )

    @property
    def total_completion_time(self) -> float:
        """Unweighted sum of completion times (Figs. 11–12 metric)."""
        return float(self.coflow_completion_times.sum())

    @property
    def makespan(self) -> float:
        return float(self.coflow_completion_times.max(initial=0.0))

    @property
    def gap(self) -> float:
        """Objective divided by the LP lower bound (``inf`` without one).

        For continuous-time baselines the slotted LP is a *reference* bound
        (the paper's comparison metric), not a hard floor — see
        :attr:`lower_bound`; values below 1 are possible there.
        """
        if self.lower_bound is None or self.lower_bound <= 0:
            return float("inf")
        return self.objective / self.lower_bound

    def competitive_ratio(self, offline_objective: float) -> float:
        """Objective divided by a clairvoyant offline objective or bound.

        The online-scheduling metric: how much an ``online-*`` algorithm
        pays for not knowing future arrivals.  Returns ``inf`` for a
        non-positive reference.
        """
        if offline_objective <= 0:
            return float("inf")
        return self.objective / offline_objective

    @property
    def is_feasible(self) -> bool:
        """Whether the result passed (or needs no) schedule feasibility check.

        Schedule-producing algorithms carry an explicit
        :class:`FeasibilityReport`; continuous-time baselines are feasible by
        construction (the simulator enforces capacities), so for them this
        only sanity-checks the completion times.
        """
        if self.feasibility is not None:
            return self.feasibility.is_feasible
        times = self.coflow_completion_times
        return bool(np.all(np.isfinite(times)) and np.all(times >= 0.0))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_baseline(
        cls,
        result: "BaselineResult",
        *,
        lower_bound: Optional[float] = None,
        lp_solution: Optional[CoflowLPSolution] = None,
        solve_seconds: Optional[float] = None,
    ) -> "SolveReport":
        """Wrap the :class:`BaselineResult` a comparison baseline returns;
        its ``metadata`` becomes the report's ``extras``."""
        return cls(
            algorithm=result.algorithm,
            instance=result.instance,
            objective=result.weighted_completion_time,
            coflow_completion_times=result.coflow_completion_times,
            lower_bound=lower_bound,
            lp_solution=lp_solution,
            schedule=result.schedule,
            solve_seconds=solve_seconds,
            extras=dict(result.metadata),
        )

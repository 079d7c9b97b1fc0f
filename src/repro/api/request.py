"""The input object of the unified solver API.

:class:`SolverConfig` gathers every solver knob (time grid, ε, λ-sampling,
LP solver method, randomness, verification) into one immutable value
object, and :meth:`SolverConfig.lp_kwargs` is the one place that says which
time-indexed LP a config asks for.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.stretch import DEFAULT_NUM_SAMPLES
from repro.schedule.timegrid import TimeGrid
from repro.utils.rng import RandomSource, as_generator


@dataclass(frozen=True)
class SolverConfig:
    """Every tuning knob of the solver stack, in one place.

    Attributes
    ----------
    grid:
        Explicit time grid; overrides *num_slots*, *slot_length*, *epsilon*.
    num_slots, slot_length:
        Uniform-grid specification (defaults to an automatically suggested
        horizon of unit slots).
    epsilon:
        Geometric-interval grid parameter (Appendix A).  Algorithms that
        build their own interval LP (Jahanjou et al.) read it too.
    rng:
        Random source for the λ-sampling algorithms (``None``, an int seed,
        or a :class:`numpy.random.Generator`).
    solver_method:
        :func:`scipy.optimize.linprog` method name for every LP solve
        (``"highs"`` default).  The HiGHS methods run on scipy's HiGHS
        directly, with ``linprog``'s options and result; any other name
        goes to ``linprog``, which rejects an unknown one.
    num_samples:
        Number of λ draws for ``stretch-best`` / ``stretch-average``.
    compact:
        Whether produced slot schedules are compacted (Section 6.2).
    verify:
        Whether produced schedules are feasibility-checked.
    """

    grid: Optional[TimeGrid] = None
    num_slots: Optional[int] = None
    slot_length: float = 1.0
    epsilon: Optional[float] = None
    rng: RandomSource = None
    solver_method: str = "highs"
    num_samples: int = DEFAULT_NUM_SAMPLES
    compact: bool = True
    verify: bool = True

    def replace(self, **changes: object) -> "SolverConfig":
        """A copy of this config with the given fields overridden."""
        return dataclasses.replace(self, **changes)

    def lp_kwargs(self) -> Dict[str, object]:
        """The :func:`~repro.core.timeindexed.solve_time_indexed_lp` arguments
        this config implies.

        The only hand-written mapping from config to LP: every caller that
        solves or shares a time-indexed LP, and the store fingerprint, build
        on it, so a new LP field cannot be dropped by one of them.
        """
        return {
            "grid": self.grid,
            "num_slots": self.num_slots,
            "slot_length": self.slot_length,
            "epsilon": self.epsilon,
            "solver_method": self.solver_method,
        }

    def make_rng(self) -> np.random.Generator:
        """The configured random source as a generator."""
        return as_generator(self.rng)

    def spawn_rngs(self, count: int) -> list:
        """*count* independent child generators, derived deterministically.

        Used by the batch runner so that the i-th instance sees the same
        random stream whether the batch runs serially or across processes.
        """
        if count <= 0:
            return []
        return as_generator(self.rng).spawn(count)


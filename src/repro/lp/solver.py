"""Program-level LP solving: error policy and result shaping.

The paper used Gurobi; HiGHS (bundled with scipy) solves the exact same LPs
to optimality, just more slowly.  :func:`solve_lp` reduces a program to an
:class:`~repro.lp.backends.base.LPSpec` and solves it once, cold, through
:func:`~repro.lp.backends.linprog.solve_spec`; this module owns the
``require_optimal`` contract, never a solver engine.

Every solve is a fresh HiGHS run.  Solution reuse happens one level up,
where the paper's own evaluation reuses it: one time-indexed LP per instance
is handed to every rounding of it through
:func:`repro.core.scheduler.lp_solution_for`.  The only warm-started solves
in the repository are the simulator's per-event max-concurrent-flow LPs,
which a :class:`~repro.lp.backends.highs.HighsEngine` restarts from the
basis each program kept from its previous solve.
"""

from __future__ import annotations

from repro.lp.backends.base import DEFAULT_METHOD, LPSpec
from repro.lp.backends.linprog import solve_spec
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult


class LPSolverError(RuntimeError):
    """Raised when an LP cannot be solved to optimality and the caller required it."""


def solve_lp(
    program: LinearProgram,
    *,
    method: str = DEFAULT_METHOD,
    require_optimal: bool = False,
) -> LPResult:
    """Solve *program* and return an :class:`~repro.lp.result.LPResult`.

    Parameters
    ----------
    program:
        The assembled linear program.
    method:
        Any method accepted by :func:`scipy.optimize.linprog`; defaults to
        HiGHS.
    require_optimal:
        When true, raise :class:`LPSolverError` unless the status is optimal.
    """
    result = solve_spec(LPSpec.from_program(program), method=method)
    result.metadata = program.size_summary()
    if require_optimal and not result.is_optimal:
        raise LPSolverError(
            f"LP {program.name!r} failed to solve: {result.status.value} "
            f"({result.message})"
        )
    return result

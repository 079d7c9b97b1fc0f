"""Linear-programming substrate.

The paper solves large time-indexed LPs with Gurobi.  This package provides
the offline equivalent: a small modelling layer
(:class:`~repro.lp.model.LinearProgram`) that assembles objective and
constraints into sparse (CSR) matrices, and a solver wrapper
(:func:`~repro.lp.solver.solve_lp`) that solves each program cold on
scipy's bundled HiGHS, loaded directly with the options
:func:`scipy.optimize.linprog` would set (``linprog`` itself is the
fallback; :mod:`repro.lp.backends`).  The LPs are identical to the
paper's; only the solver engine differs.
"""

from repro.lp.model import ConstraintSense, LinearProgram, VariableBlock
from repro.lp.result import LPResult, LPStatus
from repro.lp.solver import LPSolverError, solve_lp

__all__ = [
    "LinearProgram",
    "VariableBlock",
    "ConstraintSense",
    "LPResult",
    "LPStatus",
    "solve_lp",
    "LPSolverError",
]

"""One-shot LP solves through :func:`scipy.optimize.linprog` (HiGHS).

This module is one of the two sanctioned homes of a direct solver-engine
import (lint rule R010).  :func:`repro.lp.solver.solve_lp` solves every
assembled program through :func:`solve_spec`, and the simulator falls back
to it when the resident HiGHS API of :mod:`repro.lp.backends.highs` is
unavailable.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

from repro.lp.backends.base import DEFAULT_METHOD, LPSpec
from repro.lp.result import LPResult, LPStatus


def solve_spec(spec: LPSpec, *, method: str = DEFAULT_METHOD) -> LPResult:
    """Solve *spec* once, cold, and report the outcome as an :class:`LPResult`.

    A non-optimal outcome is reported in the result's status, not raised;
    its ``x`` is empty and its objective ``nan``.
    """
    bounds = np.column_stack([spec.col_lower, spec.col_upper])
    start = time.perf_counter()
    scipy_result = linprog(
        spec.c,
        A_ub=spec.a_ub,
        b_ub=spec.b_ub,
        A_eq=spec.a_eq,
        b_eq=spec.b_eq,
        bounds=bounds,
        method=method,
    )
    elapsed = time.perf_counter() - start

    status = LPStatus.from_scipy(scipy_result.status)
    optimal = status is LPStatus.OPTIMAL
    iterations = getattr(scipy_result, "nit", None)
    return LPResult(
        status=status,
        objective=float(scipy_result.fun) if optimal else float("nan"),
        x=np.asarray(scipy_result.x, dtype=float) if optimal else np.empty(0),
        solve_seconds=elapsed,
        message=str(scipy_result.message),
        simplex_iterations=None if iterations is None else int(iterations),
    )

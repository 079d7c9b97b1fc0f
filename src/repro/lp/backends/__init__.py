"""The solver-engine layer: the only code that imports HiGHS or ``linprog``.

Public surface:

* :class:`LPSpec` — the solver-agnostic standard form of an assembled
  program;
* :func:`solve_spec` — one cold :func:`scipy.optimize.linprog` solve of a
  spec, reported as an :class:`~repro.lp.result.LPResult` (every
  time-indexed LP goes through it via :func:`repro.lp.solver.solve_lp`);
* :class:`PersistentHighsLP` / :func:`make_persistent_lp` — resident HiGHS
  models for the simulator's delta re-solves, ``None`` when scipy's
  in-process HiGHS API is unavailable.

Lint rule R010 (``no-direct-linprog``) confines solver-engine imports to
this package.
"""

from __future__ import annotations

from repro.lp.backends.base import DEFAULT_METHOD, LPSpec
from repro.lp.backends.highs import (
    HIGHS_AVAILABLE,
    PersistentHighsError,
    PersistentHighsLP,
    make_persistent_lp,
)
from repro.lp.backends.linprog import solve_spec

__all__ = [
    "DEFAULT_METHOD",
    "HIGHS_AVAILABLE",
    "LPSpec",
    "PersistentHighsError",
    "PersistentHighsLP",
    "make_persistent_lp",
    "solve_spec",
]

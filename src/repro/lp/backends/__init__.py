"""The solver-engine layer: the only code that imports HiGHS or ``linprog``.

Public surface:

* :class:`LPSpec` — the solver-agnostic standard form of an assembled
  program;
* :func:`solve_cold` — one cold solve of a spec on a fresh HiGHS
  instance, loaded by pointer with the options ``linprog`` would set, and
  reported as an :class:`~repro.lp.result.LPResult` (every time-indexed LP
  goes through it via :func:`repro.lp.solver.solve_lp`);
* :func:`solve_spec` — the same solve through
  :func:`scipy.optimize.linprog`, bit for bit, only slower: the fallback
  when scipy's in-process HiGHS API is unavailable or the method is not a
  HiGHS one;
* :class:`HighsEngine` / :func:`make_highs_engine` — one HiGHS instance
  that solves the simulator's programs in turn, each from the basis its
  caller kept; ``None`` when scipy's in-process HiGHS API is unavailable.

Lint rule R010 (``no-direct-linprog``) confines solver-engine imports to
this package.
"""

from __future__ import annotations

from repro.lp.backends.base import DEFAULT_METHOD, LPSpec
from repro.lp.backends.highs import (
    HIGHS_AVAILABLE,
    HighsEngine,
    HighsEngineError,
    make_highs_engine,
    solve_cold,
)
from repro.lp.backends.linprog import solve_spec

__all__ = [
    "DEFAULT_METHOD",
    "HIGHS_AVAILABLE",
    "HighsEngine",
    "HighsEngineError",
    "LPSpec",
    "make_highs_engine",
    "solve_cold",
    "solve_spec",
]

"""Resident HiGHS models: warm-started re-solves through scipy's private API.

scipy bundles the HiGHS solver (``scipy.optimize._highspy``) but its public
:func:`scipy.optimize.linprog` wrapper rebuilds the model, re-validates every
input and re-parses the option dict on every call — measured at ~85% of the
wall time for the small per-event LPs the continuous-time simulator solves.

:class:`PersistentHighsLP` keeps one HiGHS model resident across solves: the
simulator applies coefficient / row-bound deltas via
:meth:`~PersistentHighsLP.change_coeff` /
:meth:`~PersistentHighsLP.change_row_bounds` and re-runs, and HiGHS restarts
the dual simplex from the previous optimal basis.

This intentionally leans on a private scipy module; everything degrades
gracefully.  When the import fails (``HIGHS_AVAILABLE`` is False) callers
fall back to :func:`~repro.lp.backends.linprog.solve_spec`, which produces
the same optima, only slower.  This module is one of the two sanctioned
homes of a direct solver-engine import (lint rule R010).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

try:  # pragma: no cover - exercised implicitly by the import succeeding
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None

#: Whether the in-process HiGHS API is importable in this environment.
HIGHS_AVAILABLE = _highs_core is not None


class PersistentHighsError(RuntimeError):
    """Raised when a persistent HiGHS solve does not reach optimality."""


class PersistentHighsLP:
    """One HiGHS model held resident for repeated, warm-started solves.

    Parameters
    ----------
    c:
        Objective coefficients (minimisation), length ``n``.
    matrix:
        Constraint matrix (any scipy sparse format), shape ``(m, n)``.
        Coefficients that will later be rewritten via :meth:`change_coeff`
        must be *nonzero* in this initial matrix (HiGHS drops explicit
        zeros on model load).
    row_lower, row_upper:
        Row activity bounds (``np.inf`` / ``-np.inf`` for one-sided rows).
    col_lower, col_upper:
        Variable bounds.
    presolve:
        Whether HiGHS may presolve.  A model re-solved after small deltas
        should turn it off, so that every run restarts the simplex from the
        previous basis instead of presolving the changed model afresh.

    Raises
    ------
    RuntimeError
        If ``HIGHS_AVAILABLE`` is false.
    """

    def __init__(
        self,
        c: np.ndarray,
        matrix: sparse.spmatrix,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        *,
        presolve: bool = True,
    ) -> None:
        if not HIGHS_AVAILABLE:  # pragma: no cover - guarded by callers
            raise RuntimeError("scipy's bundled HiGHS API is not importable")
        csc = sparse.csc_matrix(matrix)
        csc.sum_duplicates()
        num_rows, num_cols = csc.shape

        lp = _highs_core.HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_rows
        lp.a_matrix_.num_col_ = num_cols
        lp.a_matrix_.num_row_ = num_rows
        lp.a_matrix_.format_ = _highs_core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = csc.indptr.astype(np.int64)
        lp.a_matrix_.index_ = csc.indices.astype(np.int64)
        lp.a_matrix_.value_ = csc.data.astype(float)
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = np.asarray(col_lower, dtype=float)
        lp.col_upper_ = np.asarray(col_upper, dtype=float)
        lp.row_lower_ = np.asarray(row_lower, dtype=float)
        lp.row_upper_ = np.asarray(row_upper, dtype=float)

        self._highs = _highs_core._Highs()
        self._highs.setOptionValue("output_flag", False)
        if not presolve:
            self._highs.setOptionValue("presolve", "off")
        status = self._highs.passModel(lp)
        if status == _highs_core.HighsStatus.kError:  # pragma: no cover
            raise PersistentHighsError("HiGHS rejected the model")
        self.solves = 0

    def change_coeff(self, row: int, col: int, value: float) -> None:
        """Overwrite one (existing) matrix coefficient."""
        self._highs.changeCoeff(int(row), int(col), float(value))

    def change_row_bounds(self, row: int, lower: float, upper: float) -> None:
        """Overwrite the activity bounds of one row."""
        self._highs.changeRowBounds(int(row), float(lower), float(upper))

    def solve(self) -> np.ndarray:
        """Re-run the solver (warm-started) and return the primal solution.

        Raises
        ------
        PersistentHighsError
            If the model status after the run is not optimal.
        """
        self._highs.run()
        self.solves += 1
        status = self._highs.getModelStatus()
        if status != _highs_core.HighsModelStatus.kOptimal:
            raise PersistentHighsError(
                "persistent HiGHS solve failed: "
                f"{self._highs.modelStatusToString(status)}"
            )
        return np.asarray(self._highs.getSolution().col_value, dtype=float)

    @property
    def presolve(self) -> str:
        """The model's HiGHS ``presolve`` option (``"choose"`` or ``"off"``)."""
        return str(self._highs.getOptionValue("presolve")[1])


def make_persistent_lp(
    c: np.ndarray,
    matrix: sparse.spmatrix,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    *,
    presolve: bool = True,
) -> Optional[PersistentHighsLP]:
    """Build a :class:`PersistentHighsLP`, or ``None`` when unavailable."""
    if not HIGHS_AVAILABLE:
        return None
    return PersistentHighsLP(
        c, matrix, row_lower, row_upper, col_lower, col_upper, presolve=presolve
    )

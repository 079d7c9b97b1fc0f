"""Resident HiGHS models: warm-started solves through scipy's private API.

scipy bundles the HiGHS solver (``scipy.optimize._highspy``) but its public
:func:`scipy.optimize.linprog` wrapper rebuilds the model, re-validates every
input and re-parses the option dict on every call — measured at ~85% of the
wall time for the small per-event LPs the continuous-time simulator solves.

:class:`PersistentHighsLP` keeps one HiGHS model resident across solves.
Two distinct warm-start mechanisms are exposed:

* **delta re-solve** (the simulator's pattern): apply coefficient / row-bound
  deltas via :meth:`~PersistentHighsLP.change_coeff` /
  :meth:`~PersistentHighsLP.change_row_bounds` and re-run; HiGHS restarts the
  dual simplex from the previous optimal basis.
* **primal seeding** (the staged solve pipeline's pattern): feed a mapped
  coarse-grid solution via :meth:`~PersistentHighsLP.set_solution` before the
  first run; HiGHS crosses over from the seed instead of solving cold.

Basis snapshot/restore (:meth:`~PersistentHighsLP.basis_snapshot` /
:meth:`~PersistentHighsLP.restore_basis`) and row-dual extraction
(:attr:`~PersistentHighsLP.row_duals`) round out what dual-guided slot
coarsening needs.

This intentionally leans on a private scipy module; everything degrades
gracefully.  When the import fails (``HIGHS_AVAILABLE`` is False) callers
fall back to :class:`~repro.lp.backends.linprog.LinprogBackend`, which
produces the same optima, only slower.  This module is one of the two
sanctioned homes of a direct solver-engine import (lint rule R010).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.lp.backends.base import BackendSolution, LPSpec
from repro.lp.result import LPStatus

try:  # pragma: no cover - exercised implicitly by the import succeeding
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None

#: Whether the in-process HiGHS API is importable in this environment.
HIGHS_AVAILABLE = _highs_core is not None


class PersistentHighsError(RuntimeError):
    """Raised when a persistent HiGHS solve does not reach optimality."""


@dataclass(frozen=True)
class BasisSnapshot:
    """A frozen simplex basis (column + row statuses) of a resident model."""

    col_status: Tuple[int, ...]
    row_status: Tuple[int, ...]


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
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.solves = 0

    def change_coeff(self, row: int, col: int, value: float) -> None:
        """Overwrite one (existing) matrix coefficient."""
        self._highs.changeCoeff(int(row), int(col), float(value))

    def change_row_bounds(self, row: int, lower: float, upper: float) -> None:
        """Overwrite the activity bounds of one row."""
        self._highs.changeRowBounds(int(row), float(lower), float(upper))

    def set_solution(self, col_values: np.ndarray) -> None:
        """Seed the next run with a primal point (crossover warm start).

        The point need not be feasible or basic; HiGHS repairs it during
        crossover.  Used by progressive refinement to seed the fine-grid
        solve with a coarse-grid solution mapped through
        :meth:`~repro.schedule.timegrid.TimeGrid.refine_map`.
        """
        values = np.ascontiguousarray(col_values, dtype=float)
        if values.size != self.num_cols:
            raise ValueError(
                f"warm-start point has {values.size} values, "
                f"model has {self.num_cols} columns"
            )
        solution = _highs_core.HighsSolution()
        solution.col_value = values
        self._highs.setSolution(solution)

    def basis_snapshot(self) -> BasisSnapshot:
        """The current simplex basis, frozen for later :meth:`restore_basis`."""
        basis = self._highs.getBasis()
        return BasisSnapshot(
            col_status=tuple(int(s) for s in basis.col_status),
            row_status=tuple(int(s) for s in basis.row_status),
        )

    def restore_basis(self, snapshot: BasisSnapshot) -> None:
        """Reinstall a basis captured by :meth:`basis_snapshot`."""
        if len(snapshot.col_status) != self.num_cols or len(
            snapshot.row_status
        ) != self.num_rows:
            raise ValueError("basis snapshot does not match model dimensions")
        basis = _highs_core.HighsBasis()
        basis.col_status = [
            _highs_core.HighsBasisStatus(s) for s in snapshot.col_status
        ]
        basis.row_status = [
            _highs_core.HighsBasisStatus(s) for s in snapshot.row_status
        ]
        self._highs.setBasis(basis)

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

    @property
    def objective(self) -> float:
        """Objective value of the most recent run."""
        return float(self._highs.getInfo().objective_function_value)

    @property
    def row_duals(self) -> np.ndarray:
        """Row duals of the most recent run (for dual-guided coarsening)."""
        return np.asarray(self._highs.getSolution().row_dual, dtype=float)

    @property
    def simplex_iterations(self) -> int:
        """Simplex iterations of the most recent run (warm-start telemetry)."""
        return int(self._highs.getInfo().simplex_iteration_count)


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


def _model_status_to_lp_status(status) -> LPStatus:
    if status == _highs_core.HighsModelStatus.kOptimal:
        return LPStatus.OPTIMAL
    if status == _highs_core.HighsModelStatus.kInfeasible:
        return LPStatus.INFEASIBLE
    if status in (
        _highs_core.HighsModelStatus.kUnbounded,
        _highs_core.HighsModelStatus.kUnboundedOrInfeasible,
    ):
        return LPStatus.UNBOUNDED
    if status in (
        _highs_core.HighsModelStatus.kIterationLimit,
        _highs_core.HighsModelStatus.kTimeLimit,
    ):
        return LPStatus.ITERATION_LIMIT
    return LPStatus.NUMERICAL_ERROR


class PersistentHighsBackend:
    """One-shot :class:`LPSpec` solves on a fresh resident HiGHS model.

    Unlike the raw :class:`PersistentHighsLP` (which raises on non-optimal
    states for the simulator's tight inner loop), this backend reports the
    terminal status in the returned :class:`BackendSolution` — the staged
    solve pipeline decides how to react.

    Raises
    ------
    RuntimeError
        On construction when ``HIGHS_AVAILABLE`` is false; use
        :func:`repro.lp.backends.get_backend` for automatic fallback.
    """

    name = "persistent-highs"
    supports_warm_start = True
    supports_duals = True

    def __init__(self) -> None:
        if not HIGHS_AVAILABLE:
            raise RuntimeError("scipy's bundled HiGHS API is not importable")

    def solve(
        self,
        spec: LPSpec,
        *,
        presolve: bool = True,
        time_limit: Optional[float] = None,
        warm_primal: Optional[np.ndarray] = None,
    ) -> BackendSolution:
        matrix, row_lower, row_upper = spec.combined()
        start = time.perf_counter()
        # Presolve would discard the seeded point, defeating the warm start.
        model = PersistentHighsLP(
            spec.c,
            matrix,
            row_lower,
            row_upper,
            spec.col_lower,
            spec.col_upper,
            presolve=presolve and warm_primal is None,
        )
        if warm_primal is not None:
            model.set_solution(warm_primal)
        if time_limit is not None:
            model._highs.setOptionValue("time_limit", float(time_limit))
        model._highs.run()
        elapsed = time.perf_counter() - start

        raw_status = model._highs.getModelStatus()
        status = _model_status_to_lp_status(raw_status)
        if status is LPStatus.OPTIMAL:
            x = np.asarray(model._highs.getSolution().col_value, dtype=float)
            objective = model.objective
            duals = model.row_duals
            ub_duals = duals[: spec.num_ub_rows]
            eq_duals = duals[spec.num_ub_rows :]
        else:
            x = np.empty(0)
            objective = float("nan")
            ub_duals = None
            eq_duals = None

        return BackendSolution(
            status=status,
            objective=objective,
            x=x,
            solve_seconds=elapsed,
            message=model._highs.modelStatusToString(raw_status),
            backend=self.name,
            simplex_iterations=model.simplex_iterations,
            ub_duals=ub_duals,
            eq_duals=eq_duals,
        )

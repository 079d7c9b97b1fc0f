"""Direct solves on scipy's bundled HiGHS (``scipy.optimize._highspy``).

:func:`scipy.optimize.linprog` copies the model into HiGHS element by
element, validates every option, and reads back duals, row values and
per-column bound marginals (a Python loop over the columns) that the
repository never uses.  On the time-indexed LPs (a few thousand columns)
that wrapper is about a quarter of every solve; on the simulator's
per-event LPs it was ~85% of the wall time.  This module loads
compressed-column programs into HiGHS by pointer instead, in two ways:

* :func:`solve_cold` solves one :class:`~repro.lp.backends.base.LPSpec`
  on a fresh HiGHS instance with the options ``linprog`` sets for the same
  method, so it returns the same status, iteration count, objective and
  ``x`` as :func:`~repro.lp.backends.linprog.solve_spec`, bit for bit.
  :func:`repro.lp.solver.solve_lp` solves every assembled program through
  it.
* :class:`HighsEngine` holds one HiGHS instance with presolve off.  Each
  :meth:`~HighsEngine.solve` loads a whole program, restores the basis the
  caller kept from that program's previous solve, and restarts the dual
  simplex from it; the caller keeps the returned basis for its next solve.
  So many programs share one engine's workspace and still warm-start, and
  a program between solves costs only its arrays and its basis.

This intentionally leans on a private scipy module; everything degrades
gracefully.  When the import fails or lacks a call either path makes
(``HIGHS_AVAILABLE`` is False), ``solve_lp`` and the simulator fall back to
:func:`~repro.lp.backends.linprog.solve_spec`, which produces the same
optima, only slower.  This module is one of the two sanctioned homes of a
direct solver-engine import (lint rule R010).
"""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.lp.backends.base import DEFAULT_METHOD, LPSpec
from repro.lp.result import LPResult, LPStatus

try:  # pragma: no cover - exercised implicitly by the import succeeding
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None

#: HiGHS's ``MatrixFormat.kColwise``, ``ObjSense.kMinimize`` and
#: ``SimplexStrategy.kSimplexStrategyDual`` (C API values).
_COLWISE = 1
_MINIMIZE = 1
_DUAL_SIMPLEX = 1

#: The HiGHS methods of :func:`scipy.optimize.linprog` and the ``solver``
#: option each one sets (``None``: left at HiGHS's own choice).
HIGHS_METHODS = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}

#: scipy's HiGHS model-status table, as :class:`LPStatus`; every other model
#: status is a numerical error there too.
_LP_STATUS = {
    "kOptimal": LPStatus.OPTIMAL,
    "kTimeLimit": LPStatus.ITERATION_LIMIT,
    "kIterationLimit": LPStatus.ITERATION_LIMIT,
    "kInfeasible": LPStatus.INFEASIBLE,
    "kModelError": LPStatus.INFEASIBLE,
    "kUnbounded": LPStatus.UNBOUNDED,
}


def _pass_model(
    highs: Any,
    c: np.ndarray,
    start: np.ndarray,
    index: np.ndarray,
    value: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    integrality: np.ndarray,
) -> bool:
    """Load ``min c @ x, row_lower <= A @ x <= row_upper, col_lower <= x <=
    col_upper`` into *highs* through the pointer overload of ``passModel``:
    the arrays are read in place, not copied element by element.

    ``A`` is in compressed-column form (*start*, *index* as ``int32``,
    *value*).  *integrality* holds one ``int32`` marker per column; zeros
    (continuous) keep the program an LP.  Returns whether HiGHS accepted
    the model.

    Raises
    ------
    ValueError
        If the array lengths disagree: HiGHS reads as many entries as the
        column, row and nonzero counts say.
    """
    lengths = (
        col_lower.size,
        col_upper.size,
        integrality.size,
        start.size - 1,
        row_upper.size,
        index.size,
    )
    if lengths != (c.size,) * 4 + (row_lower.size, value.size):
        raise ValueError(f"program array lengths disagree: {lengths}")
    status = highs.passModel(
        c.size,
        row_lower.size,
        value.size,
        _COLWISE,
        _MINIMIZE,
        0.0,
        c,
        col_lower,
        col_upper,
        row_lower,
        row_upper,
        start,
        index,
        value,
        integrality,
    )
    return status != _highs_core.HighsStatus.kError


class HighsEngineError(RuntimeError):
    """Raised when a HiGHS engine solve does not reach optimality."""


class HighsEngine:
    """One HiGHS instance, presolve off, that solves programs in turn.

    Build one through :func:`make_highs_engine`, which returns ``None`` when
    the in-process API is unavailable.
    """

    def __init__(self) -> None:
        self._highs = _highs_core._Highs()
        self._highs.setOptionValue("output_flag", False)
        # Presolve would rebuild the program and discard the restored basis.
        self._highs.setOptionValue("presolve", "off")
        # The pointer overload of passModel reads one integrality marker per
        # column; zeros (continuous) keep the program an LP.  Grown to the
        # widest program so far.
        self._continuous = np.zeros(0, dtype=np.int32)
        self.solves = 0

    def solve(
        self,
        c: np.ndarray,
        start: np.ndarray,
        index: np.ndarray,
        value: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        basis: Optional[Any] = None,
    ) -> Tuple[np.ndarray, Any]:
        """Minimise ``c @ x`` subject to ``row_lower <= A @ x <= row_upper``
        and ``col_lower <= x <= col_upper``, from *basis*.

        ``A`` is given in compressed-column form: *start* (``int32``, one
        entry per column plus the end), *index* (``int32`` row indices) and
        *value*.  The arrays are passed to HiGHS by pointer, not copied
        element by element.  *basis* is the opaque basis an earlier solve of
        a program of the same shape returned, or ``None`` for a cold start
        from the slack basis.

        Returns ``(x, basis)``: the primal solution and the optimal basis to
        pass to the next solve of this program.

        Raises
        ------
        HighsEngineError
            If the model status after the run is not optimal.
        """
        num_cols = c.size
        if self._continuous.size < num_cols:
            self._continuous = np.zeros(num_cols, dtype=np.int32)
        highs = self._highs
        if not _pass_model(
            highs,
            c,
            start,
            index,
            value,
            row_lower,
            row_upper,
            col_lower,
            col_upper,
            self._continuous[:num_cols],
        ):  # pragma: no cover
            raise HighsEngineError("HiGHS rejected the model")
        if basis is not None:
            highs.setBasis(basis)
        highs.run()
        self.solves += 1
        status = highs.getModelStatus()
        if status != _highs_core.HighsModelStatus.kOptimal:
            raise HighsEngineError(
                f"HiGHS solve failed: {highs.modelStatusToString(status)}"
            )
        return np.asarray(highs.getSolution().col_value, dtype=float), highs.getBasis()


def solve_cold(spec: LPSpec, *, method: str = DEFAULT_METHOD) -> LPResult:
    """Solve *spec* once on a fresh HiGHS instance, as ``linprog`` would.

    The rows are stacked in ``linprog``'s order, inequalities
    (``-inf <= a_ub @ x <= b_ub``) then equalities, into one
    compressed-column matrix, and only the options ``linprog`` sets for
    *method* (one of :data:`HIGHS_METHODS`, any case) are set: presolve
    on, the dual simplex strategy, logging off and the ``solver``.  So the
    status, iteration count, objective and ``x`` equal those of
    :func:`~repro.lp.backends.linprog.solve_spec` to the last bit; what
    ``linprog`` adds on top (duals, row values, bound marginals, option
    validation) is never read by an :class:`LPResult`.

    ``solve_seconds`` is the load-plus-run time.  A non-optimal outcome is
    reported in the result's status, not raised; its ``x`` is empty and its
    objective ``nan``.  Each call owns its HiGHS instance, so no workspace
    outlives the solve.

    Raises
    ------
    ValueError
        As ``linprog`` does, for a non-finite cost, coefficient or
        right-hand side, or for arrays whose sizes disagree.
    """
    blocks = [a for a in (spec.a_ub, spec.a_eq) if a is not None]
    matrix = (
        sparse.vstack(blocks, format="csr").tocsc()
        if blocks
        else sparse.csc_matrix((0, spec.num_cols))
    )
    b_ub = np.empty(0) if spec.b_ub is None else spec.b_ub
    b_eq = np.empty(0) if spec.b_eq is None else spec.b_eq
    # linprog rejects these too; HiGHS would not.
    if not all(np.isfinite(a).all() for a in (spec.c, matrix.data, b_ub, b_eq)):
        raise ValueError(
            f"LP {spec.name!r} has a non-finite cost, coefficient or right-hand side"
        )
    if matrix.shape[0] != b_ub.size + b_eq.size:
        raise ValueError(
            f"LP {spec.name!r} has {matrix.shape[0]} rows but "
            f"{b_ub.size + b_eq.size} right-hand sides"
        )
    highs = _highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
    solver = HIGHS_METHODS[method.lower()]
    if solver is not None:
        highs.setOptionValue("solver", solver)
    start = time.perf_counter()
    loaded = _pass_model(
        highs,
        spec.c,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        np.concatenate([np.full(b_ub.size, -np.inf), b_eq]),
        np.concatenate([b_ub, b_eq]),
        spec.col_lower,
        spec.col_upper,
        np.zeros(spec.num_cols, dtype=np.int32),
    )
    if loaded:
        highs.run()
    elapsed = time.perf_counter() - start

    model_status = (
        highs.getModelStatus() if loaded else _highs_core.HighsModelStatus.kModelError
    )
    status = _LP_STATUS.get(model_status.name, LPStatus.NUMERICAL_ERROR)
    optimal = status is LPStatus.OPTIMAL
    info = highs.getInfo()
    return LPResult(
        status=status,
        objective=info.objective_function_value if optimal else float("nan"),
        x=np.array(highs.getSolution().col_value) if optimal else np.empty(0),
        solve_seconds=elapsed,
        message=highs.modelStatusToString(model_status),
        simplex_iterations=info.simplex_iteration_count or info.ipm_iteration_count,
    )


def _engine_works() -> bool:
    """Whether this scipy's HiGHS API has every call :class:`HighsEngine`
    and :func:`solve_cold` make: solve ``min x, 0 <= x <= 1`` through them,
    on an engine cold and warm, and once through :func:`solve_cold`.  The
    cold probe has no rows, so HiGHS never starts presolve for it: a
    presolved probe kept about 0.4 MB resident in processes, such as the
    simulator's, that never presolve otherwise."""
    program = (
        np.ones(1),
        np.array([0, 1], dtype=np.int32),
        np.zeros(1, dtype=np.int32),
        np.ones(1),
        np.zeros(1),
        np.array([np.inf]),
        np.zeros(1),
        np.ones(1),
    )
    spec = LPSpec(
        c=np.ones(1),
        a_ub=None,
        b_ub=None,
        a_eq=None,
        b_eq=None,
        col_lower=np.zeros(1),
        col_upper=np.ones(1),
    )
    try:
        engine = HighsEngine()
        _, basis = engine.solve(*program)
        x, _ = engine.solve(*program, basis)
        cold = solve_cold(spec)
    except (AttributeError, TypeError, HighsEngineError):
        return False
    return x.tolist() == [0.0] and cold.is_optimal and cold.x.tolist() == [0.0]


#: Whether the in-process HiGHS API is importable and has every call the
#: engine and the cold solve make in this environment.
HIGHS_AVAILABLE = _highs_core is not None and _engine_works()


def make_highs_engine() -> Optional[HighsEngine]:
    """A new :class:`HighsEngine`, or ``None`` when HiGHS is unavailable."""
    if not HIGHS_AVAILABLE:
        return None
    return HighsEngine()

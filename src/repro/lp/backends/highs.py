"""One HiGHS engine that solves many programs, each from its own basis.

scipy bundles the HiGHS solver (``scipy.optimize._highspy``) but its public
:func:`scipy.optimize.linprog` wrapper rebuilds the model, re-validates every
input and re-parses the option dict on every call — measured at ~85% of the
wall time for the small per-event LPs the continuous-time simulator solves.

:class:`HighsEngine` holds one HiGHS instance with presolve off.  Each
:meth:`~HighsEngine.solve` loads a whole program in compressed-column form,
restores the basis the caller kept from that program's previous solve, and
restarts the dual simplex from it; the caller keeps the returned basis for
its next solve.  So many programs share one engine's workspace and still
warm-start, and a program between solves costs only its arrays and its
basis.

This intentionally leans on a private scipy module; everything degrades
gracefully.  When the import fails or lacks a call the engine needs
(``HIGHS_AVAILABLE`` is False) :func:`make_highs_engine` returns ``None``
and callers fall back to :func:`~repro.lp.backends.linprog.solve_spec`,
which produces the same optima, only slower.  This module is one of the two
sanctioned homes of a direct solver-engine import (lint rule R010).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised implicitly by the import succeeding
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None

#: HiGHS's ``MatrixFormat.kColwise`` and ``ObjSense.kMinimize`` (C API values).
_COLWISE = 1
_MINIMIZE = 1


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
        status = highs.passModel(
            num_cols,
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
            self._continuous[:num_cols],
        )
        if status == _highs_core.HighsStatus.kError:  # pragma: no cover
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


def _engine_works() -> bool:
    """Whether this scipy's HiGHS API has every call :class:`HighsEngine`
    makes: solve ``min x, 0 <= x <= 1`` through them, cold and warm."""
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
    try:
        engine = HighsEngine()
        _, basis = engine.solve(*program)
        x, _ = engine.solve(*program, basis)
    except (AttributeError, TypeError, HighsEngineError):
        return False
    return x.tolist() == [0.0]


#: Whether the in-process HiGHS API is importable and has every call the
#: engine makes in this environment.
HIGHS_AVAILABLE = _highs_core is not None and _engine_works()


def make_highs_engine() -> Optional[HighsEngine]:
    """A new :class:`HighsEngine`, or ``None`` when HiGHS is unavailable."""
    if not HIGHS_AVAILABLE:
        return None
    return HighsEngine()

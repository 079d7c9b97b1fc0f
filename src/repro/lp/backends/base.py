"""The solver-agnostic standard form every LP solve in the repository uses.

An assembled :class:`~repro.lp.model.LinearProgram` reduces to an
:class:`LPSpec`; :func:`repro.lp.backends.linprog.solve_spec` solves one
spec once, and :class:`~repro.lp.backends.highs.PersistentHighsLP` keeps a
model resident for the simulator's delta re-solves.  Code outside
:mod:`repro.lp.backends` never imports a solver engine directly — lint rule
R010 enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

#: HiGHS dual-simplex is the most robust choice for these very sparse,
#: highly degenerate scheduling LPs; "highs" lets scipy pick between simplex
#: and interior point.
DEFAULT_METHOD = "highs"


@dataclass
class LPSpec:
    """Solver-agnostic standard form of an assembled linear program.

    Minimise ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``
    and ``col_lower <= x <= col_upper``.  Either constraint block may be
    absent (``None``).  The row order inside each block is the emission
    order of the originating :class:`~repro.lp.model.LinearProgram`.
    """

    c: np.ndarray
    a_ub: Optional[sparse.csr_matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[sparse.csr_matrix]
    b_eq: Optional[np.ndarray]
    col_lower: np.ndarray
    col_upper: np.ndarray
    name: str = "lp"

    @classmethod
    def from_program(cls, program) -> "LPSpec":
        """The spec of an assembled :class:`~repro.lp.model.LinearProgram`."""
        c, a_ub, b_ub, a_eq, b_eq, _bounds = program.build_matrices()
        lower, upper = program.bounds_arrays()
        return cls(
            c=np.ascontiguousarray(c, dtype=float),
            a_ub=a_ub,
            b_ub=None if b_ub is None else np.ascontiguousarray(b_ub, dtype=float),
            a_eq=a_eq,
            b_eq=None if b_eq is None else np.ascontiguousarray(b_eq, dtype=float),
            col_lower=lower,
            col_upper=upper,
            name=program.name,
        )

    @property
    def num_cols(self) -> int:
        return int(self.c.size)

    @property
    def num_ub_rows(self) -> int:
        return 0 if self.b_ub is None else int(self.b_ub.size)

    @property
    def num_eq_rows(self) -> int:
        return 0 if self.b_eq is None else int(self.b_eq.size)

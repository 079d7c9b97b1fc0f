"""Sparse linear-program builder.

Time-indexed coflow LPs are large but extremely sparse (each constraint
touches a handful of the ``O(flows x slots x edges)`` variables), so the
builder accumulates constraint coefficients as COO triplets and only
materializes :class:`scipy.sparse.csr_matrix` objects once, at solve time —
never a dense matrix (see the scipy-sparse guidance in the hpc-parallel
coding guides).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse


class ConstraintSense(str, enum.Enum):
    """Direction of a linear constraint."""

    LESS_EQUAL = "<="
    GREATER_EQUAL = ">="
    EQUAL = "=="


@dataclass(frozen=True)
class VariableBlock:
    """A contiguous block of LP variables registered under one name.

    Blocks make it easy to map semantic variables like ``x[j][i][t]`` onto a
    flat index space: the builder hands back the starting offset and the
    caller keeps whatever multidimensional view it wants (typically a numpy
    array of indices).
    """

    name: str
    start: int
    size: int

    @property
    def stop(self) -> int:
        return self.start + self.size

    def indices(self) -> np.ndarray:
        """The flat variable indices of this block."""
        return np.arange(self.start, self.stop, dtype=np.int64)

    def reshape(self, *shape: int) -> np.ndarray:
        """Index array reshaped to the given semantic shape."""
        expected = int(np.prod(shape)) if shape else 0
        if expected != self.size:
            raise ValueError(
                f"block {self.name!r} has {self.size} variables, cannot reshape "
                f"to {shape}"
            )
        return self.indices().reshape(*shape)


class LinearProgram:
    """Incrementally-built LP ``min c^T x  s.t.  A_ub x <= b_ub, A_eq x = b_eq``.

    All variables are continuous with individual bounds (default ``[0, inf)``).
    Constraints may be added one at a time (:meth:`add_constraint`) or in
    vectorized batches (:meth:`add_constraints_batch`), which is what the
    coflow LP builders use on their hot paths.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._num_vars = 0
        self._blocks: Dict[str, VariableBlock] = {}
        # Objective contributions as (indices, coefficients) array pairs,
        # accumulated additively in objective_vector().
        self._objective: List[Tuple[np.ndarray, np.ndarray]] = []
        # Variable bounds as growable numpy arrays (vectorized fixing of
        # release-time slots is one of the LP assembly hot paths).
        self._lower = np.empty(0, dtype=float)
        self._upper = np.empty(0, dtype=float)
        # COO triplet buffers for inequality (<=) and equality constraints.
        self._ub_rows: List[np.ndarray] = []
        self._ub_cols: List[np.ndarray] = []
        self._ub_vals: List[np.ndarray] = []
        self._ub_rhs: List[float] = []
        self._eq_rows: List[np.ndarray] = []
        self._eq_cols: List[np.ndarray] = []
        self._eq_vals: List[np.ndarray] = []
        self._eq_rhs: List[float] = []

    # ------------------------------------------------------------------ #
    # variables
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        """Total number of (inequality + equality) constraint rows."""
        return len(self._ub_rhs) + len(self._eq_rhs)

    @property
    def num_inequality_constraints(self) -> int:
        return len(self._ub_rhs)

    @property
    def num_equality_constraints(self) -> int:
        return len(self._eq_rhs)

    def add_variables(
        self,
        name: str,
        count: int,
        *,
        lower: float = 0.0,
        upper: Optional[float] = None,
    ) -> VariableBlock:
        """Register *count* new variables under *name*.

        Parameters
        ----------
        name:
            Unique block name (e.g. ``"x"``, ``"X"``, ``"C"``).
        count:
            Number of variables (may be 0 for degenerate instances).
        lower, upper:
            Bounds applied uniformly to the block.  ``upper=None`` means
            unbounded above.
        """
        if name in self._blocks:
            raise ValueError(f"variable block {name!r} already exists")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        block = VariableBlock(name=name, start=self._num_vars, size=count)
        self._blocks[name] = block
        self._num_vars += count
        self._lower = np.concatenate(
            [self._lower, np.full(count, float(lower))]
        )
        self._upper = np.concatenate(
            [self._upper, np.full(count, np.inf if upper is None else float(upper))]
        )
        return block

    def block(self, name: str) -> VariableBlock:
        """Look up a previously registered variable block."""
        return self._blocks[name]

    def set_bounds(self, index: int, lower: float, upper: Optional[float]) -> None:
        """Override the bounds of a single variable."""
        self._lower[index] = lower
        self._upper[index] = np.inf if upper is None else upper

    def fix_variable(self, index: int, value: float) -> None:
        """Pin a variable to a constant (used for pre-release-time slots)."""
        self._lower[index] = value
        self._upper[index] = value

    def fix_variables(self, indices: np.ndarray, value: float) -> None:
        """Pin many variables to a constant at once (vectorized).

        Accepts any integer array (it is flattened); the empty array is a
        no-op.  This is what the vectorized LP builder uses to zero out all
        pre-release-time slots in one call.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return
        self._lower[idx] = value
        self._upper[idx] = value

    # ------------------------------------------------------------------ #
    # objective
    # ------------------------------------------------------------------ #
    def set_objective_coefficient(self, index: int, coefficient: float) -> None:
        """Add *coefficient* to the objective weight of variable *index*."""
        self._objective.append(
            (
                np.array([int(index)], dtype=np.int64),
                np.array([float(coefficient)], dtype=float),
            )
        )

    def set_objective(
        self, indices: Sequence[int] | np.ndarray, coefficients: Sequence[float] | np.ndarray
    ) -> None:
        """Add objective coefficients for many variables at once."""
        indices = np.asarray(indices, dtype=np.int64)
        coefficients = np.asarray(coefficients, dtype=float)
        if indices.shape != coefficients.shape:
            raise ValueError("indices and coefficients must have the same shape")
        self._objective.append((indices.ravel(), coefficients.ravel().astype(float)))

    def objective_vector(self) -> np.ndarray:
        """Dense objective vector ``c`` (length = number of variables)."""
        c = np.zeros(self._num_vars, dtype=float)
        for idx, coef in self._objective:
            np.add.at(c, idx, coef)
        return c

    # ------------------------------------------------------------------ #
    # constraints
    # ------------------------------------------------------------------ #
    def add_constraint(
        self,
        indices: Sequence[int] | np.ndarray,
        coefficients: Sequence[float] | np.ndarray,
        sense: ConstraintSense | str,
        rhs: float,
    ) -> None:
        """Add a single constraint ``sum coef_k * x[idx_k]  <sense>  rhs``.

        ``>=`` constraints are stored negated as ``<=`` rows, matching the
        ``A_ub x <= b_ub`` form scipy expects.
        """
        sense = ConstraintSense(sense)
        idx = np.asarray(indices, dtype=np.int64).ravel()
        coef = np.asarray(coefficients, dtype=float).ravel()
        if idx.shape != coef.shape:
            raise ValueError("indices and coefficients must have the same length")
        if idx.size == 0:
            # A constraint with no variables is either trivially true or
            # infeasible; reject rather than silently drop it.
            raise ValueError("a constraint must involve at least one variable")
        if sense is ConstraintSense.EQUAL:
            row = np.full(idx.size, len(self._eq_rhs), dtype=np.int64)
            self._eq_rows.append(row)
            self._eq_cols.append(idx)
            self._eq_vals.append(coef)
            self._eq_rhs.append(float(rhs))
            return
        if sense is ConstraintSense.GREATER_EQUAL:
            coef = -coef
            rhs = -rhs
        row = np.full(idx.size, len(self._ub_rhs), dtype=np.int64)
        self._ub_rows.append(row)
        self._ub_cols.append(idx)
        self._ub_vals.append(coef)
        self._ub_rhs.append(float(rhs))

    def add_constraints_batch(
        self,
        row_indices: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
        rhs: np.ndarray,
        sense: ConstraintSense | str,
    ) -> None:
        """Add many constraints at once from pre-assembled COO triplets.

        Parameters
        ----------
        row_indices:
            Local row index (``0 .. len(rhs)-1``) of each coefficient.
        col_indices:
            Variable index of each coefficient.
        values:
            Coefficient values, same length as *row_indices*.
        rhs:
            One right-hand side per local row.
        sense:
            Sense shared by every row of the batch.
        """
        sense = ConstraintSense(sense)
        row_indices = np.asarray(row_indices, dtype=np.int64).ravel()
        col_indices = np.asarray(col_indices, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=float).ravel()
        rhs = np.asarray(rhs, dtype=float).ravel()
        if not (row_indices.shape == col_indices.shape == values.shape):
            raise ValueError("row, col and value arrays must have the same shape")
        if row_indices.size and row_indices.max(initial=0) >= rhs.size:
            raise ValueError("row index exceeds number of right-hand sides")
        if sense is ConstraintSense.EQUAL:
            offset = len(self._eq_rhs)
            self._eq_rows.append(row_indices + offset)
            self._eq_cols.append(col_indices)
            self._eq_vals.append(values)
            self._eq_rhs.extend(rhs.tolist())
            return
        if sense is ConstraintSense.GREATER_EQUAL:
            values = -values
            rhs = -rhs
        offset = len(self._ub_rhs)
        self._ub_rows.append(row_indices + offset)
        self._ub_cols.append(col_indices)
        self._ub_vals.append(values)
        self._ub_rhs.extend(rhs.tolist())

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #
    def _assemble(
        self,
        rows: List[np.ndarray],
        cols: List[np.ndarray],
        vals: List[np.ndarray],
        num_rows: int,
    ) -> Optional[sparse.csr_matrix]:
        if num_rows == 0:
            return None
        row = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        col = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
        val = np.concatenate(vals) if vals else np.empty(0, dtype=float)
        matrix = sparse.coo_matrix(
            (val, (row, col)), shape=(num_rows, self._num_vars)
        )
        return matrix.tocsr()

    def build_matrices(self):
        """Return ``(c, A_ub, b_ub, A_eq, b_eq, (lower, upper))``.

        ``A_ub``/``A_eq`` are CSR matrices or ``None`` when there are no
        constraints of that kind; ``lower`` and ``upper`` are per-variable
        bound arrays (copies), with ``np.inf`` for no upper bound.
        """
        c = self.objective_vector()
        a_ub = self._assemble(
            self._ub_rows, self._ub_cols, self._ub_vals, len(self._ub_rhs)
        )
        b_ub = np.array(self._ub_rhs, dtype=float) if self._ub_rhs else None
        a_eq = self._assemble(
            self._eq_rows, self._eq_cols, self._eq_vals, len(self._eq_rhs)
        )
        b_eq = np.array(self._eq_rhs, dtype=float) if self._eq_rhs else None
        return c, a_ub, b_ub, a_eq, b_eq, (self._lower.copy(), self._upper.copy())

    def size_summary(self) -> Dict[str, int]:
        """Quick size report used by the LP-scaling ablation benchmark."""
        nnz = sum(v.size for v in self._ub_vals) + sum(v.size for v in self._eq_vals)
        return {
            "variables": self._num_vars,
            "inequality_constraints": len(self._ub_rhs),
            "equality_constraints": len(self._eq_rhs),
            "nonzeros": int(nnz),
        }

    def __repr__(self) -> str:
        s = self.size_summary()
        return (
            f"LinearProgram(name={self.name!r}, vars={s['variables']}, "
            f"ineq={s['inequality_constraints']}, eq={s['equality_constraints']}, "
            f"nnz={s['nonzeros']})"
        )

"""Tests for the solver-engine layer (repro.lp.backends).

Covers the solver-agnostic LPSpec, and the one-shot linprog solve of a spec
(status, objective, iterations, failures reported rather than raised).
"""

import numpy as np
import pytest
from scipy import sparse

from repro.lp.backends import LPSpec, solve_spec
from repro.lp.model import LinearProgram


def toy_spec() -> LPSpec:
    """min -3a - 2b  s.t.  a + b <= 4,  a + 0b == a_fix-free,  0 <= a,b <= 3.

    Optimum: a=3, b=1, objective -11.
    """
    return LPSpec(
        c=np.array([-3.0, -2.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, 1.0]])),
        b_ub=np.array([4.0]),
        a_eq=None,
        b_eq=None,
        col_lower=np.zeros(2),
        col_upper=np.full(2, 3.0),
        name="toy",
    )


def eq_spec() -> LPSpec:
    """min x + y  s.t.  x + y == 2,  x - y <= 0.5,  x,y >= 0."""
    return LPSpec(
        c=np.array([1.0, 1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, -1.0]])),
        b_ub=np.array([0.5]),
        a_eq=sparse.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=np.array([2.0]),
        col_lower=np.zeros(2),
        col_upper=np.full(2, np.inf),
        name="eq-toy",
    )


def infeasible_spec() -> LPSpec:
    return LPSpec(
        c=np.array([1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0]])),
        b_ub=np.array([-1.0]),
        a_eq=None,
        b_eq=None,
        col_lower=np.zeros(1),
        col_upper=np.full(1, np.inf),
        name="infeasible",
    )


class TestLPSpec:
    def test_counts(self):
        spec = eq_spec()
        assert spec.num_cols == 2
        assert spec.num_ub_rows == 1
        assert spec.num_eq_rows == 1

    def test_from_program_matches_manual_spec(self):
        lp = LinearProgram(name="toy")
        idx = lp.add_variables("x", 2, upper=3.0).indices()
        lp.set_objective(idx, [-3.0, -2.0])
        lp.add_constraint(idx, [1.0, 1.0], "<=", 4.0)
        spec = LPSpec.from_program(lp)
        manual = toy_spec()
        np.testing.assert_allclose(spec.c, manual.c)
        np.testing.assert_allclose(spec.b_ub, manual.b_ub)
        np.testing.assert_allclose(spec.col_upper, manual.col_upper)
        assert spec.a_eq is None and manual.a_eq is None


class TestLinprogBackend:
    def test_optimal_solve(self):
        result = solve_spec(toy_spec())
        assert result.is_optimal
        assert result.objective == pytest.approx(-11.0)
        np.testing.assert_allclose(result.x, [3.0, 1.0], atol=1e-6)
        assert result.solve_seconds >= 0.0

    def test_simplex_iterations_reported(self):
        result = solve_spec(toy_spec())
        assert result.simplex_iterations is not None
        assert result.simplex_iterations >= 0

    def test_infeasible_reported_not_raised(self):
        result = solve_spec(infeasible_spec())
        assert not result.is_optimal
        assert result.x.size == 0
        assert np.isnan(result.objective)

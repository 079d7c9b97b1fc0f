"""Tests for the HiGHS solver wrapper."""

import numpy as np
import pytest

import repro.lp.backends.highs as highs_module
import repro.lp.backends.linprog as linprog_module
from repro.core.timeindexed import build_time_indexed_lp, solve_time_indexed_lp
from repro.lp.backends import HIGHS_AVAILABLE
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.solver import LPSolverError, solve_lp
from repro.network.topologies import swan_topology
from repro.workloads.generator import WorkloadSpec, generate_instance


def knapsack_relaxation() -> LinearProgram:
    """max 3a + 2b s.t. a + b <= 4, a <= 3, b <= 3  (as a minimization)."""
    lp = LinearProgram(name="toy")
    block = lp.add_variables("x", 2, upper=3.0)
    idx = block.indices()
    lp.set_objective(idx, [-3.0, -2.0])
    lp.add_constraint(idx, [1.0, 1.0], "<=", 4.0)
    return lp


class TestSolveLP:
    def test_optimal_solution(self):
        result = solve_lp(knapsack_relaxation())
        assert result.is_optimal
        assert result.objective == pytest.approx(-11.0)  # a=3, b=1
        np.testing.assert_allclose(result.x, [3.0, 1.0], atol=1e-6)

    def test_solve_seconds_recorded(self):
        result = solve_lp(knapsack_relaxation())
        assert result.solve_seconds >= 0.0

    def test_metadata_contains_sizes(self):
        result = solve_lp(knapsack_relaxation())
        assert result.metadata["variables"] == 2

    def test_equality_constraint(self):
        lp = LinearProgram()
        idx = lp.add_variables("x", 2).indices()
        lp.set_objective(idx, [1.0, 2.0])
        lp.add_constraint(idx, [1.0, 1.0], "==", 5.0)
        result = solve_lp(lp)
        assert result.is_optimal
        # Cheaper to put everything on x0.
        np.testing.assert_allclose(result.x, [5.0, 0.0], atol=1e-6)

    def test_infeasible_detected(self):
        lp = LinearProgram()
        idx = lp.add_variables("x", 1, upper=1.0).indices()
        lp.add_constraint(idx, [1.0], ">=", 2.0)
        result = solve_lp(lp)
        assert result.status is LPStatus.INFEASIBLE
        assert not result.is_optimal

    def test_require_optimal_raises_on_infeasible(self):
        lp = LinearProgram()
        idx = lp.add_variables("x", 1, upper=1.0).indices()
        lp.add_constraint(idx, [1.0], ">=", 2.0)
        with pytest.raises(LPSolverError):
            solve_lp(lp, require_optimal=True)

    def test_unbounded_detected(self):
        lp = LinearProgram()
        idx = lp.add_variables("x", 1).indices()
        lp.set_objective(idx, [-1.0])
        lp.add_constraint(idx, [1.0], ">=", 0.0)
        result = solve_lp(lp)
        assert result.status in (LPStatus.UNBOUNDED, LPStatus.INFEASIBLE)
        assert not result.is_optimal

    def test_metadata_is_the_program_size_summary(self):
        program = knapsack_relaxation()
        result = solve_lp(program)
        assert result.metadata == program.size_summary()

    def test_repeated_solves_are_identical(self):
        # Every call is a fresh, deterministic solve: a caller that solves
        # the same program twice gets the same answer to the last bit.
        first = solve_lp(knapsack_relaxation())
        second = solve_lp(knapsack_relaxation())
        assert second.objective == first.objective
        np.testing.assert_array_equal(second.x, first.x)

    def test_each_solve_returns_an_independent_result(self):
        program = knapsack_relaxation()
        first = solve_lp(program)
        first.x[:] = -1.0
        first.metadata["tag"] = "mutated"
        second = solve_lp(program)
        assert second is not first
        np.testing.assert_allclose(second.x, [3.0, 1.0], atol=1e-6)
        assert "tag" not in second.metadata

    def test_require_optimal_error_names_program_and_status(self):
        lp = LinearProgram(name="planted")
        idx = lp.add_variables("x", 1, upper=1.0).indices()
        lp.add_constraint(idx, [1.0], ">=", 2.0)
        with pytest.raises(LPSolverError) as excinfo:
            solve_lp(lp, require_optimal=True)
        assert "'planted' failed to solve: infeasible" in str(excinfo.value)

    def test_no_constraints_bounded_by_variable_bounds(self):
        lp = LinearProgram()
        idx = lp.add_variables("x", 2, upper=1.0).indices()
        lp.set_objective(idx, [-1.0, -1.0])
        # HiGHS requires at least a well formed problem; bounds alone suffice.
        result = solve_lp(lp)
        assert result.is_optimal
        assert result.objective == pytest.approx(-2.0)


def time_indexed_program() -> LinearProgram:
    """The free-path LP of four TPC-DS coflows on SWAN, on its certified grid."""
    instance = generate_instance(
        swan_topology(),
        WorkloadSpec(profile="TPC-DS", num_coflows=4, seed=3),
        model="free_path",
        rng=3,
    )
    return build_time_indexed_lp(instance, solve_time_indexed_lp(instance).grid)[0]


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSolvePath:
    @pytest.mark.skipif(not HIGHS_AVAILABLE, reason="scipy HiGHS API not importable")
    @pytest.mark.parametrize("method", ["highs", "HiGHS-DS", "highs-ipm"])
    def test_highs_methods_solve_on_highs_directly(self, monkeypatch, method):
        cold = count_calls(monkeypatch, highs_module, "solve_cold")
        fallback = count_calls(monkeypatch, linprog_module, "solve_spec")
        assert solve_lp(knapsack_relaxation(), method=method).is_optimal
        assert (len(cold), len(fallback)) == (1, 0)

    def test_without_highs_linprog_solves_it_the_same(self, monkeypatch):
        program = time_indexed_program()
        expected = solve_lp(program)
        monkeypatch.setattr(highs_module, "HIGHS_AVAILABLE", False)
        cold = count_calls(monkeypatch, highs_module, "solve_cold")
        fallback = count_calls(monkeypatch, linprog_module, "solve_spec")
        result = solve_lp(program)
        assert (len(cold), len(fallback)) == (0, 1)
        assert result.status is expected.status is LPStatus.OPTIMAL
        assert result.simplex_iterations == expected.simplex_iterations
        assert result.objective == expected.objective
        assert result.x.tobytes() == expected.x.tobytes()
        assert result.metadata == program.size_summary()

    def test_unknown_method_raises_value_error(self):
        with pytest.raises(ValueError):
            solve_lp(knapsack_relaxation(), method="not-a-backend")


class TestLPResult:
    def test_values_clips_small_negatives(self):
        result = LPResult(
            status=LPStatus.OPTIMAL,
            objective=0.0,
            x=np.array([-1e-12, 0.5]),
        )
        np.testing.assert_allclose(result.values(np.array([0, 1])), [0.0, 0.5])

    def test_values_preserves_shape(self):
        result = LPResult(
            status=LPStatus.OPTIMAL, objective=0.0, x=np.arange(6, dtype=float)
        )
        out = result.values(np.arange(6).reshape(2, 3))
        assert out.shape == (2, 3)

    def test_require_optimal_raises(self):
        failed = LPResult.failed(LPStatus.INFEASIBLE, "nope")
        with pytest.raises(RuntimeError, match="infeasible"):
            failed.require_optimal()

    def test_summary_has_status(self):
        result = solve_lp(knapsack_relaxation())
        assert result.summary()["status"] == "optimal"

    def test_status_from_scipy_mapping(self):
        assert LPStatus.from_scipy(0) is LPStatus.OPTIMAL
        assert LPStatus.from_scipy(2) is LPStatus.INFEASIBLE
        assert LPStatus.from_scipy(3) is LPStatus.UNBOUNDED
        assert LPStatus.from_scipy(99) is LPStatus.NUMERICAL_ERROR

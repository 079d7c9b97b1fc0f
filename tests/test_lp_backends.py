"""Tests for the solver-engine layer (repro.lp.backends).

Covers the solver-agnostic LPSpec, the one-shot linprog solve of a spec
(status, objective, iterations, failures reported rather than raised), and
the cold solve on HiGHS directly, which must give linprog's result to the
last bit.
"""

from typing import Dict, List

import numpy as np
import pytest
from scipy import sparse

import repro.core.timeindexed as timeindexed_module
import repro.lp.backends.highs as highs_module
from repro.core.timeindexed import solve_time_indexed_lp
from repro.lp.backends import HIGHS_AVAILABLE, LPSpec, solve_cold, solve_spec
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.network.topologies import swan_topology
from repro.workloads.generator import WorkloadSpec, generate_instance

needs_highs = pytest.mark.skipif(
    not HIGHS_AVAILABLE, reason="scipy HiGHS API not importable"
)


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


def unconstrained_spec() -> LPSpec:
    """min -x - y over the box [0, 1] x [0, 2], no rows: optimum -3."""
    return LPSpec(
        c=np.array([-1.0, -1.0]),
        a_ub=None,
        b_ub=None,
        a_eq=None,
        b_eq=None,
        col_lower=np.zeros(2),
        col_upper=np.array([1.0, 2.0]),
        name="no-constraints",
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


# --------------------------------------------------------------------------- #
# the cold HiGHS solve against linprog
# --------------------------------------------------------------------------- #
HIGHS_METHODS = ["highs", "highs-ds", "highs-ipm"]


def assert_same_result(cold: LPResult, reference: LPResult) -> None:
    """Equal status and iteration count, bit-identical objective and x."""
    assert cold.status is reference.status
    assert cold.simplex_iterations == reference.simplex_iterations
    assert np.float64(cold.objective).tobytes() == np.float64(reference.objective).tobytes()
    assert cold.x.dtype == reference.x.dtype
    assert cold.x.tobytes() == reference.x.tobytes()


@pytest.fixture(scope="module")
def horizon_rounds() -> Dict[str, List[LPSpec]]:
    """Every program ``solve_time_indexed_lp`` solves, round by round, for a
    single-path instance whose first horizon round is infeasible and a
    free-path one."""
    cases = {"single_path": ("FB", 11), "free_path": ("TPC-DS", 3)}
    rounds: Dict[str, List[LPSpec]] = {}
    real = timeindexed_module.solve_lp
    for model, (profile, seed) in cases.items():
        seen: List[LPSpec] = []

        def record(program, **kwargs):
            seen.append(LPSpec.from_program(program))
            return real(program, **kwargs)

        instance = generate_instance(
            swan_topology(),
            WorkloadSpec(profile=profile, num_coflows=4, seed=seed),
            model=model,
            rng=seed,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(timeindexed_module, "solve_lp", record)
            solve_time_indexed_lp(instance)
        rounds[model] = seen
    return rounds


@needs_highs
class TestColdSolve:
    @pytest.mark.parametrize("method", HIGHS_METHODS)
    @pytest.mark.parametrize(
        "make_spec", [toy_spec, eq_spec, infeasible_spec, unconstrained_spec]
    )
    def test_matches_linprog_on_small_programs(self, make_spec, method):
        assert_same_result(
            solve_cold(make_spec(), method=method), solve_spec(make_spec(), method=method)
        )

    @pytest.mark.parametrize("method", HIGHS_METHODS)
    @pytest.mark.parametrize("model", ["single_path", "free_path"])
    def test_matches_linprog_on_time_indexed_rounds(self, horizon_rounds, model, method):
        for spec in horizon_rounds[model]:
            assert_same_result(solve_cold(spec, method=method), solve_spec(spec, method=method))

    def test_rounds_cover_an_infeasible_horizon(self, horizon_rounds):
        statuses = [solve_cold(spec).status for spec in horizon_rounds["single_path"]]
        assert statuses[0] is LPStatus.INFEASIBLE
        assert statuses[-1] is LPStatus.OPTIMAL
        assert all(solve_cold(spec).is_optimal for spec in horizon_rounds["free_path"])

    def test_reports_like_solve_spec(self):
        result = solve_cold(toy_spec(), method="HiGHS-DS")
        assert result.is_optimal
        assert result.objective == pytest.approx(-11.0)
        np.testing.assert_allclose(result.x, [3.0, 1.0], atol=1e-6)
        assert result.solve_seconds >= 0.0
        assert result.simplex_iterations > 0
        infeasible = solve_cold(infeasible_spec())
        assert infeasible.status is LPStatus.INFEASIBLE
        assert infeasible.x.size == 0 and np.isnan(infeasible.objective)

    @pytest.mark.parametrize(
        "change",
        [
            {"c": np.array([np.nan, -2.0])},
            {"b_ub": np.array([np.inf])},
            {"a_ub": sparse.csr_matrix(np.array([[1.0, np.inf]]))},
            {"b_ub": np.array([4.0, 5.0])},
            {"col_upper": np.full(1, 3.0)},
        ],
    )
    def test_rejects_malformed_programs_like_linprog(self, change):
        fields = {**toy_spec().__dict__, **change}
        for solve in (solve_cold, solve_spec):
            with pytest.raises(ValueError):
                solve(LPSpec(**fields))

    def test_probe_rejects_an_api_without_a_cold_solve_call(self, monkeypatch):
        # HighsEngine never reads the solve info; only the cold solve does.
        real = highs_module._highs_core._Highs

        class NoGetInfo:
            def __init__(self):
                self._highs = real()

            def __getattr__(self, name):
                if name == "getInfo":
                    raise AttributeError(name)
                return getattr(self._highs, name)

        assert highs_module._engine_works()
        monkeypatch.setattr(highs_module._highs_core, "_Highs", NoGetInfo)
        assert not highs_module._engine_works()

"""Tests for the shared-LP reuse decision and the core registry entries.

``TestCoflowScheduler`` covers one instance scheduled by each core
algorithm through :func:`repro.api.solve` on top of
:func:`repro.core.scheduler.lp_solution_for`; ``TestSolveCoflowSchedule``
covers the one-call solving of the paper's four algorithms.
"""

import numpy as np
import pytest

from repro.api import UnknownAlgorithmError, solve
from repro.core.scheduler import lp_solution_for
from repro.core.stretch import run_stretch
from repro.core.timeindexed import solve_time_indexed_lp
from repro.schedule.timegrid import TimeGrid

CORE_ALGORITHMS = ("lp-heuristic", "stretch", "stretch-average", "stretch-best")


class TestCoflowScheduler:
    def test_lp_solution_is_cached(self, example_free_path_instance):
        first = lp_solution_for(example_free_path_instance, num_slots=8)
        second = lp_solution_for(
            example_free_path_instance, shared=first, num_slots=8
        )
        assert first is second
        assert first.metadata["request"] == {
            "grid": first.grid.boundary_digest(),
            "solver_method": "highs",
        }

    def test_equal_grid_spelled_differently_is_reused(
        self, example_free_path_instance
    ):
        # The request is the grid itself, not the parameters that named it.
        first = lp_solution_for(example_free_path_instance, num_slots=8)
        second = lp_solution_for(
            example_free_path_instance,
            shared=first,
            grid=TimeGrid.uniform(8, 1.0),
        )
        assert second is first

    @pytest.mark.parametrize("algorithm", CORE_ALGORITHMS)
    def test_core_algorithm_solves_no_lp_of_its_own(
        self, example_free_path_instance, lp_solves, algorithm
    ):
        shared = lp_solution_for(example_free_path_instance, num_slots=8)
        report = solve(
            example_free_path_instance,
            algorithm,
            num_slots=8,
            rng=0,
            num_samples=3,
            lp_solution=shared,
        )
        assert report.lp_solution is shared
        assert lp_solves == ["figure4"]

    def test_shared_solution_of_another_instance_rejected(
        self, example_free_path_instance, example_single_path_instance
    ):
        other = lp_solution_for(example_single_path_instance, num_slots=8)
        with pytest.raises(ValueError, match="different instance"):
            lp_solution_for(example_free_path_instance, shared=other, num_slots=8)

    def test_lower_bound_property(self, example_free_path_instance):
        report = solve(example_free_path_instance, "lp-heuristic", num_slots=8)
        assert report.lower_bound == pytest.approx(5.0, abs=1e-5)
        assert report.lower_bound == report.lp_solution.objective

    def test_heuristic_outcome(self, example_free_path_instance):
        report = solve(example_free_path_instance, "lp-heuristic", num_slots=8)
        assert report.algorithm == "lp-heuristic"
        assert report.objective == pytest.approx(5.0)
        assert report.gap == pytest.approx(1.0, abs=1e-5)
        assert report.feasibility is not None and report.feasibility.is_feasible
        assert report.extras == {"lambda": 1.0}

    def test_stretch_outcome_records_lambda(self, example_free_path_instance):
        report = solve(example_free_path_instance, "stretch", num_slots=8, rng=0)
        assert report.algorithm == "stretch"
        assert 0 < report.extras["lambda"] <= 1.0
        assert report.objective >= report.lower_bound - 1e-6

    def test_stretch_with_fixed_lambda(self, example_free_path_instance):
        lp = solve_time_indexed_lp(example_free_path_instance, num_slots=8)
        assert run_stretch(lp, lam=1.0).lam == 1.0

    def test_best_stretch_outcome(self, example_free_path_instance):
        report = solve(
            example_free_path_instance,
            "stretch-best",
            num_slots=8,
            rng=1,
            num_samples=5,
        )
        evaluation = report.extras["evaluation"]
        assert list(report.extras) == ["lambda", "evaluation"]
        assert report.objective == pytest.approx(evaluation.best_objective)
        assert report.extras["lambda"] == evaluation.best_result.lam

    def test_stretch_evaluation_num_samples(self, example_free_path_instance):
        report = solve(
            example_free_path_instance,
            "stretch-average",
            num_slots=8,
            rng=1,
            num_samples=4,
        )
        assert report.extras["evaluation"].num_samples == 4


class TestSolveCoflowSchedule:
    def test_unknown_algorithm_rejected(self, example_free_path_instance):
        with pytest.raises(UnknownAlgorithmError, match="unknown algorithm"):
            solve(example_free_path_instance, "magic")

    @pytest.mark.parametrize("algorithm", CORE_ALGORITHMS)
    def test_all_algorithms_run(self, example_free_path_instance, algorithm):
        report = solve(
            example_free_path_instance,
            algorithm,
            num_slots=8,
            rng=0,
            num_samples=3,
        )
        assert report.lower_bound == pytest.approx(5.0, abs=1e-5)
        assert report.objective >= report.lower_bound - 1e-6
        assert report.schedule is not None

    def test_single_path_example(self, example_single_path_instance):
        report = solve(example_single_path_instance, "lp-heuristic", num_slots=8)
        assert report.objective == pytest.approx(7.0)

    def test_stretch_average_reports_mean(self, example_free_path_instance):
        report = solve(
            example_free_path_instance,
            "stretch-average",
            num_slots=8,
            rng=3,
            num_samples=5,
        )
        evaluation = report.extras["evaluation"]
        assert list(report.extras) == ["evaluation", "best_lambda"]
        assert report.objective == pytest.approx(evaluation.average_objective)
        assert report.objective >= evaluation.best_objective - 1e-9
        np.testing.assert_array_equal(
            report.coflow_completion_times,
            evaluation.best_result.schedule.coflow_completion_times(),
        )

    def test_gap_infinite_for_zero_bound(self, example_free_path_instance):
        report = solve(example_free_path_instance, "lp-heuristic", num_slots=8)
        report.lower_bound = 0.0
        assert report.gap == float("inf")

    def test_outcomes_within_two_of_bound(self, small_swan_free_instance):
        report = solve(
            small_swan_free_instance, "stretch-best", rng=0, num_samples=5
        )
        slack = float(small_swan_free_instance.weights.sum())
        assert report.objective <= 2.0 * report.lower_bound + slack

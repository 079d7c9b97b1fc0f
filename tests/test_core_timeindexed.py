"""Tests for the time-indexed LP relaxation (the paper's Section 3 / Appendix A)."""

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.core.timeindexed import (
    build_time_indexed_lp,
    resolve_grid,
    solve_time_indexed_lp,
    suggest_horizon,
)
from repro.network.graph import NetworkGraph
from repro.network.topologies import (
    parallel_edges_topology,
    paper_example_topology,
    swan_topology,
)
from repro.schedule.feasibility import check_feasibility
from repro.schedule.timegrid import TimeGrid
from repro.workloads.generator import WorkloadSpec, generate_instance


class TestSuggestHorizon:
    def test_covers_serial_schedule(self, example_single_path_instance):
        horizon = suggest_horizon(example_single_path_instance)
        # Serial time: 1 + 1 + 1 + 3 = 6 slots (unit capacities) plus slack.
        assert horizon >= 6

    def test_free_path_uses_max_flow(self, example_free_path_instance):
        horizon = suggest_horizon(example_free_path_instance)
        # Free path serial time is smaller thanks to the 3-way split for blue.
        assert horizon >= 4

    def test_respects_release_times(self, example_free_path_instance):
        delayed = example_free_path_instance.with_coflows(
            [c.with_release_time(10.0) for c in example_free_path_instance.coflows]
        )
        # Coflow-level release times are inherited by flows via effective
        # release time only if flows carry them; rebuild flows accordingly.
        delayed = delayed.with_coflows(
            [
                c.with_flows([f.with_release_time(10.0) for f in c.flows])
                for c in delayed.coflows
            ]
        )
        assert suggest_horizon(delayed) >= 10

    def test_invalid_arguments(self, example_free_path_instance):
        with pytest.raises(ValueError):
            suggest_horizon(example_free_path_instance, slot_length=0.0)
        with pytest.raises(ValueError):
            suggest_horizon(example_free_path_instance, slack=0.0)


class TestBuildLP:
    def test_single_path_variable_count(self, example_single_path_instance):
        grid = TimeGrid.uniform(6)
        lp, bundle = build_time_indexed_lp(example_single_path_instance, grid)
        n_flows = example_single_path_instance.num_flows
        n_coflows = example_single_path_instance.num_coflows
        # x and the prefix sums S per (flow, slot), X per (coflow, slot), C.
        assert lp.num_variables == 2 * n_flows * 6 + n_coflows * 6 + n_coflows
        assert bundle.y is None

    def test_free_path_has_edge_variables(self, example_free_path_instance):
        grid = TimeGrid.uniform(5)
        lp, bundle = build_time_indexed_lp(example_free_path_instance, grid)
        assert bundle.y is not None
        assert bundle.y.shape == (
            example_free_path_instance.num_flows,
            5,
            example_free_path_instance.graph.num_edges,
        )

    def test_lp_size_is_linear_in_slots(self):
        # Eq. 2 through prefix sums costs O(flows x slots) nonzeros; the
        # expanded sums cost O(flows x slots^2), and a late release alone
        # would then blow the LP up quadratically.
        def built(release_time):
            instance = CoflowInstance(
                paper_example_topology(),
                [Coflow([Flow("s", "t", 2.0, release_time=release_time)])],
                model="free_path",
            )
            grid = resolve_grid(instance)
            lp, _ = build_time_indexed_lp(instance, grid)
            return grid.num_slots, lp.size_summary()["nonzeros"]

        slots_early, nnz_early = built(500.0)
        slots_late, nnz_late = built(1000.0)
        assert nnz_late / nnz_early <= 1.05 * (slots_late / slots_early)

    def test_lp_size_structure_on_swan(self):
        # TPC-DS on SWAN: the free path LP pays for its per-edge variables,
        # halving the slot length roughly doubles the LP, and geometric grids
        # shrink it, the more so the larger ε.
        sizes = {}
        for model in ("single_path", "free_path"):
            spec = WorkloadSpec(
                profile="TPC-DS", num_coflows=8, seed=42, demand_scale=1.5
            )
            instance = generate_instance(swan_topology(), spec, model=model, rng=42)
            slots = suggest_horizon(instance)
            grids = {
                "L=1": TimeGrid.uniform(slots, 1.0),
                "L=0.5": TimeGrid.uniform(2 * slots, 0.5),
                "eps=0.2": TimeGrid.geometric(slots, 0.2),
                "eps=0.5436": TimeGrid.geometric(slots, 0.5436),
            }
            for name, grid in grids.items():
                lp, _ = build_time_indexed_lp(instance, grid)
                sizes[model, name] = (grid.num_slots, lp.num_variables)
        for name in ("L=1", "L=0.5"):
            assert sizes["free_path", name][1] > sizes["single_path", name][1]
        for model in ("single_path", "free_path"):
            assert sizes[model, "L=0.5"][1] > 1.5 * sizes[model, "L=1"][1]
            assert sizes[model, "eps=0.5436"][1] < sizes[model, "L=1"][1]
            assert sizes[model, "eps=0.5436"][0] <= sizes[model, "eps=0.2"][0]

    def test_single_path_without_paths_raises(self, example_free_path_instance):
        # Force the single path builder onto an instance with unpinned flows.
        instance = CoflowInstance(
            example_free_path_instance.graph,
            [Coflow([Flow("s", "t", 1.0)])],
            model=TransmissionModel.SINGLE_PATH,
            validate=False,
        )
        with pytest.raises(ValueError, match="pinned path"):
            build_time_indexed_lp(instance, TimeGrid.uniform(3))


class TestSolveSinglePath:
    def test_paper_example_lower_bound(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance, num_slots=8)
        # The optimal integral objective is 7 (Figure 3); the LP bound must
        # not exceed it and must be positive.
        assert 0 < solution.objective <= 7.0 + 1e-6
        assert solution.lp_result.is_optimal

    def test_lp_schedule_is_feasible(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance, num_slots=8)
        report = check_feasibility(solution.to_schedule())
        assert report.is_feasible, report.violations

    def test_fractions_sum_to_one(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance, num_slots=8)
        np.testing.assert_allclose(solution.fractions.sum(axis=1), 1.0, atol=1e-6)

    def test_completion_times_at_least_one_slot(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance, num_slots=8)
        assert np.all(solution.completion_times >= 1.0 - 1e-9)

    def test_release_times_respected_in_lp(self):
        graph = parallel_edges_topology(1)
        coflows = [
            Coflow(
                [Flow("x1", "y1", 1.0, path=("x1", "y1"), release_time=2.0)],
                release_time=2.0,
            )
        ]
        instance = CoflowInstance(graph, coflows, model="single_path")
        solution = solve_time_indexed_lp(instance, num_slots=6)
        # Slots 0 and 1 end at 1.0 and 2.0 <= release 2.0, so they are forbidden.
        np.testing.assert_allclose(solution.fractions[0, :2], 0.0, atol=1e-9)
        assert solution.objective >= 3.0 - 1e-6

    def test_objective_matches_weighted_completion_variables(
        self, example_single_path_instance
    ):
        solution = solve_time_indexed_lp(example_single_path_instance, num_slots=8)
        manual = float(
            np.dot(example_single_path_instance.weights, solution.completion_times)
        )
        assert solution.objective == pytest.approx(manual)

    def test_simplex_iterations_in_lp_result(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance)
        assert solution.lp_result.simplex_iterations is not None
        assert solution.lp_result.simplex_iterations >= 0


class TestSolveFreePath:
    def test_paper_example_bound_is_five(self, example_free_path_instance):
        solution = solve_time_indexed_lp(example_free_path_instance, num_slots=8)
        # The optimal free path objective is exactly 5 (Figure 4) and the LP
        # achieves it on this instance.
        assert solution.objective == pytest.approx(5.0, abs=1e-5)

    def test_free_path_bound_never_exceeds_single_path_bound(
        self, example_single_path_instance, example_free_path_instance
    ):
        sp = solve_time_indexed_lp(example_single_path_instance, num_slots=8)
        fp = solve_time_indexed_lp(example_free_path_instance, num_slots=8)
        assert fp.objective <= sp.objective + 1e-6

    def test_edge_fractions_present_and_feasible(self, example_free_path_instance):
        solution = solve_time_indexed_lp(example_free_path_instance, num_slots=8)
        assert solution.edge_fractions is not None
        report = check_feasibility(solution.to_schedule())
        assert report.is_feasible, report.violations

    def test_free_path_lower_bound_vs_trivial_bound(self, small_swan_free_instance):
        solution = solve_time_indexed_lp(small_swan_free_instance)
        assert solution.objective > 0
        # The LP bound dominates a per-coflow standalone-time bound only up to
        # slotting; it must at least exceed the weighted number of coflows
        # (each coflow needs at least one slot).
        assert solution.objective >= small_swan_free_instance.weights.sum() - 1e-6


class TestGeometricGrid:
    def test_epsilon_grid_used(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance, epsilon=0.5)
        assert not solution.grid.is_uniform
        assert solution.lp_result.is_optimal

    def test_geometric_bound_is_weaker_or_equal(self, example_single_path_instance):
        fine = solve_time_indexed_lp(example_single_path_instance, num_slots=8)
        coarse = solve_time_indexed_lp(example_single_path_instance, epsilon=1.0)
        # Coarser grids cannot produce a larger (tighter) objective than the
        # truth, but they can be weaker in either direction relative to the
        # slotted LP; both must stay below the known optimum 7.
        assert coarse.objective <= 7.0 + 1e-6
        assert fine.objective <= 7.0 + 1e-6

    def test_geometric_schedule_feasible(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance, epsilon=0.5)
        report = check_feasibility(solution.to_schedule())
        assert report.is_feasible, report.violations

    def test_explicit_grid_takes_precedence(self, example_single_path_instance):
        grid = TimeGrid.uniform(9)
        solution = solve_time_indexed_lp(
            example_single_path_instance, grid=grid, num_slots=4, epsilon=0.3
        )
        assert solution.grid == grid


def _fb_on_swan(model: str):
    spec = WorkloadSpec(profile="FB", num_coflows=6, seed=3)
    return generate_instance(swan_topology(), spec, model=model, rng=3)


def _released_late(instance, shift: float):
    return instance.with_coflows(
        [
            c.with_flows([f.with_release_time(f.release_time + shift) for f in c.flows])
            for c in instance.coflows
        ]
    )


class TestCertifiedHorizon:
    """A default uniform request is solved on the shortest certified prefix
    of its grid, with the whole grid's optimum."""

    @pytest.mark.parametrize(
        "make, slot_length",
        [
            (lambda: _fb_on_swan("single_path"), 1.0),
            (lambda: _fb_on_swan("free_path"), 1.0),
            (lambda: _released_late(_fb_on_swan("single_path"), 30.0), 1.0),
            (lambda: _fb_on_swan("free_path"), 0.5),
        ],
        ids=["single_path", "free_path", "late_release", "slot_length_0.5"],
    )
    def test_default_solve_has_the_serial_horizon_optimum(self, make, slot_length):
        instance = make()
        solution = solve_time_indexed_lp(instance, slot_length=slot_length)
        serial = solve_time_indexed_lp(
            instance,
            num_slots=suggest_horizon(instance, slot_length=slot_length),
            slot_length=slot_length,
        )
        assert solution.objective == pytest.approx(serial.objective, rel=1e-9)
        rounds = solution.metadata["horizon_rounds"]
        assert rounds[-1] == (solution.grid.num_slots, "optimal")
        assert solution.metadata["requested_slots"] == serial.grid.num_slots
        assert solution.metadata["request"] == serial.metadata["request"]
        solved = solution.grid.boundaries
        np.testing.assert_array_equal(solved, serial.grid.boundaries[: solved.size])
        assert check_feasibility(solution.to_schedule()).is_feasible

    def test_optimum_needing_the_serial_horizon_ends_on_the_requested_grid(self):
        # Demand 5 on a unit link fills 5 slots; the certificate needs a 6th,
        # empty one, and growth 2 -> 3 -> 5 -> 8 is capped at the 7 requested.
        graph = NetworkGraph([("a", "b", 1.0)])
        instance = CoflowInstance(
            graph, [Coflow([Flow("a", "b", 5.0, path=("a", "b"))])], model="single_path"
        )
        solution = solve_time_indexed_lp(instance)
        assert solution.grid == resolve_grid(instance)
        assert solution.metadata["horizon_rounds"] == [
            (2, "infeasible"),
            (3, "infeasible"),
            (5, "optimal"),
            (7, "optimal"),
        ]
        serial = solve_time_indexed_lp(instance, num_slots=7)
        assert solution.objective == pytest.approx(serial.objective, rel=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [{"num_slots": 20}, {"epsilon": 0.5}, {"grid": TimeGrid.uniform(20)}],
        ids=["num_slots", "epsilon", "grid"],
    )
    def test_explicit_grids_are_solved_as_given(self, kwargs):
        instance = _fb_on_swan("single_path")
        solution = solve_time_indexed_lp(instance, **kwargs)
        assert solution.grid == resolve_grid(instance, **kwargs)
        assert solution.metadata["horizon_rounds"] == [
            (solution.grid.num_slots, "optimal")
        ]


class TestLPSolutionHelpers:
    def test_to_schedule_copies_arrays(self, example_free_path_instance):
        solution = solve_time_indexed_lp(example_free_path_instance, num_slots=6)
        schedule = solution.to_schedule()
        schedule.fractions[:] = 0.0
        assert solution.fractions.sum() > 0

    def test_fractional_completion_times_bounded_by_horizon(
        self, example_free_path_instance
    ):
        solution = solve_time_indexed_lp(example_free_path_instance, num_slots=6)
        frac_times = solution.fractional_completion_times()
        assert np.all(frac_times <= solution.grid.horizon + 1e-6)
        assert np.all(frac_times > 0)

    def test_lower_bound_alias(self, example_free_path_instance):
        solution = solve_time_indexed_lp(example_free_path_instance, num_slots=6)
        assert solution.lower_bound == solution.objective

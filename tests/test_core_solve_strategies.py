"""Tests for the staged solve pipeline (strategy="direct"/"refine"/"coarsen").

``refine`` must reproduce the direct optimum bit-for-bit in objective (it
solves the identical fine LP, warm-started from the geometric stage);
``coarsen`` may deviate but only inside its recorded (1+ε) guarantee band.
Both record per-stage telemetry in ``metadata["solve_path"]``.
"""

import numpy as np
import pytest

from repro.core.timeindexed import (
    DEFAULT_STAGE_EPSILON,
    SOLVE_STRATEGIES,
    map_solution_to_grid,
    solve_time_indexed_lp,
    suggest_horizon,
)
from repro.lp.backends import HIGHS_AVAILABLE
from repro.schedule.timegrid import TimeGrid


def fine_grid(instance, slot_length=0.5) -> TimeGrid:
    """A uniform grid fine enough that the geometric stage is cheaper."""
    slots = suggest_horizon(instance, slot_length=slot_length)
    return TimeGrid.uniform(slots, slot_length)


class TestStrategyValidation:
    def test_catalogue(self):
        assert SOLVE_STRATEGIES == ("direct", "refine", "coarsen")

    def test_unknown_strategy_rejected(self, example_single_path_instance):
        with pytest.raises(ValueError, match="unknown solve strategy"):
            solve_time_indexed_lp(
                example_single_path_instance, strategy="bogus"
            )

    def test_unknown_backend_rejected(self, example_single_path_instance):
        with pytest.raises(ValueError, match="unknown solver backend"):
            solve_time_indexed_lp(
                example_single_path_instance, strategy="refine", backend="cplex"
            )


class TestDirectTelemetry:
    def test_direct_records_solve_path(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance)
        path = solution.metadata["solve_path"]
        assert path["strategy"] == "direct"
        assert len(path["stages"]) == 1
        stage = path["stages"][0]
        assert stage["stage"] == "direct"
        assert stage["solve_seconds"] >= 0.0
        assert not stage["warm_start"]

    def test_simplex_iterations_in_lp_result(self, example_single_path_instance):
        solution = solve_time_indexed_lp(example_single_path_instance)
        assert solution.lp_result.simplex_iterations is not None
        assert solution.lp_result.simplex_iterations >= 0


class TestRefineStrategy:
    def test_refine_matches_direct_objective(self, small_swan_single_instance):
        grid = fine_grid(small_swan_single_instance)
        direct = solve_time_indexed_lp(
            small_swan_single_instance, grid=grid, strategy="direct"
        )
        refine = solve_time_indexed_lp(
            small_swan_single_instance, grid=grid, strategy="refine"
        )
        assert refine.objective == pytest.approx(direct.objective, rel=1e-6)
        assert refine.grid is grid

    def test_refine_matches_direct_free_path(self, small_swan_free_instance):
        grid = fine_grid(small_swan_free_instance)
        direct = solve_time_indexed_lp(
            small_swan_free_instance, grid=grid, strategy="direct"
        )
        refine = solve_time_indexed_lp(
            small_swan_free_instance, grid=grid, strategy="refine"
        )
        assert refine.objective == pytest.approx(direct.objective, rel=1e-6)

    def test_refine_records_two_stages(self, small_swan_single_instance):
        grid = fine_grid(small_swan_single_instance)
        solution = solve_time_indexed_lp(
            small_swan_single_instance, grid=grid, strategy="refine"
        )
        path = solution.metadata["solve_path"]
        assert path["strategy"] == "refine"
        assert "degraded_to" not in path
        stages = path["stages"]
        assert [s["stage"] for s in stages] == ["coarse", "fine"]
        assert stages[0]["slots"] < stages[1]["slots"]
        assert stages[1]["slots"] == grid.num_slots
        if HIGHS_AVAILABLE:
            assert stages[1]["warm_start"]

    def test_refine_degrades_on_coarse_target(self, example_single_path_instance):
        # A 3-slot target grid is already coarser than the geometric stage,
        # so refine falls back to one direct solve and says so.
        grid = TimeGrid.uniform(3, 2.0)
        solution = solve_time_indexed_lp(
            example_single_path_instance, grid=grid, strategy="refine"
        )
        path = solution.metadata["solve_path"]
        assert path["degraded_to"] == "direct"
        assert "reason" in path
        assert len(path["stages"]) == 1

    def test_stage_epsilon_validated(self, example_single_path_instance):
        with pytest.raises(ValueError):
            solve_time_indexed_lp(
                example_single_path_instance,
                strategy="refine",
                stage_epsilon=0.0,
            )


class TestCoarsenStrategy:
    def test_coarsen_within_guarantee(self, small_swan_single_instance):
        grid = fine_grid(small_swan_single_instance)
        direct = solve_time_indexed_lp(
            small_swan_single_instance, grid=grid, strategy="direct"
        )
        coarsen = solve_time_indexed_lp(
            small_swan_single_instance, grid=grid, strategy="coarsen"
        )
        info = coarsen.metadata["solve_path"]["coarsen"]
        rel_gap = abs(coarsen.objective - direct.objective) / abs(direct.objective)
        assert 1.0 + rel_gap <= info["guarantee_factor"] + 1e-9
        assert info["guarantee_factor"] == pytest.approx(
            1.0 + DEFAULT_STAGE_EPSILON
        )

    def test_coarsen_returns_adaptive_grid(self, small_swan_single_instance):
        grid = fine_grid(small_swan_single_instance)
        coarsen = solve_time_indexed_lp(
            small_swan_single_instance, grid=grid, strategy="coarsen"
        )
        info = coarsen.metadata["solve_path"]["coarsen"]
        # The adaptive grid the solution lives on is the recorded final one,
        # never more slots than the requested fine grid.
        assert coarsen.grid.num_slots == info["slots_final"]
        assert info["slots_final"] <= info["slots_fine"]
        assert info["slots_fine"] == grid.num_slots
        assert 0 <= info["binding_slots"] <= info["slots_coarse"]

    def test_coarsen_solution_internally_consistent(
        self, small_swan_free_instance
    ):
        grid = fine_grid(small_swan_free_instance)
        coarsen = solve_time_indexed_lp(
            small_swan_free_instance, grid=grid, strategy="coarsen"
        )
        # Fraction rows sum to ~1 on the grid the solution actually uses.
        totals = coarsen.fractions.sum(axis=1)
        np.testing.assert_allclose(totals, 1.0, atol=1e-6)
        assert coarsen.fractions.shape[1] == coarsen.grid.num_slots


class TestPrimalMapping:
    def test_refine_map_identity(self, small_swan_single_instance):
        grid = fine_grid(small_swan_single_instance)
        owner = grid.refine_map(grid)
        np.testing.assert_array_equal(owner, np.arange(grid.num_slots))

    def test_refine_map_geometric_to_uniform(self):
        fine = TimeGrid.uniform(16, 0.5)
        coarse = TimeGrid.geometric(fine.horizon, 0.5)
        owner = coarse_owner = fine.refine_map(coarse)
        assert owner.shape == (fine.num_slots,)
        assert owner[0] == 0
        assert np.all(np.diff(coarse_owner) >= 0)  # monotone in time
        assert owner[-1] == coarse.num_slots - 1

    def test_refine_map_rejects_longer_horizon(self):
        short = TimeGrid.uniform(4, 1.0)
        long = TimeGrid.uniform(8, 1.0)
        with pytest.raises(ValueError):
            long.refine_map(short)

    def test_mapped_seed_matches_coarse_objective(
        self, small_swan_single_instance
    ):
        from repro.core.timeindexed import build_time_indexed_lp

        grid = fine_grid(small_swan_single_instance)
        coarse = solve_time_indexed_lp(
            small_swan_single_instance,
            grid=TimeGrid.geometric(grid.horizon, DEFAULT_STAGE_EPSILON),
            strategy="direct",
        )
        lp, bundle = build_time_indexed_lp(small_swan_single_instance, grid)
        seed = map_solution_to_grid(coarse, grid, bundle, lp.num_variables)
        assert seed.shape == (lp.num_variables,)
        # Completion-time entries carry over the coarse optimum, so the
        # seed's objective value equals the coarse objective.
        c = lp.build_matrices()[0]
        assert float(c @ seed) == pytest.approx(coarse.objective, rel=1e-9)
        # The prefix sums satisfy their defining rows
        # S_f(t) - S_f(t-1) - x_f(t) = 0, so refine keeps its warm start.
        sent = seed[bundle.s]
        np.testing.assert_allclose(
            np.diff(sent, axis=1, prepend=0.0), seed[bundle.x], rtol=0, atol=1e-9
        )

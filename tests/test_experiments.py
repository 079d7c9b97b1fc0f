"""Tests for the experiment harness (configs, runner, reporting)."""

import pytest

from repro.coflow.instance import TransmissionModel
from repro.experiments import figures as F
from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    ExperimentConfig,
    get_experiment,
    list_experiments,
)
from repro.experiments.reporting import (
    SERIES_LABELS,
    format_result_table,
    summarize_shape_checks,
)
from repro.experiments.runner import ExperimentResult, run_experiment


class TestConfigs:
    def test_all_paper_figures_present(self):
        for fig in ("fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12"):
            assert fig in ALL_EXPERIMENTS

    def test_ablations_present(self):
        assert any(k.startswith("ablation") for k in ALL_EXPERIMENTS)

    def test_get_experiment_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_list_experiments_sorted(self):
        ids = list_experiments()
        assert list(ids) == sorted(ids)

    def test_single_path_figures_use_single_path_model(self):
        for fig in ("fig09", "fig10"):
            assert ALL_EXPERIMENTS[fig].model is TransmissionModel.SINGLE_PATH
            assert F.SERIES_JAHANJOU in ALL_EXPERIMENTS[fig].series

    def test_terra_figures_are_unweighted(self):
        for fig in ("fig11", "fig12"):
            config = ALL_EXPERIMENTS[fig]
            assert not config.weighted
            assert F.SERIES_TERRA in config.series
            assert config.objective_name == "Total Completion Time"

    def test_epsilon_sweep_configuration(self):
        config = ALL_EXPERIMENTS["fig08"]
        assert config.epsilon_values
        assert config.workloads == ("FB",)

    def test_every_series_has_a_label(self):
        for config in ALL_EXPERIMENTS.values():
            for series in config.series:
                assert series in SERIES_LABELS


@pytest.fixture(scope="module")
def tiny_fig06_result() -> ExperimentResult:
    """A heavily scaled-down fig06 run shared by the reporting tests."""
    config = ExperimentConfig(
        experiment_id="fig06-tiny",
        title="tiny free path experiment",
        topology="swan",
        model=TransmissionModel.FREE_PATH,
        workloads=("BigBench", "FB"),
        series=(
            F.SERIES_LP_BOUND,
            F.SERIES_HEURISTIC,
            F.SERIES_BEST_LAMBDA,
            F.SERIES_AVERAGE_LAMBDA,
        ),
        num_coflows=3,
        num_lambda_samples=3,
        seed=7,
    )
    return run_experiment(config)


class TestRunner:
    def test_values_populated_for_all_workloads(self, tiny_fig06_result):
        assert set(tiny_fig06_result.values) == {"BigBench", "FB"}
        for row in tiny_fig06_result.values.values():
            assert set(row) >= {
                F.SERIES_LP_BOUND,
                F.SERIES_HEURISTIC,
                F.SERIES_BEST_LAMBDA,
                F.SERIES_AVERAGE_LAMBDA,
            }

    def test_lp_bound_is_lower_bound(self, tiny_fig06_result):
        for row in tiny_fig06_result.values.values():
            bound = row[F.SERIES_LP_BOUND]
            for series, value in row.items():
                if series == F.SERIES_LP_BOUND:
                    continue
                assert value >= bound - 1e-6

    def test_best_lambda_not_worse_than_average(self, tiny_fig06_result):
        for row in tiny_fig06_result.values.values():
            assert row[F.SERIES_BEST_LAMBDA] <= row[F.SERIES_AVERAGE_LAMBDA] + 1e-9

    def test_timings_recorded(self, tiny_fig06_result):
        assert tiny_fig06_result.timings["total"] > 0
        assert any(k.startswith("lp[") for k in tiny_fig06_result.timings)

    def test_series_values_accessor(self, tiny_fig06_result):
        values = tiny_fig06_result.series_values(F.SERIES_HEURISTIC)
        assert set(values) == {"BigBench", "FB"}

    def test_ratio_accessor(self, tiny_fig06_result):
        ratios = tiny_fig06_result.ratio_to(F.SERIES_HEURISTIC, F.SERIES_LP_BOUND)
        assert all(r >= 1.0 - 1e-9 for r in ratios.values())

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(get_experiment("fig06"), scale=0.0)

    def test_epsilon_sweep_runner(self):
        config = ExperimentConfig(
            experiment_id="fig08-tiny",
            title="tiny epsilon sweep",
            topology="swan",
            model=TransmissionModel.FREE_PATH,
            workloads=("FB",),
            series=(F.SERIES_INTERVAL_LP_BOUND, F.SERIES_INTERVAL_HEURISTIC),
            num_coflows=3,
            epsilon_values=(0.2, 1.0),
            seed=11,
        )
        result = run_experiment(config)
        assert set(result.values) == {"eps=0.2", "eps=1"}
        # A coarser grid cannot have more variables than a finer one.
        assert (
            result.values["eps=1"]["lp_variables"]
            <= result.values["eps=0.2"]["lp_variables"]
        )


class TestReporting:
    def test_table_contains_labels_and_columns(self, tiny_fig06_result):
        table = format_result_table(tiny_fig06_result)
        assert "Time indexed LP (lower bound)" in table
        assert "BigBench" in table and "FB" in table
        assert "ratio to the LP lower bound" in table

    def test_table_with_explicit_series(self, tiny_fig06_result):
        table = format_result_table(
            tiny_fig06_result, series=[F.SERIES_LP_BOUND], include_ratios=False
        )
        assert "Best lambda" not in table

    def test_shape_checks_pass_on_tiny_run(self, tiny_fig06_result):
        checks = summarize_shape_checks(tiny_fig06_result)
        assert checks["lp_is_lower_bound"]
        assert checks["heuristic_close_to_bound"]


def _hand_built(values, **config) -> ExperimentResult:
    """An experiment result over hand-written rows (no solve)."""
    return ExperimentResult(
        config=ExperimentConfig(
            experiment_id="hand-built",
            title="hand-built rows",
            topology="swan",
            model=TransmissionModel.FREE_PATH,
            **config,
        ),
        values=values,
    )


B, H = F.SERIES_LP_BOUND, F.SERIES_HEURISTIC
BEST, AVG = F.SERIES_BEST_LAMBDA, F.SERIES_AVERAGE_LAMBDA
IB, IH = F.SERIES_INTERVAL_LP_BOUND, F.SERIES_INTERVAL_HEURISTIC

#: A row of every series that satisfies every check.
PASSING_ROW = {
    B: 100.0,
    H: 110.0,
    BEST: 120.0,
    AVG: 150.0,
    F.SERIES_STRETCH_NO_COMPACTION: 160.0,
    F.SERIES_JAHANJOU: 300.0,
    F.SERIES_TERRA: 100.0,
    IB: 90.0,
    IH: 115.0,
    F.SERIES_FIFO: 105.0,
    F.SERIES_WSJF: 95.0,
}

#: (check, the overrides to PASSING_ROW that violate it and nothing else);
#: an override of None drops the series from the row.
VIOLATIONS = [
    ("lp_is_lower_bound", {F.SERIES_STRETCH_NO_COMPACTION: 99.0}),
    # 1.6x passes the 2x threshold this check used to apply.
    ("heuristic_close_to_bound", {H: 160.0, BEST: 165.0, F.SERIES_FIFO: 150.0}),
    ("heuristic_is_best_lambda", {BEST: 109.0}),
    ("average_lambda_within_2x", {AVG: 201.0}),
    # Terra <= 1.5x the heuristic holds; the heuristic > 2x Terra does not.
    ("terra_competitive", {F.SERIES_TERRA: 54.0}),
    ("interval_lp_is_lower_bound", {IH: 89.0}),
    ("heuristic_competitive_with_fifo", {F.SERIES_FIFO: 99.0}),
    # FIFO below half the bound would also put it below the heuristic / 1.1.
    ("greedy_above_half_bound", {F.SERIES_FIFO: 49.0, H: None}),
    ("greedy_above_half_bound", {F.SERIES_WSJF: 49.0}),
]


class TestShapeChecks:
    def test_passing_row_passes_every_check(self):
        checks = summarize_shape_checks(_hand_built({"W": dict(PASSING_ROW)}))
        assert checks and all(checks.values()), checks

    @pytest.mark.parametrize("name,overrides", VIOLATIONS)
    def test_violating_row_fails_only_its_check(self, name, overrides):
        bad = {s: v for s, v in {**PASSING_ROW, **overrides}.items() if v is not None}
        values = {"ok": dict(PASSING_ROW), "bad": bad}
        checks = summarize_shape_checks(_hand_built(values))
        assert {n for n, ok in checks.items() if not ok} == {name}

    def test_checks_need_their_series(self):
        checks = summarize_shape_checks(_hand_built({"W": {B: 1.0, H: 1.2}}))
        assert set(checks) == {"lp_is_lower_bound", "heuristic_close_to_bound"}


def _epsilon_sweep(*points):
    """A hand-built Figure 8 result from (ε, LP variables, heuristic) points."""
    values = {
        f"eps={eps:g}": {IB: 0.5 * heuristic, IH: heuristic, "lp_variables": n}
        for eps, n, heuristic in points
    }
    return _hand_built(values, epsilon_values=tuple(p[0] for p in points))


class TestEpsilonSweepChecks:
    def test_shrinking_lp_with_costlier_schedules_passes(self):
        # Columns in any order: the checks sort them by ε.
        result = _epsilon_sweep((1.0, 100, 130.0), (0.1, 300, 100.0), (0.5, 200, 95.0))
        assert summarize_shape_checks(result) == {
            "interval_lp_is_lower_bound": True,
            "lp_shrinks_with_epsilon": True,
            "coarse_epsilon_costs_quality": True,
        }

    def test_lp_growing_with_epsilon_fails(self):
        result = _epsilon_sweep((0.1, 300, 100.0), (0.5, 200, 110.0), (1.0, 250, 130.0))
        assert summarize_shape_checks(result)["lp_shrinks_with_epsilon"] is False

    @pytest.mark.parametrize("coarsest", [99.0, 501.0])
    def test_coarsest_heuristic_outside_1x_to_5x_fails(self, coarsest):
        result = _epsilon_sweep((0.1, 300, 100.0), (1.0, 100, coarsest))
        assert summarize_shape_checks(result)["coarse_epsilon_costs_quality"] is False

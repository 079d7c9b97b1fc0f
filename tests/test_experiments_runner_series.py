"""Runner coverage for the baseline-heavy experiment series.

``examples/reproduce_figures.py`` exercises these code paths at full size;
these tests do the same on deliberately tiny instances so the branch
coverage lives in the fast unit-test suite as well (single path + Jahanjou +
interval LP series, free path + Terra series, and the Sincronia/greedy
ablation series).
"""

import pytest

from repro.coflow.instance import TransmissionModel
from repro.experiments import figures as F
from repro.experiments.figures import ExperimentConfig
from repro.experiments.reporting import format_result_table, summarize_shape_checks
from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def tiny_singlepath_result():
    config = ExperimentConfig(
        experiment_id="fig09-tiny",
        title="tiny single path comparison",
        topology="swan",
        model=TransmissionModel.SINGLE_PATH,
        workloads=("FB",),
        series=(
            F.SERIES_LP_BOUND,
            F.SERIES_HEURISTIC,
            F.SERIES_INTERVAL_LP_BOUND,
            F.SERIES_INTERVAL_HEURISTIC,
            F.SERIES_JAHANJOU,
        ),
        num_coflows=4,
        epsilon=0.2,
        seed=31,
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def tiny_terra_result():
    config = ExperimentConfig(
        experiment_id="fig11-tiny",
        title="tiny terra comparison",
        topology="swan",
        model=TransmissionModel.FREE_PATH,
        workloads=("TPC-DS",),
        series=(F.SERIES_LP_BOUND, F.SERIES_HEURISTIC, F.SERIES_TERRA),
        weighted=False,
        num_coflows=4,
        seed=37,
    )
    return run_experiment(config)


class TestSinglePathSeries:
    def test_all_series_present(self, tiny_singlepath_result):
        row = tiny_singlepath_result.values["FB"]
        for series in (
            F.SERIES_LP_BOUND,
            F.SERIES_HEURISTIC,
            F.SERIES_INTERVAL_LP_BOUND,
            F.SERIES_INTERVAL_HEURISTIC,
            F.SERIES_JAHANJOU,
        ):
            assert series in row
            assert row[series] > 0

    def test_heuristic_beats_jahanjou(self, tiny_singlepath_result):
        row = tiny_singlepath_result.values["FB"]
        assert row[F.SERIES_HEURISTIC] <= row[F.SERIES_JAHANJOU] + 1e-6

    def test_interval_heuristic_respects_its_bound(self, tiny_singlepath_result):
        row = tiny_singlepath_result.values["FB"]
        assert row[F.SERIES_INTERVAL_HEURISTIC] >= row[F.SERIES_INTERVAL_LP_BOUND] - 1e-6

    def test_shape_checks_and_table(self, tiny_singlepath_result):
        checks = summarize_shape_checks(tiny_singlepath_result)
        assert checks["lp_is_lower_bound"]
        assert checks["heuristic_beats_jahanjou"]
        table = format_result_table(tiny_singlepath_result)
        assert "Jahanjou et al." in table

    def test_timings_include_jahanjou(self, tiny_singlepath_result):
        assert "jahanjou" in tiny_singlepath_result.timings
        assert "interval_lp" in tiny_singlepath_result.timings


class TestTerraSeries:
    def test_unweighted_objective_used(self, tiny_terra_result):
        row = tiny_terra_result.values["TPC-DS"]
        # The LP bound column must be the unweighted completion-time sum
        # (weights were forced to 1 anyway for this config).
        assert row[F.SERIES_LP_BOUND] > 0
        assert row[F.SERIES_TERRA] > 0

    def test_terra_competitive_with_heuristic(self, tiny_terra_result):
        row = tiny_terra_result.values["TPC-DS"]
        assert row[F.SERIES_TERRA] <= 2.0 * row[F.SERIES_HEURISTIC]
        assert row[F.SERIES_HEURISTIC] <= 2.0 * row[F.SERIES_TERRA]

    def test_shape_checks(self, tiny_terra_result):
        checks = summarize_shape_checks(tiny_terra_result)
        assert checks["lp_is_lower_bound"]
        assert checks.get("terra_competitive", True)


class TestSincroniaSeries:
    def test_runner_computes_sincronia(self):
        config = ExperimentConfig(
            experiment_id="ablation-baselines-tiny",
            title="tiny sincronia comparison",
            topology="swan",
            model=TransmissionModel.FREE_PATH,
            workloads=("BigBench",),
            series=(F.SERIES_LP_BOUND, F.SERIES_HEURISTIC, F.SERIES_SINCRONIA),
            num_coflows=4,
            seed=41,
        )
        result = run_experiment(config)
        row = result.values["BigBench"]
        assert row[F.SERIES_SINCRONIA] > 0
        # The BSSI ordering with exact rate allocation stays within a small
        # factor of the LP bound on these tiny instances.
        assert row[F.SERIES_SINCRONIA] <= 4.0 * row[F.SERIES_LP_BOUND]
        table = format_result_table(result)
        assert "Sincronia-style BSSI" in table


class TestRunnerLPReuse:
    """Each workload solves its LP once; every series reads that solve."""

    def _config(self):
        return ExperimentConfig(
            experiment_id="reuse-tiny",
            title="tiny shared-LP run",
            topology="swan",
            model=TransmissionModel.FREE_PATH,
            workloads=("FB", "TPC-DS"),
            series=(
                F.SERIES_LP_BOUND,
                F.SERIES_HEURISTIC,
                F.SERIES_BEST_LAMBDA,
                F.SERIES_FIFO,
            ),
            num_coflows=3,
            seed=11,
        )

    def test_one_lp_solve_per_workload(self, lp_solves):
        run_experiment(self._config())
        assert lp_solves == ["reuse-tiny-FB", "reuse-tiny-TPC-DS"]

    def test_repeated_run_gives_identical_values(self):
        config = self._config()
        assert run_experiment(config).values == run_experiment(config).values

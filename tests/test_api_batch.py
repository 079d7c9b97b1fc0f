"""Tests for the repro.api batch runner (solve_many) and its parallel path."""

import time
from pathlib import Path

import numpy as np
import pytest

import repro.api.batch as batch_module
from repro import api
from repro.api import SolverConfig, UnknownAlgorithmError, solve_many
from repro.api.batch import parallel_map
from repro.core.timeindexed import resolve_grid, solve_time_indexed_lp
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.network.topologies import paper_example_topology, swan_topology
from repro.workloads.generator import WorkloadSpec, generate_instance

ALGORITHMS = ("lp-heuristic", "stretch-best", "fifo")
CORE_ALGORITHMS = ("lp-heuristic", "stretch", "stretch-best", "stretch-average")


def make_instances(count: int) -> list:
    """*count* small free-path instances with varying demands."""
    graph = paper_example_topology()
    instances = []
    for k in range(count):
        coflows = [
            Coflow([Flow("v1", "t", 1.0 + 0.25 * k)], name="a", weight=1.0),
            Coflow([Flow("v2", "t", 1.0)], name="b", weight=2.0),
            Coflow([Flow("s", "t", 2.0 + 0.5 * (k % 3))], name="c", weight=1.0),
        ]
        instances.append(
            CoflowInstance(graph, coflows, model="free_path", name=f"batch-{k}")
        )
    return instances


def assert_solved_on_a_prefix(solution, requested) -> None:
    """*solution* answers the request for *requested* and was solved on a
    prefix of it (the certified horizon of a default uniform request)."""
    assert solution.metadata["request"]["grid"] == requested.boundary_digest()
    solved = solution.grid.boundaries
    np.testing.assert_array_equal(solved, requested.boundaries[: solved.size])


@pytest.fixture(scope="module")
def instances():
    return make_instances(8)


@pytest.fixture(scope="module")
def swan_single_path():
    """6 FB coflows on SWAN, single path, seed 3: 21 uniform slots at slot
    length 0.5, long enough that an ε = 0.2 grid differs from the uniform
    one."""
    spec = WorkloadSpec(profile="FB", num_coflows=6, seed=3)
    return generate_instance(swan_topology(), spec, model="single_path", rng=3)


@pytest.fixture(scope="module")
def serial_reports(instances):
    return solve_many(
        instances, ALGORITHMS, config=SolverConfig(rng=5, num_samples=3)
    )


class TestSolveManySerial:
    def test_count_and_order(self, instances, serial_reports):
        assert len(serial_reports) == len(instances) * len(ALGORITHMS)
        for i, instance in enumerate(instances):
            for k, algorithm in enumerate(ALGORITHMS):
                report = serial_reports[i * len(ALGORITHMS) + k]
                assert report.instance.name == instance.name
                assert report.algorithm == algorithm

    def test_objectives_match_single_solves(self, instances, serial_reports):
        # Deterministic algorithms must agree with one-off api.solve calls.
        for i, instance in enumerate(instances):
            report = serial_reports[i * len(ALGORITHMS)]
            single = api.solve(instance, "lp-heuristic")
            assert report.objective == pytest.approx(single.objective, rel=1e-9)
            fifo = serial_reports[i * len(ALGORITHMS) + 2]
            assert fifo.objective == pytest.approx(
                api.solve(instance, "fifo").objective, rel=1e-9
            )

    def test_shared_lp_attached_to_all_reports(self, serial_reports):
        for i in range(0, len(serial_reports), len(ALGORITHMS)):
            group = serial_reports[i : i + len(ALGORITHMS)]
            lp = group[0].lp_solution
            assert lp is not None
            # stretch-best reuses the exact same LP solve; fifo inherits the
            # bound from it.
            assert group[1].lp_solution is lp
            assert group[2].lower_bound == pytest.approx(lp.objective)

    def test_reports_feasible_with_correct_objectives(self, serial_reports):
        for report in serial_reports:
            assert report.is_feasible
            assert report.objective == pytest.approx(
                float(
                    np.dot(
                        report.instance.weights, report.coflow_completion_times
                    )
                ),
                rel=1e-9,
            )
            if api.get_algorithm(report.algorithm).uses_shared_lp:
                # Grid-based algorithms can never beat the LP relaxation
                # (continuous-time baselines can, at coarse slot granularity).
                assert report.objective >= report.lower_bound - 1e-6


class TestSolveManyParallel:
    def test_parallel_matches_serial(self, instances, serial_reports):
        parallel_reports = solve_many(
            instances,
            ALGORITHMS,
            config=SolverConfig(rng=5, num_samples=3),
            parallel=4,
        )
        assert len(parallel_reports) == 24
        for serial, parallel in zip(serial_reports, parallel_reports):
            assert parallel.algorithm == serial.algorithm
            assert parallel.instance.name == serial.instance.name
            # Identical including the randomized stretch-best series: the
            # per-instance child generators are derived deterministically.
            assert parallel.objective == pytest.approx(serial.objective, rel=1e-9)
            np.testing.assert_allclose(
                parallel.coflow_completion_times,
                serial.coflow_completion_times,
                rtol=1e-9,
            )


    def test_custom_algorithm_falls_back_to_serial_with_a_warning(
        self, instances, monkeypatch, custom_algorithm
    ):
        monkeypatch.setattr(batch_module, "_effective_start_method", lambda: "spawn")
        monkeypatch.setattr(batch_module, "ProcessPoolExecutor", None)  # no pool
        with pytest.warns(
            RuntimeWarning, match="not importable.*running serially"
        ) as record:
            reports = solve_many(
                instances[:2], ("fifo", custom_algorithm), parallel=2
            )
        assert record[0].filename == __file__  # names the caller's line
        assert [r.algorithm for r in reports] == ["fifo", custom_algorithm] * 2


def _sleep_then_mark(directory: str, index: int, seconds: float) -> int:
    """Pool task: sleep, then leave a marker file named *index*."""
    time.sleep(seconds)
    (Path(directory) / str(index)).touch()
    return index


class TestParallelMap:
    def test_pool_yields_in_task_order(self, tmp_path):
        # Task 0 finishes after task 1, and still comes first.
        tasks = [(str(tmp_path), i, 0.3 if i == 0 else 0.0) for i in range(4)]
        results = parallel_map(_sleep_then_mark, tasks, parallel=2, algorithms=())
        assert list(results) == [0, 1, 2, 3]

    @pytest.mark.parametrize("taken", [1, 3])
    def test_pool_runs_at_most_parallel_tasks_ahead_of_the_consumer(
        self, tmp_path, taken
    ):
        tasks = [(str(tmp_path), i, 0.0) for i in range(20)]
        results = parallel_map(_sleep_then_mark, tasks, parallel=2, algorithms=())
        assert [next(results) for _ in range(taken)] == list(range(taken))
        results.close()  # returns once the tasks in flight have ended
        # The taken results, and the one task submitted behind the last.
        assert sorted(int(p.name) for p in tmp_path.iterdir()) == list(
            range(taken + 1)
        )


class TestSolveManyValidation:
    def test_unknown_algorithm_fails_fast(self, instances):
        with pytest.raises(UnknownAlgorithmError, match="registered algorithms"):
            solve_many(instances[:2], ["lp-heuristic", "nope"])

    def test_model_mismatch_fails_fast(self, instances):
        with pytest.raises(ValueError, match="does not support"):
            solve_many(instances[:2], ["jahanjou"])

    def test_empty_algorithms_rejected(self, instances):
        with pytest.raises(ValueError, match="at least one"):
            solve_many(instances[:2], [])

    def test_single_algorithm_as_string(self, instances):
        reports = solve_many(instances[:2], "fifo")
        assert [r.algorithm for r in reports] == ["fifo", "fifo"]


class TestSharedLPGridKeying:
    """The shared LP is only reused for the request it answers."""

    def test_matching_grid_is_reused(self, instances):
        instance = instances[0]
        shared = solve_time_indexed_lp(instance)
        report = api.solve(instance, "lp-heuristic", lp_solution=shared)
        assert report.lp_solution is shared

    def test_epsilon_mismatch_triggers_fresh_solve(self, caplog):
        import logging

        # Demands large enough that the geometric eps-grid genuinely differs
        # from the uniform grid (for short horizons the two coincide and
        # reuse would be legitimate).
        graph = paper_example_topology()
        coflows = [
            Coflow([Flow("v1", "t", 6.0)], name="a"),
            Coflow([Flow("s", "t", 9.0)], name="b"),
        ]
        instance = CoflowInstance(graph, coflows, model="free_path")
        shared = solve_time_indexed_lp(instance)  # uniform grid
        with caplog.at_level(logging.DEBUG, logger="repro.core.scheduler"):
            report = api.solve(
                instance, "lp-heuristic", lp_solution=shared, epsilon=0.4
            )
        # The mismatched shared solution must not be reused...
        assert report.lp_solution is not shared
        assert not report.lp_solution.grid.is_uniform
        # ...and the skip is logged at debug level.
        assert any(
            "shared LP reuse skipped" in record.message for record in caplog.records
        )

    @pytest.mark.parametrize(
        "grid_kwargs",
        [{"slot_length": 0.5}, {"epsilon": 0.2}, {"num_slots": 40}],
        ids=["slot_length", "epsilon", "num_slots"],
    )
    def test_same_request_is_reused(self, swan_single_path, grid_kwargs):
        # Every grid specification is reused for the request it answers,
        # not re-solved by each algorithm.
        shared = solve_time_indexed_lp(swan_single_path, **grid_kwargs)
        report = api.solve(
            swan_single_path, "lp-heuristic", lp_solution=shared, **grid_kwargs
        )
        assert report.lp_solution is shared

    def test_slot_length_mismatch_triggers_fresh_solve(self, swan_single_path):
        shared = solve_time_indexed_lp(swan_single_path, slot_length=0.5)
        report = api.solve(
            swan_single_path, "lp-heuristic", lp_solution=shared, slot_length=0.25
        )
        assert report.lp_solution is not shared
        assert_solved_on_a_prefix(
            report.lp_solution, resolve_grid(swan_single_path, slot_length=0.25)
        )

    def test_explicit_grid_mismatch_triggers_fresh_solve(self, instances):
        from repro.schedule.timegrid import TimeGrid

        instance = instances[0]
        shared = solve_time_indexed_lp(instance)
        other_grid = TimeGrid.uniform(shared.grid.num_slots + 3, 1.0)
        report = api.solve(
            instance, "lp-heuristic", lp_solution=shared, grid=other_grid
        )
        assert report.lp_solution is not shared
        assert report.lp_solution.grid == other_grid

    def test_batch_reuses_one_lp_per_instance(self, instances):
        # Both shared-lp algorithms of one request must hold the same LP
        # solution object (one solve per instance).
        reports = solve_many(
            instances[:2],
            ("lp-heuristic", "stretch-best"),
            config=SolverConfig(rng=1, num_samples=2),
        )
        for i in range(2):
            a = reports[2 * i]
            b = reports[2 * i + 1]
            assert a.lp_solution is b.lp_solution

    def test_batch_solves_one_lp_per_instance(self, instances, lp_solves):
        solve_many(
            instances[:3],
            CORE_ALGORITHMS + ("fifo",),
            config=SolverConfig(rng=1, num_samples=2),
        )
        assert lp_solves == [instance.name for instance in instances[:3]]

    def test_lp_free_batch_solves_no_lp(self, instances, lp_solves):
        reports = solve_many(instances[:2], ("fifo", "sincronia", "terra"))
        assert lp_solves == []
        assert all(report.lp_solution is None for report in reports)


class TestSolveSecondsSentinel:
    """Regression: a measured 0.0 was treated as "unset" and clobbered."""

    def _register(self, name, solve_seconds):
        from repro.api.registry import register_algorithm
        from repro.api.report import SolveReport

        @register_algorithm(name, description="test stub")
        def _stub(instance, config, lp_solution=None):
            return SolveReport(
                algorithm=name,
                instance=instance,
                objective=1.0,
                coflow_completion_times=np.ones(instance.num_coflows),
                solve_seconds=solve_seconds,
            )

    def test_measured_zero_is_preserved(self, instances):
        from repro.api.registry import _REGISTRY

        self._register("test-zero-seconds", 0.0)
        try:
            report = api.solve(instances[0], "test-zero-seconds")
            # A coarse clock can legitimately measure 0.0; solve() must not
            # overwrite it with its own wall-clock measurement.
            assert report.solve_seconds == 0.0
        finally:
            _REGISTRY.pop("test-zero-seconds", None)

    def test_unset_none_is_filled_in(self, instances):
        from repro.api.registry import _REGISTRY

        self._register("test-none-seconds", None)
        try:
            report = api.solve(instances[0], "test-none-seconds")
            assert report.solve_seconds is not None
            assert report.solve_seconds > 0.0
        finally:
            _REGISTRY.pop("test-none-seconds", None)

    def test_every_builtin_reports_a_measured_time(self, instances):
        for name in ("lp-heuristic", "stretch-average", "fifo", "terra"):
            report = api.solve(
                instances[0], name, rng=0, num_samples=2
            )
            assert report.solve_seconds is not None
            assert report.solve_seconds >= 0.0


class TestStartMethodNotLocked:
    """Regression: solve_many's start-method probe pinned the global method."""

    def test_effective_start_method_does_not_resolve(self):
        # Must run in a pristine interpreter: anything else in this test
        # session may already have resolved the start method legitimately.
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import multiprocessing
            from repro.api.batch import _effective_start_method

            method = _effective_start_method()
            assert method in multiprocessing.get_all_start_methods(), method
            # The probe itself must not have resolved the global context...
            assert multiprocessing.get_start_method(allow_none=True) is None
            # ...so the user can still choose a start method afterwards.
            multiprocessing.set_start_method("spawn")
            assert multiprocessing.get_start_method() == "spawn"
            print("OK")
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout


class TestSolveGridThreading:
    """The config's grid fields flow from SolverConfig through to the LP."""

    def test_default_grid_is_the_suggested_uniform_horizon(self):
        instance = make_instances(1)[0]
        report = api.solve(instance, "lp-heuristic")
        assert report.lp_solution.grid.is_uniform
        assert_solved_on_a_prefix(report.lp_solution, resolve_grid(instance))

    def test_slot_length_override_reaches_the_lp(self):
        instance = make_instances(1)[0]
        report = api.solve(instance, "lp-heuristic", slot_length=0.25)
        grid = report.lp_solution.grid
        assert_solved_on_a_prefix(
            report.lp_solution, resolve_grid(instance, slot_length=0.25)
        )
        np.testing.assert_allclose(grid.durations, 0.25)

    def test_config_epsilon_field(self, swan_single_path):
        config = SolverConfig(epsilon=0.2)
        report = api.solve(swan_single_path, "lp-heuristic", config=config)
        grid = report.lp_solution.grid
        assert grid == resolve_grid(swan_single_path, epsilon=0.2)
        assert grid != resolve_grid(swan_single_path)

    @pytest.mark.parametrize(
        "grid_kwargs",
        [{"slot_length": 0.5}, {"epsilon": 0.2}],
        ids=["slot_length", "epsilon"],
    )
    def test_solve_many_shares_the_requested_grid(self, swan_single_path, grid_kwargs):
        # Regression: solve_many's shared LP dropped config fields, so core
        # reports came back on an LP the config did not ask for.
        config = SolverConfig(rng=0, **grid_kwargs)
        expected = resolve_grid(swan_single_path, **grid_kwargs)
        reports = solve_many(
            [swan_single_path],
            CORE_ALGORITHMS + ("fifo", "jahanjou"),
            config=config,
        )
        core = [r for r in reports if r.algorithm in CORE_ALGORITHMS]
        assert len(core) == len(CORE_ALGORITHMS)
        for report in core:
            assert_solved_on_a_prefix(report.lp_solution, expected)
            assert report.lp_solution is core[0].lp_solution
        single = api.solve(swan_single_path, "lp-heuristic", config=config)
        assert_solved_on_a_prefix(single.lp_solution, expected)
        assert single.lower_bound == pytest.approx(core[0].lower_bound)
        # Jahanjou solves its own interval LP, at epsilon = 0.2 the same
        # program as the shared one; beside the core algorithms it schedules
        # exactly as it does alone.
        batched = reports[-1]
        alone = api.solve(swan_single_path, "jahanjou", config=config)
        assert batched.algorithm == "jahanjou"
        assert batched.objective == alone.objective
        np.testing.assert_array_equal(
            batched.coflow_completion_times, alone.coflow_completion_times
        )

    def test_baselines_have_no_lp_solution(self):
        # An LP-free baseline solved standalone gets no shared LP.
        report = api.solve(make_instances(1)[0], "fifo")
        assert report.lp_solution is None

"""Injected-bug tests: every invariant must demonstrably catch the class of
bug it exists for.

Each test takes a *clean* scenario run (which passes the full invariant
suite), injects one specific bug — a perturbed LP coefficient, a diverging
incremental simulation, an oversubscribed schedule, an impossible objective,
corrupted ordering metadata — and asserts that exactly the responsible
invariant reports a violation.  This is the harness's own verification: a
suite that cannot catch a planted bug would give false confidence.
"""

import numpy as np
import pytest

import repro.scenarios.invariants as invariants_module
from repro.api.request import SolverConfig
from repro.scenarios import build_scenario, check_invariants, execute_scenario
from repro.scenarios.invariants import (
    ScenarioRun,
    get_invariant,
    invariant_names,
    register_invariant,
)


@pytest.fixture(scope="module")
def free_run() -> ScenarioRun:
    """One fully-solved free path scenario (online-poisson starts free path)."""
    run = execute_scenario(build_scenario("online-poisson", 0, 123))
    assert run.instance.model.value == "free_path"
    return run


@pytest.fixture(scope="module")
def single_run() -> ScenarioRun:
    """One fully-solved single path scenario (bursty starts single path)."""
    run = execute_scenario(build_scenario("bursty-arrivals", 0, 123))
    assert run.instance.model.value == "single_path"
    return run


def violations_of(run: ScenarioRun, invariant: str):
    return check_invariants(run, invariants=[invariant])[invariant]


class TestCleanRunsPass:
    def test_free_path_run_is_clean(self, free_run):
        assert not free_run.errors
        results = check_invariants(free_run)
        assert {name: msgs for name, msgs in results.items() if msgs} == {}

    def test_single_path_run_is_clean(self, single_run):
        assert not single_run.errors
        results = check_invariants(single_run)
        assert {name: msgs for name, msgs in results.items() if msgs} == {}

    def test_all_builtin_invariants_ran(self, free_run):
        assert set(check_invariants(free_run)) == set(invariant_names())


class TestLpMatrixBugCaught:
    def test_perturbed_rhs_is_caught(self, free_run, monkeypatch):
        real = invariants_module.build_time_indexed_lp_reference

        # An off-by-epsilon in one right-hand side — exactly the sort of bug
        # a vectorization refactor could introduce.  LinearProgram internals
        # are private, so corrupt through the public build path by wrapping
        # build_matrices on the built object.
        def buggy_via_matrices(instance, grid):
            lp, bundle = real(instance, grid)
            original = lp.build_matrices

            def patched():
                c, a_ub, b_ub, a_eq, b_eq, bounds = original()
                b_ub = np.array(b_ub, dtype=float)
                b_ub[0] += 1e-3
                return c, a_ub, b_ub, a_eq, b_eq, bounds

            lp.build_matrices = patched
            return lp, bundle

        monkeypatch.setattr(
            invariants_module,
            "build_time_indexed_lp_reference",
            buggy_via_matrices,
        )
        messages = violations_of(free_run, "lp-matrix")
        assert messages and any("b_ub" in m for m in messages)

    def test_perturbed_matrix_value_is_caught(self, single_run, monkeypatch):
        real = invariants_module.build_time_indexed_lp

        def buggy(instance, grid):
            lp, bundle = real(instance, grid)
            original = lp.build_matrices

            def patched():
                c, a_ub, b_ub, a_eq, b_eq, bounds = original()
                a_ub = a_ub.copy()
                a_ub.data[0] *= 1.0 + 1e-6
                return c, a_ub, b_ub, a_eq, b_eq, bounds

            lp.build_matrices = patched
            return lp, bundle

        monkeypatch.setattr(invariants_module, "build_time_indexed_lp", buggy)
        messages = violations_of(single_run, "lp-matrix")
        assert messages and any("A_ub" in m for m in messages)

    def test_perturbed_objective_is_caught(self, free_run, monkeypatch):
        real = invariants_module.build_time_indexed_lp

        def buggy(instance, grid):
            lp, bundle = real(instance, grid)
            original = lp.build_matrices

            def patched():
                c, a_ub, b_ub, a_eq, b_eq, bounds = original()
                c = np.array(c, dtype=float)
                c[-1] += 0.5
                return c, a_ub, b_ub, a_eq, b_eq, bounds

            lp.build_matrices = patched
            return lp, bundle

        monkeypatch.setattr(invariants_module, "build_time_indexed_lp", buggy)
        messages = violations_of(free_run, "lp-matrix")
        assert messages and any("objective" in m for m in messages)


class TestIncrementalSimBugCaught:
    def test_diverging_completion_times_are_caught(self, free_run, monkeypatch):
        real = invariants_module.simulate_priority_schedule

        def buggy(instance, priority, *, incremental=True, **kwargs):
            result = real(instance, priority, incremental=incremental, **kwargs)
            if incremental:
                # A stale-cache bug: one coflow's completion drifts.
                result.coflow_completion_times = (
                    result.coflow_completion_times.copy()
                )
                result.coflow_completion_times[0] += 1e-4
            return result

        monkeypatch.setattr(
            invariants_module, "simulate_priority_schedule", buggy
        )
        messages = violations_of(free_run, "incremental-sim")
        assert messages and any("completion times diverge" in m for m in messages)

    def test_event_count_divergence_is_caught(self, single_run, monkeypatch):
        real = invariants_module.simulate_priority_schedule

        def buggy(instance, priority, *, incremental=True, **kwargs):
            result = real(instance, priority, incremental=incremental, **kwargs)
            if incremental:
                result.metadata = dict(result.metadata)
                result.metadata["events"] = result.metadata["events"] + 1
            return result

        monkeypatch.setattr(
            invariants_module, "simulate_priority_schedule", buggy
        )
        messages = violations_of(single_run, "incremental-sim")
        assert messages and any("event counts diverge" in m for m in messages)


class TestFeasibilityBugCaught:
    def test_oversubscribed_schedule_is_caught(self, single_run):
        run = ScenarioRun(
            scenario=single_run.scenario,
            config=single_run.config,
            lp_solution=single_run.lp_solution,
            reports=dict(single_run.reports),
        )
        report = run.reports["lp-heuristic"]
        corrupted = report.schedule.copy()
        corrupted.fractions *= 3.0  # ships 3x the demand: breaks Eq. 1 + Eq. 6
        run.reports["lp-heuristic"] = _with_schedule(report, corrupted)
        messages = violations_of(run, "schedule-feasibility")
        assert messages and "lp-heuristic" in messages[0]

    def test_early_transmission_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        release = run.instance.flow_release_times()
        assert release.max() > 0, "online-poisson must stagger arrivals"
        report = run.reports["lp-heuristic"]
        corrupted = report.schedule.copy()
        # Transmit the latest-released flow in slot 0, before its release.
        late_flow = int(np.argmax(release))
        corrupted.fractions[late_flow, 0] = 0.5
        run.reports["lp-heuristic"] = _with_schedule(report, corrupted)
        messages = violations_of(run, "schedule-feasibility")
        assert messages and "lp-heuristic" in messages[0]

    def test_split_that_drops_a_path_is_caught(self, monkeypatch):
        import repro.core.timeindexed as timeindexed

        real = timeindexed._commodity_paths
        dropped = []

        def drops_one_path(*args):
            paths = real(*args)
            if paths and not dropped:
                # The planted bug: the widest path of the first commodity
                # slot with any flow goes missing from the split.
                dropped.append(max(paths, key=lambda path: path[2]))
                paths = [path for path in paths if path is not dropped[0]]
            return paths

        monkeypatch.setattr(timeindexed, "_commodity_paths", drops_one_path)
        # verify=False: the solve path's own feasibility check would reject
        # the schedule before the invariant could see it.
        run = execute_scenario(
            build_scenario("online-poisson", 0, 123),
            config=SolverConfig(verify=False),
            algorithms=["lp-heuristic"],
        )
        assert dropped and not run.errors
        messages = violations_of(run, "schedule-feasibility")
        assert messages and "lp-heuristic" in messages[0]
        assert "net outflow" in messages[0] or "net inflow" in messages[0]


class TestLowerBoundBugCaught:
    def test_objective_below_bound_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["lp-heuristic"])
        report.objective = report.lower_bound * 0.5
        run.reports["lp-heuristic"] = report
        messages = violations_of(run, "lp-lower-bound")
        assert messages and "below LP lower bound" in messages[0]

    def test_continuous_time_baselines_are_exempt(self, free_run):
        # Terra legitimately beating the slotted bound must NOT violate.
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["terra"])
        report.objective = (report.lower_bound or 1.0) * 0.5
        run.reports["terra"] = report
        assert violations_of(run, "lp-lower-bound") == []


class TestOrderingBugsCaught:
    def test_corrupted_standalone_times_are_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["terra"])
        recorded = np.asarray(report.extras["standalone_times"], dtype=float)
        report.extras = {**report.extras, "standalone_times": recorded * 1.7}
        run.reports["terra"] = report
        messages = violations_of(run, "baseline-ordering")
        assert messages and "standalone times disagree" in messages[0]

    def test_corrupted_sincronia_order_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["sincronia"])
        order = list(report.extras["order"])
        order[0] = order[-1]  # no longer a permutation
        report.extras = {**report.extras, "order": order}
        run.reports["sincronia"] = report
        messages = violations_of(run, "baseline-ordering")
        assert messages and "sincronia" in messages[0]


class TestReportConsistencyBugsCaught:
    def test_negative_completion_time_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["fifo"])
        times = report.coflow_completion_times.copy()
        times[0] = -1.0
        report.coflow_completion_times = times
        report.objective = float(np.dot(run.instance.weights, times))
        run.reports["fifo"] = report
        messages = violations_of(run, "report-consistency")
        assert any("negative completion times" in m for m in messages)

    def test_completion_before_release_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        release = run.instance.coflow_release_times()
        latest = int(np.argmax(release))
        if release[latest] <= 0:
            pytest.skip("scenario has no positive release times")
        report = _clone_report(run.reports["fifo"])
        times = report.coflow_completion_times.copy()
        times[latest] = release[latest] / 2.0
        report.coflow_completion_times = times
        report.objective = float(np.dot(run.instance.weights, times))
        run.reports["fifo"] = report
        messages = violations_of(run, "report-consistency")
        assert any("before its release time" in m for m in messages)

    def test_objective_mismatch_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["sebf"])
        report.objective = report.objective + 1.0
        run.reports["sebf"] = report
        messages = violations_of(run, "report-consistency")
        assert any("weighted completion time" in m for m in messages)


class TestOnlineBugsCaught:
    """The injected 'schedule before release' bug class and its two catchers."""

    def test_service_before_release_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        release = run.instance.coflow_release_times()
        latest = int(np.argmax(release))
        assert release[latest] > 0, "online-poisson must stagger arrivals"
        report = _clone_report(run.reports["online-wsjf"])
        first = list(report.extras["first_service_times"])
        first[latest] = 0.0  # served at t = 0, before its release
        report.extras = {**report.extras, "first_service_times": first}
        run.reports["online-wsjf"] = report
        messages = violations_of(run, "online-release-respect")
        assert any("before its release time" in m for m in messages)

    def test_batch_starting_before_release_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["online-batch"])
        batches = [dict(b) for b in report.extras["batches"]]
        release = run.instance.coflow_release_times()
        # Move the batch holding the latest-released coflow to t = 0.
        latest = int(np.argmax(release))
        for batch in batches:
            if latest in batch["coflow_indices"]:
                batch["start_time"] = 0.0
        report.extras = {**report.extras, "batches": batches}
        run.reports["online-batch"] = report
        messages = violations_of(run, "online-release-respect")
        assert any("batch" in m and "release" in m for m in messages)

    def test_missing_service_evidence_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["online-resolve"])
        report.extras = {
            k: v for k, v in report.extras.items() if k != "first_service_times"
        }
        run.reports["online-resolve"] = report
        messages = violations_of(run, "online-release-respect")
        assert any("no first-service evidence" in m for m in messages)

    def test_engine_level_early_dispatch_bug_is_caught(self, free_run, monkeypatch):
        """Inject the bug at its source: an engine that ignores release
        times and batches everything at t = 0 must be flagged by both online
        invariants on a re-executed scenario."""
        import repro.online.engine as engine_module
        from repro.scenarios.verify import execute_scenario

        original = engine_module.OnlineEngine._run_batching

        def buggy(self, policy):
            result = original(self, policy)
            # The "scheduler" shifts every batch (and therefore every
            # completion and first service) to start at time 0.
            shift = {}
            for batch in result.batches:
                shift.update({j: batch.start_time for j in batch.coflow_indices})
                batch.start_time = 0.0
            times = result.coflow_completion_times.copy()
            for j, start in shift.items():
                times[j] -= start
            result.coflow_completion_times = times
            result.metadata["first_service_times"] = [
                None if t is None else 0.0
                for t in result.metadata["first_service_times"]
            ]
            return result

        monkeypatch.setattr(engine_module.OnlineEngine, "_run_batching", buggy)
        run = execute_scenario(
            free_run.scenario, algorithms=["online-batch", "lp-heuristic"]
        )
        assert not run.errors
        release_violations = violations_of(run, "online-release-respect")
        bound_violations = violations_of(run, "online-lower-bound")
        assert release_violations, "release-respect must catch the early dispatch"
        assert bound_violations, "the clairvoyant bound must catch the early finish"

    def test_completion_below_clairvoyant_floor_is_caught(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["online-batch"])
        times = report.coflow_completion_times * 0.01  # impossibly fast
        report.coflow_completion_times = times
        report.objective = float(np.dot(run.instance.weights, times))
        run.reports["online-batch"] = report
        messages = violations_of(run, "online-lower-bound")
        assert any("clairvoyant" in m for m in messages)

    def test_offline_algorithms_are_exempt_from_online_invariants(self, free_run):
        run = _shallow_copy(free_run)
        report = _clone_report(run.reports["lp-heuristic"])
        report.extras = {**report.extras, "first_service_times": None}
        run.reports["lp-heuristic"] = report
        assert violations_of(run, "online-release-respect") == []
        assert violations_of(run, "online-lower-bound") == []


class TestHorizonCertificateBugCaught:
    """A default uniform LP stops growing its horizon only on a certificate.

    zipf-sizes #1 is optimal on its first, 2-slot prefix, but that optimum
    sends in the last slot; the certified horizon is 3 slots."""

    @staticmethod
    def _run():
        return execute_scenario(
            build_scenario("zipf-sizes", 1, 123), algorithms=["lp-heuristic"]
        )

    def test_clean_run_passes(self, free_run, single_run):
        run = self._run()
        rounds = run.lp_solution.metadata["horizon_rounds"]
        assert [slots for slots, _ in rounds] == [2, 3]
        for clean in (run, free_run, single_run):
            assert violations_of(clean, "horizon-certificate") == []

    def test_accepting_the_first_optimal_round_is_caught(self, monkeypatch):
        import repro.core.timeindexed as timeindexed

        def first_optimal(instance, grid, result, bundle):
            return result.is_optimal  # the planted bug: no last-slot check

        monkeypatch.setattr(timeindexed, "_horizon_certified", first_optimal)
        run = self._run()
        assert run.lp_solution.metadata["horizon_rounds"] == [(2, "optimal")]
        messages = violations_of(run, "horizon-certificate")
        assert messages and any("last solved slot" in m for m in messages)


class TestInvariantRegistry:
    def test_unknown_invariant_rejected(self, free_run):
        with pytest.raises(ValueError, match="unknown invariant"):
            check_invariants(free_run, invariants=["nope"])

    def test_crashing_invariant_reports_itself(self, free_run):
        @register_invariant("crashy", description="always raises")
        def _crashy(run):
            raise RuntimeError("boom")

        try:
            messages = violations_of(free_run, "crashy")
            assert messages == ["invariant raised RuntimeError: boom"]
        finally:
            invariants_module._REGISTRY.pop("crashy", None)

    def test_descriptions_present(self):
        for name in invariant_names():
            assert get_invariant(name).description


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _shallow_copy(run: ScenarioRun) -> ScenarioRun:
    return ScenarioRun(
        scenario=run.scenario,
        config=run.config,
        lp_solution=run.lp_solution,
        reports=dict(run.reports),
        errors=dict(run.errors),
    )


def _clone_report(report):
    import copy

    clone = copy.copy(report)
    clone.extras = dict(report.extras)
    return clone


def _with_schedule(report, schedule):
    clone = _clone_report(report)
    clone.schedule = schedule
    return clone

"""Tests of the benchmark's own arithmetic, checks and metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_times_subtract_direct_children_only():
    spans = [
        tracing.Span("api", 0.0, 10.0),
        tracing.Span("lp_solve", 1.0, 4.0, parent=0),
        tracing.Span("lp_build", 2.0, 3.0, parent=1),
        tracing.Span("stretch", 5.0, 7.0, parent=0),
        tracing.Span("lp_solve", 11.0, 12.5),
    ]
    own = tracing.self_times(spans)
    assert own["api"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own["lp_solve"] == pytest.approx((3.0 - 1.0) + 1.5)
    assert own["lp_build"] == pytest.approx(1.0)
    assert own["stretch"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(tracing.covered_time(spans))
    assert tracing.covered_time(spans) == pytest.approx(11.5)


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("outer"):
        pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None]
    assert all(s.end >= s.start for s in tracer.spans)
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(tracing.covered_time(tracer.spans))


def test_instrument_wraps_from_imports_and_restores():
    import repro.core.timeindexed as timeindexed
    import repro.lp.solver as solver

    original = solver.solve_lp
    assert timeindexed.solve_lp is original
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert timeindexed.solve_lp is not original
        assert solver.solve_lp is timeindexed.solve_lp
    assert timeindexed.solve_lp is original
    assert solver.solve_lp is original


def test_traced_solve_counts_layers_and_matches_untraced():
    import repro
    from repro import Coflow, CoflowInstance, Flow, swan_topology

    def instance():
        return CoflowInstance(
            swan_topology(),
            [
                Coflow([Flow("NY", "HK", 2.0)], weight=2.0),
                Coflow([Flow("NY", "LA", 1.0), Flow("HK", "LA", 1.5)], release_time=1.0),
            ],
            model="free_path",
        )

    plain = repro.solve(instance(), "stretch-best", rng=0, num_samples=3)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        # Looked up at call time, so the instrumented binding is used.
        traced = repro.solve(instance(), "stretch-best", rng=0, num_samples=3)
    assert traced.objective == plain.objective
    metrics = tracing.layer_metrics(tracer, 10.0)
    assert metrics["api.solves"] == 1
    assert metrics["lp_build.calls"] == metrics["lp_solve.calls"] == 1
    assert metrics["lp_build.nnz"] > 0 and metrics["grid.slots"] > 0
    assert metrics["stretch.draws"] == 3
    assert metrics["feasibility.calls"] >= 1
    assert metrics["feasibility.infeasible"] == 0
    assert metrics["rest.self_s"] >= 0.0


# --------------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------------- #
def test_check_unit_accepts_a_valid_report():
    weights = np.array([1.0, 2.0])
    bounds = np.array([1.0, 2.0])
    times = np.array([1.5, 2.0])
    objective = float(weights @ times)
    assert checks.check_unit("x", objective, times, weights, bounds, True) == []


def test_check_unit_catches_completion_below_bound():
    weights = np.array([1.0, 2.0])
    bounds = np.array([1.0, 2.0])
    times = np.array([1.5, 1.9])
    errors = checks.check_unit("x", float(weights @ times), times, weights, bounds, True)
    assert len(errors) == 1 and "before its lower bound" in errors[0]


def test_check_unit_catches_objective_mismatch_and_non_finite():
    weights = np.array([1.0])
    bounds = np.array([1.0])
    times = np.array([2.0])
    assert checks.check_unit("x", 3.0, times, weights, bounds, True)
    # Not a weighted completion time (stretch-average): no equality check.
    assert checks.check_unit("x", 3.0, times, weights, bounds, False) == []
    assert checks.check_unit("x", math.inf, times, weights, bounds, False)


def test_score_catches_a_corrupted_simulator_report():
    from repro import Coflow, CoflowInstance, Flow, solve, swan_topology

    def instance():
        return CoflowInstance(
            swan_topology(),
            [Coflow([Flow("NY", "HK", 2.0)]), Coflow([Flow("NY", "HK", 1.0)], release_time=0.5)],
            model="free_path",
        )

    report = solve(instance(), "fifo")
    unit = workloads.UnitResult(
        0,
        "fifo",
        None,
        objective=report.objective,
        completion_times=report.coflow_completion_times.copy(),
    )
    ratio, errors = checks.score([unit], [instance()], checks.lower_bounds([instance()]))
    assert errors == [] and ratio >= 1.0
    release, standalone = checks.release_and_standalone(instance())
    # Halfway between the release time and the release + standalone bound.
    unit.completion_times[1] = release[1] + 0.5 * standalone[1]
    unit.objective = float(np.dot(instance().weights, unit.completion_times))
    _, errors = checks.score([unit], [instance()], checks.lower_bounds([instance()]))
    assert len(errors) == 1 and "coflow 1" in errors[0]


def test_slotted_bound_starts_at_the_release_slot():
    from repro.schedule.timegrid import TimeGrid

    grid = TimeGrid.uniform(60, 1.0)
    release = np.array([0.0, 50.4, 50.0])
    standalone = np.array([3.0, 2.0, 0.25])
    bounds = checks.slotted_bounds(grid, release, standalone)
    # Slot [50, 51) is the first usable one for r = 50.4 and for r = 50.
    assert bounds == pytest.approx([3.0, 52.0, 50.25])
    times = np.array([3.0, 50.4, 51.0])
    errors = checks.check_unit("x", float(times.sum()), times, np.ones(3), bounds, True)
    assert len(errors) == 1 and "coflow 1" in errors[0]


def test_score_accepts_lp_heuristic_and_catches_a_corrupted_slotted_report():
    from repro import Coflow, CoflowInstance, Flow, solve, swan_topology

    def instance():
        return CoflowInstance(
            swan_topology(),
            [
                Coflow([Flow("NY", "HK", 2.0)], weight=2.0),
                Coflow([Flow("NY", "LA", 8.0), Flow("HK", "LA", 12.0)], release_time=2.5),
            ],
            model="free_path",
        )

    # Slot [2, 3) is coflow 1's first; alone it needs more than its last 0.5.
    assert checks.release_and_standalone(instance())[1][1] > 0.5
    report = solve(instance(), "lp-heuristic")
    unit = workloads._report_unit(0, report)
    assert unit.slotted and unit.grid is report.schedule.grid
    _, errors = checks.score([unit], [instance()], checks.lower_bounds([instance()]))
    assert errors == []
    # Without the schedule's grid the unit is checked on the grid ε resolves to.
    unit.grid = None
    assert checks.score([unit], [instance()], checks.lower_bounds([instance()]))[1] == []
    # Completing at the release time ignores the transmission time after it.
    unit.completion_times[1] = 2.5
    unit.objective = float(np.dot(instance().weights, unit.completion_times))
    _, errors = checks.score([unit], [instance()], checks.lower_bounds([instance()]))
    assert len(errors) == 1 and "coflow 1" in errors[0]


def test_batch_failure_counts_only_the_failing_algorithm(monkeypatch):
    import repro.api
    from repro.experiments.sweep import InstanceSpec

    specs = [InstanceSpec(num_coflows=3, seed=5)]
    inputs = workloads._batch(("fifo", "sebf"))(specs, 0)

    def broken_batch(*args, **kwargs):
        raise RuntimeError("batch failed")

    real_solve = repro.api.solve

    def solve(instance, algorithm, **kwargs):
        if algorithm == "sebf":
            raise ValueError("sebf failed")
        return real_solve(instance, algorithm, **kwargs)

    monkeypatch.setattr(repro.api, "solve_many", broken_batch)
    monkeypatch.setattr(repro.api, "solve", solve)
    units = workloads._execute_batch(inputs)
    assert [u.isolate for u in units] == [True, True]
    units = workloads.isolate_batch_failures(units, inputs)
    assert [(u.algorithm, u.failed) for u in units] == [("fifo", False), ("sebf", True)]
    assert units[1].error == "ValueError: sebf failed"
    instances = workloads._batch_instances(inputs)
    assert checks.score(units, instances, checks.lower_bounds(instances))[1] == []


def test_failure_signatures_group_by_algorithm_epsilon_and_message():
    def error(flow: str, slot: int) -> str:
        return f"ValueError: infeasible:\n  - flow {flow} in slot {slot} at 1.5\n  - flow f9 too"

    units = [
        workloads.UnitResult(0, "stretch", 0.2, error=error("TPC-H-2.f0 (NY->FL)", 10)),
        workloads.UnitResult(1, "stretch", 0.2, error=error("FB-1.f12 (LA->HK)", 3)),
        workloads.UnitResult(2, "fifo", None, objective=1.0),
    ]
    assert checks.failure_signatures(units) == {
        "stretch | eps=0.2 | ValueError: infeasible: - flow # in slot # at #": 2
    }


# --------------------------------------------------------------------------- #
# metric names and workloads match BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    layers = set(tracing.layer_metrics(tracing.Tracer(), 0.0)) | {"trace.overhead_frac"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == layers
    assert all(per_layer[name] == run.layer_unit(name) for name in per_layer)


def test_workloads_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_paper_sweep_leaves_out_only_the_known_failing_units():
    from repro.experiments.sweep import InstanceSpec

    instances = [InstanceSpec(seed=1), InstanceSpec(seed=2)]
    specs = workloads.sweep_specs(instances, 0)
    assert [s.epsilons for s in specs] == [(None,), (0.2,)]
    assert all(list(s.instances) == instances for s in specs)
    assert set(specs[0].algorithms) == set(workloads.OFFLINE_ALGORITHMS)
    assert set(specs[1].algorithms) == set(workloads.OFFLINE_ALGORITHMS) - set(
        workloads.KNOWN_FAILING_ALGORITHMS
    )
    (failing,) = workloads.sweep_specs(instances, 0, known_failures=True)
    assert failing.epsilons == (0.2,)
    assert failing.algorithms == workloads.KNOWN_FAILING_ALGORITHMS


# --------------------------------------------------------------------------- #
# instance choice
# --------------------------------------------------------------------------- #
def _fig09_fb(instance_seed: int):
    from repro.experiments.sweep import InstanceSpec

    return InstanceSpec(
        topology="swan", profile="FB", num_coflows=12, model="single_path",
        seed=instance_seed, demand_scale=1.0, weighted=True,
    )


def test_lp_size_tracks_the_built_lp():
    from repro.core.timeindexed import build_time_indexed_lp, resolve_grid

    ratios = []
    for seed in range(4):
        spec = _fig09_fb(seed)
        instance = spec.build()
        lp, _ = build_time_indexed_lp(instance, resolve_grid(instance))
        ratios.append(lp.size_summary()["nonzeros"] / workloads.lp_size(spec))
    assert max(ratios) / min(ratios) < 1.25


def test_typical_specs_are_deterministic_and_closest_to_typical():
    def choose(offset, count):
        return workloads.typical_specs(_fig09_fb, workloads.lp_size, 2019, offset, count)

    chosen = choose(3, 2)
    assert chosen == choose(3, 2)
    assert chosen != choose(4, 2)
    # Candidates come back closest first, so a larger count extends the list.
    ranked = choose(3, workloads.CANDIDATES)
    assert ranked[:2] == chosen
    assert len(ranked) == workloads.CANDIDATES

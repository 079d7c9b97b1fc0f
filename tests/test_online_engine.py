"""The online scheduling algorithms: the batching event loop, the priority
policies, the ``repro online`` command, registry integration, store
round-trips and warm online sweeps."""

import io
import json

import numpy as np
import pytest

from repro.api import SolverConfig, available_algorithms, get_algorithm, solve, solve_many
from repro.cli import main
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.experiments.sweep import InstanceSpec, SweepSpec, run_sweep
from repro.network.topologies import parallel_edges_topology, swan_topology
from repro.online import batching_schedule, resolve_priority
from repro.online.engine import _epoch_index
from repro.scenarios.engine import build_scenario
from repro.store import ResultStore, report_to_dict
from repro.workloads.generator import random_instance
from repro.workloads.traces import load_trace, save_trace


def online_batch_schedule(instance: CoflowInstance, *, base: float = 2.0, rng=None):
    """Oracle for the event loop: geometric batching as one sequential loop.

    Every epoch's releases form one batch, solved by the offline LP
    heuristic with releases reset, and started once the epoch has closed
    and the previous batch has drained — the doubling framework with no
    event queue, which :func:`batching_schedule` must reproduce exactly.
    Returns the completion times and one record per batch.
    """
    config = SolverConfig(rng=rng)
    epochs = {}
    for j, release in enumerate(instance.release_times):
        epochs.setdefault(_epoch_index(float(release), base), []).append(j)

    completion = np.zeros(instance.num_coflows, dtype=float)
    batches = []
    current_time = 0.0
    for epoch in sorted(epochs):
        members = epochs[epoch]
        epoch_end = float(base**epoch)
        batch_start = max(current_time, epoch_end)
        coflows = []
        for j in members:
            coflow = instance.coflows[j]
            flows = [f.with_release_time(0.0) for f in coflow.flows]
            coflows.append(coflow.with_flows(flows).with_release_time(0.0))
        batch_instance = CoflowInstance(
            instance.graph,
            coflows,
            model=instance.model,
            name=f"{instance.name}-epoch{epoch}",
        )
        report = solve(batch_instance, "lp-heuristic", config=config)
        batch_times = report.coflow_completion_times
        for local_j, j in enumerate(members):
            completion[j] = batch_start + float(batch_times[local_j])
        makespan = float(batch_times.max(initial=0.0))
        batches.append(
            {
                "epoch_index": epoch,
                "epoch_end": epoch_end,
                "start_time": batch_start,
                "makespan": makespan,
                "coflow_indices": list(members),
            }
        )
        current_time = batch_start + makespan
    return completion, batches


def staggered_instance() -> CoflowInstance:
    """Three coflows on one unit edge released at t = 0, 1.5 and 3.0."""
    graph = parallel_edges_topology(1, capacity=1.0)

    def coflow(name, demand, release, weight=1.0):
        return Coflow(
            [Flow("x1", "y1", demand, path=("x1", "y1"), release_time=release)],
            weight=weight,
            release_time=release,
            name=name,
        )

    coflows = [
        coflow("early", 2.0, 0.0, weight=1.0),
        coflow("middle", 1.0, 1.5, weight=2.0),
        coflow("late", 1.0, 3.0, weight=1.0),
    ]
    return CoflowInstance(graph, coflows, model="free_path")


def single_coflow_instance(release: float = 0.0) -> CoflowInstance:
    graph = parallel_edges_topology(1, capacity=1.0)
    coflow = Coflow(
        [Flow("x1", "y1", 1.5, path=("x1", "y1"), release_time=release)],
        release_time=release,
        name="solo",
    )
    return CoflowInstance(graph, [coflow], model="free_path")


# --------------------------------------------------------------------------- #
# the batching event loop
# --------------------------------------------------------------------------- #
class TestBatchingEngine:
    def test_engine_reproduces_legacy_batching_exactly(self):
        instance = staggered_instance()
        legacy_times, legacy_batches = online_batch_schedule(instance, rng=0)
        engine = batching_schedule(instance)
        assert np.allclose(legacy_times, engine.coflow_completion_times)
        batches = engine.extras["batches"]
        assert [b["epoch_index"] for b in legacy_batches] == [
            b["epoch_index"] for b in batches
        ]
        assert [b["start_time"] for b in legacy_batches] == pytest.approx(
            [b["start_time"] for b in batches]
        )

    def test_engine_matches_legacy_on_random_releases(self):
        instance = random_instance(
            swan_topology(),
            num_coflows=4,
            with_release_times=True,
            model="free_path",
            rng=11,
        )
        legacy_times, _ = online_batch_schedule(instance, rng=0)
        engine = batching_schedule(instance)
        assert np.allclose(legacy_times, engine.coflow_completion_times)

    def test_batches_never_overlap_and_start_after_releases(self):
        instance = staggered_instance()
        batches = batching_schedule(instance).extras["batches"]
        release = instance.coflow_release_times()
        ordered = sorted(batches, key=lambda b: b["start_time"])
        for earlier, later in zip(ordered, ordered[1:]):
            assert (
                later["start_time"]
                >= earlier["start_time"] + earlier["makespan"] - 1e-9
            )
        for batch in batches:
            for j in batch["coflow_indices"]:
                assert batch["start_time"] >= release[j] - 1e-9

    def test_batch_members_arrive_in_release_order_ties_by_index(self):
        graph = parallel_edges_topology(1, capacity=1.0)
        coflows = [
            Coflow(
                [Flow("x1", "y1", 1.0, path=("x1", "y1"), release_time=release)],
                release_time=release,
                name=f"c{j}",
            )
            for j, release in enumerate((1.5, 1.0, 1.5, 1.2))
        ]
        instance = CoflowInstance(graph, coflows, model="free_path")
        # All four fall into epoch [1, 2) and form one batch, whose members
        # are listed in arrival order: by release time, ties by index.
        (batch,) = batching_schedule(instance).extras["batches"]
        assert batch["coflow_indices"] == [1, 3, 0, 2]

    def test_work_conserving_dispatches_when_idle(self):
        instance = staggered_instance()
        plain = batching_schedule(instance)
        wc = batching_schedule(instance, early_start=True)
        # The link is idle at t = 0 when the first coflow arrives: the
        # work-conserving variant starts immediately instead of waiting for
        # the epoch boundary, so nothing finishes later than in the plain run.
        assert wc.extras["batches"][0]["start_time"] == pytest.approx(0.0)
        assert plain.extras["batches"][0]["start_time"] == pytest.approx(1.0)
        assert np.all(
            wc.coflow_completion_times <= plain.coflow_completion_times + 1e-9
        )

    def test_simultaneous_arrivals_form_one_batch_under_early_start(self):
        instance = random_instance(
            swan_topology(),
            num_coflows=3,
            with_release_times=False,  # everything released at t = 0
            model="free_path",
            rng=3,
        )
        wc = batching_schedule(instance, early_start=True)
        assert wc.extras["num_batches"] == 1
        (batch,) = wc.extras["batches"]
        assert batch["start_time"] == pytest.approx(0.0)
        assert sorted(batch["coflow_indices"]) == [0, 1, 2]

    def test_every_coflow_lands_in_exactly_one_batch(self):
        instance = staggered_instance()
        for kwargs in ({}, {"early_start": True}, {"base": 3.0}):
            batches = batching_schedule(instance, **kwargs).extras["batches"]
            assigned = sorted(j for b in batches for j in b["coflow_indices"])
            assert assigned == list(range(instance.num_coflows))

    def test_single_coflow_released_late(self):
        instance = single_coflow_instance(release=5.0)
        result = batching_schedule(instance)
        assert result.extras["num_batches"] == 1
        # Released at 5 -> epoch [4, 8) -> batch starts when the epoch ends.
        assert result.extras["batches"][0]["start_time"] == pytest.approx(8.0)
        assert result.coflow_completion_times[0] >= 5.0 + 1.5 - 1e-9

    def test_invalid_policy_parameters(self):
        instance = staggered_instance()
        with pytest.raises(ValueError):
            batching_schedule(instance, base=1.0)
        with pytest.raises(ValueError):
            batching_schedule(instance, offline_algorithm="magic")


# --------------------------------------------------------------------------- #
# priority policies
# --------------------------------------------------------------------------- #
class TestPriorityPolicies:
    @pytest.mark.parametrize("name", ["online-resolve", "online-wsjf"])
    def test_respects_releases_and_clairvoyant_floor(self, name):
        instance = staggered_instance()
        result = solve(instance, name)
        release = instance.coflow_release_times()
        assert np.all(result.coflow_completion_times >= release - 1e-9)
        first = result.extras["first_service_times"]
        for j, served in enumerate(first):
            assert served is not None
            assert served >= release[j] - 1e-9

    def test_resolve_reprioritizes_on_arrival(self):
        """A heavy late arrival preempts the light early coflow under
        re-solve, while the plain static WSJF order cannot adapt to
        remaining demand."""
        graph = parallel_edges_topology(1, capacity=1.0)
        coflows = [
            Coflow(
                [Flow("x1", "y1", 4.0, path=("x1", "y1"))],
                weight=1.0,
                name="big-early",
            ),
            Coflow(
                [
                    Flow(
                        "x1", "y1", 1.0, path=("x1", "y1"), release_time=1.0
                    )
                ],
                weight=10.0,
                release_time=1.0,
                name="small-late",
            ),
        ]
        instance = CoflowInstance(graph, coflows, model="free_path")
        result = solve(instance, "online-resolve")
        # small-late (ratio 0.1) preempts big-early (remaining 3 / weight 1)
        # at its arrival and finishes first.
        assert result.coflow_completion_times[1] == pytest.approx(2.0)
        assert result.coflow_completion_times[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("model", ["free_path", "single_path"])
    def test_resolve_skips_finished_coflows_with_the_same_order(
        self, model, monkeypatch
    ):
        """A finished coflow's remaining time is 0 without an LP, and the
        whole order equals the one that asks every released coflow."""
        import repro.online.policies as policies
        from repro.baselines.greedy import wsjf_ratios
        from repro.sim.rate_allocation import RATE_TOL, max_concurrent_rate

        instance = random_instance(
            swan_topology(), num_coflows=14, max_flows_per_coflow=4, model=model, rng=8
        )
        rng = np.random.default_rng(3)
        coflow_of_flow = instance.coflow_of_flow()
        finished = rng.random(instance.num_coflows) < 0.5
        remaining = instance.demands() * rng.uniform(0.1, 1.0, instance.num_flows)
        remaining[finished[coflow_of_flow]] = 0.0
        release = instance.coflow_release_times()

        def asked_everyone(time: float) -> list:
            released = release <= time + policies._boundary_tol(time)
            remaining_time = np.zeros(instance.num_coflows)
            for j in np.nonzero(released)[0]:
                rate = max_concurrent_rate(instance, int(j), remaining)
                if np.isinf(rate):
                    remaining_time[j] = 0.0
                elif rate <= RATE_TOL:
                    remaining_time[j] = float("inf")
                else:
                    remaining_time[j] = 1.0 / rate
            ratio = wsjf_ratios(remaining_time, instance.weights)
            order = sorted(np.nonzero(released)[0].tolist(), key=lambda j: (ratio[j], j))
            return order + [j for j in range(instance.num_coflows) if not released[j]]

        asked = []

        def spy(inst, j, rem):
            asked.append(j)
            return max_concurrent_rate(inst, j, rem)

        monkeypatch.setattr(policies, "max_concurrent_rate", spy)
        priority = resolve_priority(instance)
        for time in (float(np.median(release)), float(release.max())):
            del asked[:]
            released = release <= time + policies._boundary_tol(time)
            assert priority(time, remaining, instance) == asked_everyone(time)
            assert sorted(asked) == np.nonzero(released & ~finished)[0].tolist()
        assert (release <= release.max()).all() and finished.any() and not finished.all()

    def test_single_coflow_instances(self):
        for name in ("online-resolve", "online-wsjf"):
            result = solve(single_coflow_instance(), name)
            assert result.coflow_completion_times[0] == pytest.approx(1.5)


# --------------------------------------------------------------------------- #
# registry integration
# --------------------------------------------------------------------------- #
class TestRegistryIntegration:
    def test_all_policies_registered_with_online_flag(self):
        online = available_algorithms(online=True)
        assert online == (
            "online-batch",
            "online-batch-wc",
            "online-resolve",
            "online-wsjf",
        )
        for name in online:
            info = get_algorithm(name)
            assert info.online
            assert not info.uses_shared_lp
        assert not set(available_algorithms(online=False)) & set(online)

    def test_solve_produces_consistent_online_report(self):
        instance = staggered_instance()
        report = solve(instance, "online-batch")
        assert report.algorithm == "online-batch"
        assert report.objective == pytest.approx(
            float(
                np.dot(instance.weights, report.coflow_completion_times)
            )
        )
        assert report.extras["num_batches"] >= 1
        assert len(report.extras["first_service_times"]) == instance.num_coflows

    def test_solve_many_with_online_algorithms(self):
        instances = [staggered_instance(), single_coflow_instance()]
        reports = solve_many(
            instances, ["online-batch", "online-wsjf", "lp-heuristic"]
        )
        assert len(reports) == 6
        # online reports pick up the shared clairvoyant LP as the bound
        online_report = reports[0]
        assert online_report.algorithm == "online-batch"
        assert online_report.lower_bound is not None
        assert online_report.competitive_ratio(online_report.lower_bound) >= 0.0

    def test_scenario_replay_through_solve_is_deterministic(self):
        for name in available_algorithms(online=True):
            a = solve(build_scenario("bursty-arrivals", 1, 5).instance, name)
            b = solve(build_scenario("bursty-arrivals", 1, 5).instance, name)
            assert np.array_equal(
                a.coflow_completion_times, b.coflow_completion_times
            ), name
            assert a.objective == b.objective


# --------------------------------------------------------------------------- #
# store round-trips (the metadata bug batch)
# --------------------------------------------------------------------------- #
class TestOnlineStoreRoundTrip:
    @pytest.mark.parametrize("name", available_algorithms(online=True))
    def test_report_surface_roundtrips_without_drops(self, name):
        instance = staggered_instance()
        report = solve(instance, name)
        surface = report_to_dict(report)
        # Nothing in the online extras may be elided: every value crosses
        # the JSON boundary as-is (no raw numpy arrays left).
        assert "_dropped" not in surface["extras"]
        restored = json.loads(json.dumps(surface))
        assert restored == surface
        assert restored["objective"] == report.objective
        assert restored["coflow_completion_times"] == [
            float(t) for t in report.coflow_completion_times
        ]
        assert restored["extras"]["first_service_times"] == (
            report.extras["first_service_times"]
        )


# --------------------------------------------------------------------------- #
# online sweeps (resuming one: tests/test_experiments_sweep.py)
# --------------------------------------------------------------------------- #
def online_sweep_spec() -> SweepSpec:
    return SweepSpec(
        name="online-sweep",
        instances=tuple(
            InstanceSpec(
                topology="paper-example",
                profile="FB",
                num_coflows=2,
                model="free_path",
                seed=seed,
            )
            for seed in (1, 2)
        ),
        algorithms=("online-batch", "online-wsjf", "lp-heuristic"),
        config=SolverConfig(num_samples=2),
        seed=7,
    )


class TestOnlineSweeps:
    def test_warm_online_rerun_performs_zero_solves(self, tmp_path):
        spec = online_sweep_spec()
        store = ResultStore(tmp_path / "store")
        run_sweep(spec, store)
        store.reset_counters()
        warm = run_sweep(spec, store)
        assert warm.solved == 0
        assert warm.hits == len(warm.units)


# --------------------------------------------------------------------------- #
# the repro online command
# --------------------------------------------------------------------------- #
#: A 3-coflow Facebook-format trace whose m*/r* endpoints are foreign to
#: every built-in topology.
FB_TRACE = """\
4 3
1 0 2 1 2 1 3:10
2 500 1 3 2 1:4 2:6
3 900 1 4 1 2:8
"""


def run_online_cli(*argv) -> str:
    out = io.StringIO()
    assert main(["online", *map(str, argv)], out=out) == 0
    return out.getvalue()


class TestOnlineCli:
    def test_instance_trace_is_used_as_is(self, tmp_path):
        instance = staggered_instance()
        path = tmp_path / "trace.json"
        instance.save_json(path)
        lines = run_online_cli(path, "--policy", "wsjf").splitlines()
        assert lines[0].split(": ", 1)[1] == "trace:trace (3 arrivals, span [0, 3])"
        expected = solve(instance, "online-wsjf").objective
        assert lines[2].startswith(f"objective         : {expected:.3f} ")

    def test_coflow_trace_replays_onto_swan_seeded_by_seed(self, tmp_path):
        from repro.workloads.traces import replay_coflows

        coflows = list(staggered_instance().coflows)  # x1/y1 are foreign to SWAN
        path = tmp_path / "coflows.json"
        save_trace(coflows, path)
        text = run_online_cli(path, "--policy", "wsjf", "--seed", "4")
        replayed = replay_coflows(coflows, swan_topology(), rng=4)
        expected = solve(replayed, "online-wsjf").objective
        assert f"objective         : {expected:.3f} " in text

    def test_converted_facebook_trace_gives_the_same_output_twice(self, tmp_path):
        src, path = tmp_path / "fb.txt", tmp_path / "fb.json"
        src.write_text(FB_TRACE)
        argv = ["scenarios", "convert-fb", str(src), str(path)]
        assert main(argv, out=io.StringIO()) == 0
        assert not isinstance(load_trace(path), CoflowInstance)
        runs = [
            run_online_cli(path, "--policy", "wsjf", "--seed", "0") for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize(
        "model, policy, offline",
        [("free_path", "wsjf", "tera"), ("single_path", "resolve", "terra")],
        ids=["unknown-name", "model-mismatch"],
    )
    def test_bad_offline_algorithm_fails_before_solving(
        self, tmp_path, capsys, monkeypatch, model, policy, offline
    ):
        path = tmp_path / "trace.json"
        argv = ["generate", str(path), "--model", model, "--num-coflows", "2"]
        assert main(argv, out=io.StringIO()) == 0
        solved = []
        monkeypatch.setattr("repro.cli.solve", lambda *a, **k: solved.append(a))
        out = io.StringIO()
        argv = ["online", str(path), "--policy", policy]
        argv += ["--offline-algorithm", offline, "--compare-offline"]
        assert main(argv, out=out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and offline in err
        assert "Traceback" not in err
        assert out.getvalue() == "" and solved == []

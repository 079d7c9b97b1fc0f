"""The event-driven online scheduling subsystem: streams, engine, policies,
registry integration, store round-trips and resumable online sweeps."""

import json

import numpy as np
import pytest

from repro.api import SolverConfig, available_algorithms, get_algorithm, solve, solve_many
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.experiments.sweep import InstanceSpec, SweepSpec, run_sweep
from repro.network.topologies import parallel_edges_topology, swan_topology
from repro.online import (
    ONLINE_ALGORITHMS,
    ArrivalStream,
    BatchRecord,
    GeometricBatchingPolicy,
    IncrementalResolvePolicy,
    OnlineEngine,
    OnlineScheduleResult,
    WSJFPolicy,
    run_online_policy,
)
from repro.online.batch import _epoch_index
from repro.store import ResultStore, canonical_payload_bytes, report_to_dict
from repro.workloads.generator import random_instance


def online_batch_schedule(
    instance: CoflowInstance, *, base: float = 2.0, rng=None
) -> OnlineScheduleResult:
    """Oracle for the engine: geometric batching as one sequential loop.

    Every epoch's releases form one batch, solved by the offline LP
    heuristic with releases reset, and started once the epoch has closed
    and the previous batch has drained — the doubling framework with no
    event queue, which the engine must reproduce exactly.
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
            BatchRecord(
                epoch_index=epoch,
                epoch_end=epoch_end,
                start_time=batch_start,
                makespan=makespan,
                coflow_indices=list(members),
                offline_objective=report.objective,
                lp_lower_bound=report.lower_bound,
            )
        )
        current_time = batch_start + makespan

    return OnlineScheduleResult(
        instance=instance,
        algorithm="online-batch[lp-heuristic]",
        coflow_completion_times=completion,
        batches=batches,
        metadata={"base": base, "num_epochs": len(epochs)},
    )


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


ALL_POLICIES = [
    GeometricBatchingPolicy(2.0),
    GeometricBatchingPolicy(2.0, early_start=True),
    IncrementalResolvePolicy(),
    WSJFPolicy(),
]


# --------------------------------------------------------------------------- #
# streams
# --------------------------------------------------------------------------- #
class TestArrivalStream:
    def test_arrivals_are_time_ordered_with_index_ties(self):
        stream = ArrivalStream.from_instance(staggered_instance())
        times = [a.time for a in stream.arrivals]
        assert times == sorted(times)
        assert [a.coflow_index for a in stream.arrivals] == [0, 1, 2]
        assert stream.num_arrivals == 3
        assert stream.last_arrival_time == 3.0

    def test_from_scenario_is_bit_reproducible(self):
        a = ArrivalStream.from_scenario("online-poisson", 2, 99)
        b = ArrivalStream.from_scenario("online-poisson", 2, 99)
        assert [x.time for x in a.arrivals] == [x.time for x in b.arrivals]
        assert np.array_equal(a.instance.demands(), b.instance.demands())
        assert np.array_equal(
            a.instance.coflow_release_times(), b.instance.coflow_release_times()
        )

    def test_from_trace_roundtrip(self, tmp_path):
        instance = staggered_instance()
        path = tmp_path / "trace.json"
        instance.save_json(path)
        stream = ArrivalStream.from_trace(path)
        assert stream.num_arrivals == instance.num_coflows
        assert np.array_equal(
            stream.instance.coflow_release_times(),
            instance.coflow_release_times(),
        )

    def test_from_trace_replays_foreign_endpoints(self, tmp_path):
        from repro.workloads.traces import save_trace

        instance = staggered_instance()  # x1/y1 are foreign to SWAN
        path = tmp_path / "coflows.json"
        save_trace(list(instance.coflows), path)
        stream = ArrivalStream.from_trace(path, swan_topology(), rng=0)
        assert set(stream.instance.graph.nodes) == set(swan_topology().nodes)
        assert stream.num_arrivals == instance.num_coflows


# --------------------------------------------------------------------------- #
# the engine's batching loop
# --------------------------------------------------------------------------- #
class TestBatchingEngine:
    def test_engine_reproduces_legacy_batching_exactly(self):
        instance = staggered_instance()
        legacy = online_batch_schedule(instance, rng=0)
        engine = run_online_policy(instance, GeometricBatchingPolicy(2.0))
        assert np.allclose(
            legacy.coflow_completion_times, engine.coflow_completion_times
        )
        assert [b.epoch_index for b in legacy.batches] == [
            b.epoch_index for b in engine.batches
        ]
        assert [b.start_time for b in legacy.batches] == pytest.approx(
            [b.start_time for b in engine.batches]
        )

    def test_engine_matches_legacy_on_random_releases(self):
        instance = random_instance(
            swan_topology(),
            num_coflows=4,
            with_release_times=True,
            model="free_path",
            rng=11,
        )
        legacy = online_batch_schedule(instance, rng=0)
        engine = run_online_policy(instance, GeometricBatchingPolicy(2.0))
        assert np.allclose(
            legacy.coflow_completion_times, engine.coflow_completion_times
        )

    def test_batches_never_overlap_and_start_after_releases(self):
        instance = staggered_instance()
        result = run_online_policy(instance, GeometricBatchingPolicy(2.0))
        release = instance.coflow_release_times()
        ordered = sorted(result.batches, key=lambda b: b.start_time)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.start_time >= earlier.start_time + earlier.makespan - 1e-9
        for batch in result.batches:
            for j in batch.coflow_indices:
                assert batch.start_time >= release[j] - 1e-9

    def test_work_conserving_dispatches_when_idle(self):
        instance = staggered_instance()
        plain = run_online_policy(instance, GeometricBatchingPolicy(2.0))
        wc = run_online_policy(
            instance, GeometricBatchingPolicy(2.0, early_start=True)
        )
        # The link is idle at t = 0 when the first coflow arrives: the
        # work-conserving variant starts immediately instead of waiting for
        # the epoch boundary, so nothing finishes later than in the plain run.
        assert wc.batches[0].start_time == pytest.approx(0.0)
        assert plain.batches[0].start_time == pytest.approx(1.0)
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
        wc = run_online_policy(
            instance, GeometricBatchingPolicy(2.0, early_start=True)
        )
        assert wc.num_batches == 1
        assert wc.batches[0].start_time == pytest.approx(0.0)
        assert sorted(wc.batches[0].coflow_indices) == [0, 1, 2]

    def test_every_coflow_lands_in_exactly_one_batch(self):
        instance = staggered_instance()
        for policy in (
            GeometricBatchingPolicy(2.0),
            GeometricBatchingPolicy(2.0, early_start=True),
            GeometricBatchingPolicy(3.0),
        ):
            result = run_online_policy(instance, policy)
            assigned = sorted(
                j for b in result.batches for j in b.coflow_indices
            )
            assert assigned == list(range(instance.num_coflows))

    def test_single_coflow_released_late(self):
        instance = single_coflow_instance(release=5.0)
        result = run_online_policy(instance, GeometricBatchingPolicy(2.0))
        assert result.num_batches == 1
        # Released at 5 -> epoch [4, 8) -> batch starts when the epoch ends.
        assert result.batches[0].start_time == pytest.approx(8.0)
        assert result.coflow_completion_times[0] >= 5.0 + 1.5 - 1e-9

    def test_invalid_policy_parameters(self):
        with pytest.raises(ValueError):
            GeometricBatchingPolicy(1.0)
        with pytest.raises(ValueError):
            GeometricBatchingPolicy(2.0, offline_algorithm="magic")
        instance = staggered_instance()

        class WeirdPolicy:
            kind = "quantum"

        with pytest.raises(ValueError):
            OnlineEngine(ArrivalStream.from_instance(instance)).run(WeirdPolicy())


# --------------------------------------------------------------------------- #
# priority policies
# --------------------------------------------------------------------------- #
class TestPriorityPolicies:
    @pytest.mark.parametrize(
        "policy", [IncrementalResolvePolicy(), WSJFPolicy()], ids=lambda p: p.name
    )
    def test_respects_releases_and_clairvoyant_floor(self, policy):
        instance = staggered_instance()
        result = run_online_policy(instance, policy)
        release = instance.coflow_release_times()
        assert np.all(result.coflow_completion_times >= release - 1e-9)
        first = result.metadata["first_service_times"]
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
        result = run_online_policy(instance, IncrementalResolvePolicy())
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
        priority = IncrementalResolvePolicy().priority_function(
            ArrivalStream.from_instance(instance), SolverConfig()
        )
        for time in (float(np.median(release)), float(release.max())):
            del asked[:]
            released = release <= time + policies._boundary_tol(time)
            assert priority(time, remaining, instance) == asked_everyone(time)
            assert sorted(asked) == np.nonzero(released & ~finished)[0].tolist()
        assert (release <= release.max()).all() and finished.any() and not finished.all()

    def test_single_coflow_instances(self):
        for policy in (IncrementalResolvePolicy(), WSJFPolicy()):
            result = run_online_policy(single_coflow_instance(), policy)
            assert result.coflow_completion_times[0] == pytest.approx(1.5)


# --------------------------------------------------------------------------- #
# registry integration
# --------------------------------------------------------------------------- #
class TestRegistryIntegration:
    def test_all_policies_registered_with_online_flag(self):
        assert ONLINE_ALGORITHMS == {
            "online-batch",
            "online-batch-wc",
            "online-resolve",
            "online-wsjf",
        }
        for name in ONLINE_ALGORITHMS:
            info = get_algorithm(name)
            assert info.online
            assert not info.uses_shared_lp
        assert available_algorithms(online=True) == tuple(sorted(ONLINE_ALGORITHMS))
        assert not set(available_algorithms(online=False)) & ONLINE_ALGORITHMS

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
        for name in sorted(ONLINE_ALGORITHMS):
            a = solve(
                ArrivalStream.from_scenario("bursty-arrivals", 1, 5).instance, name
            )
            b = solve(
                ArrivalStream.from_scenario("bursty-arrivals", 1, 5).instance, name
            )
            assert np.array_equal(
                a.coflow_completion_times, b.coflow_completion_times
            ), name
            assert a.objective == b.objective


# --------------------------------------------------------------------------- #
# store round-trips (the metadata bug batch)
# --------------------------------------------------------------------------- #
class TestOnlineStoreRoundTrip:
    @pytest.mark.parametrize("name", sorted(ONLINE_ALGORITHMS))
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
# resumable online sweeps (the acceptance criterion)
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
        num_shards=3,
    )


def result_bytes(result) -> dict:
    return {
        unit.key: canonical_payload_bytes(result.reports[unit.key])
        for unit in result.units
    }


class TestOnlineSweeps:
    def test_interrupted_online_sweep_resumes_byte_identical(self, tmp_path):
        spec = online_sweep_spec()
        cold = ResultStore(tmp_path / "cold")
        uninterrupted = run_sweep(spec, cold)
        assert uninterrupted.complete

        store = ResultStore(tmp_path / "killed")
        killed = run_sweep(spec, store, max_chunks=1)
        assert not killed.complete
        resumed = run_sweep(spec, store)
        assert resumed.complete
        assert result_bytes(resumed) == result_bytes(uninterrupted)

    def test_warm_online_rerun_performs_zero_solves(self, tmp_path):
        spec = online_sweep_spec()
        store = ResultStore(tmp_path / "store")
        run_sweep(spec, store)
        store.reset_counters()
        warm = run_sweep(spec, store)
        assert warm.solved == 0
        assert warm.hits == len(warm.units)

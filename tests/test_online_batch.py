"""Tests for the online batching framework and the static WSJF baseline."""

import json
import warnings

import numpy as np
import pytest

from repro.api import SolverConfig, solve
from repro.baselines.greedy import wsjf_order, wsjf_ratios
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.core.heuristic import lp_heuristic_schedule
from repro.core.timeindexed import solve_time_indexed_lp
from repro.network.topologies import parallel_edges_topology, swan_topology
from repro.online import batching_schedule
from repro.online.engine import _epoch_index
from repro.workloads.generator import WorkloadSpec, generate_instance, random_instance


def run_batching(
    instance, *, base=2.0, offline_algorithm="lp-heuristic", rng=None
):
    """The geometric batching policy (``online-batch``) run on *instance*."""
    return batching_schedule(
        instance,
        SolverConfig(rng=rng),
        base=base,
        offline_algorithm=offline_algorithm,
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


class TestEpochIndex:
    def test_epoch_zero_covers_before_one(self):
        assert _epoch_index(0.0, 2.0) == 0
        assert _epoch_index(0.99, 2.0) == 0

    def test_doubling_epochs(self):
        assert _epoch_index(1.0, 2.0) == 1
        assert _epoch_index(1.9, 2.0) == 1
        assert _epoch_index(2.0, 2.0) == 2
        assert _epoch_index(3.9, 2.0) == 2
        assert _epoch_index(4.0, 2.0) == 3

    def test_other_base(self):
        assert _epoch_index(8.0, 3.0) == 2
        assert _epoch_index(9.5, 3.0) == 3

    @pytest.mark.parametrize("base", [2.0, 3.0, 10.0, 1.5])
    def test_exact_powers_land_in_the_starting_epoch(self, base):
        """The float-boundary bug: a release exactly at ``base**k`` belongs
        to the epoch *starting* there, even when ``log(r)/log(base)`` rounds
        just below the integer (e.g. ``log(1000)/log(10) = 2.999...96``)."""
        k = 1
        while base**k <= 2e6:  # exercise ~1e6 horizons
            release = float(base**k)
            assert _epoch_index(release, base) == k + 1, (base, k)
            # Strictly inside the epoch below the boundary stays put.
            below = float(np.nextafter(release, 0.0))
            assert _epoch_index(below, base) in (k, k + 1), (base, k)
            k += 1
        assert k > 1  # the loop actually exercised something

    def test_log10_boundary_regression(self):
        # log(1000)/log(10) == 2.9999999999999996: floor+1 used to yield
        # epoch 3 ([100, 1000)) although 1000 is outside that interval.
        assert _epoch_index(1000.0, 10.0) == 4

    def test_non_boundary_releases_unchanged(self):
        """Regression: away from epoch boundaries the fixed computation
        agrees with the original ``floor(log ratio) + 1`` everywhere."""
        rng = np.random.default_rng(0)
        for base in (2.0, 3.0, 10.0):
            for release in rng.uniform(0.0, 1e6, size=300):
                release = float(release)
                if release < 1.0:
                    legacy = 0
                else:
                    ratio = np.log(release) / np.log(base)
                    if abs(ratio - round(ratio)) < 1e-9:
                        continue  # boundary neighborhood: behaviour changed
                    legacy = int(np.floor(ratio)) + 1
                assert _epoch_index(release, base) == legacy, (base, release)

    def test_epoch_zero_boundary_tolerance(self):
        assert _epoch_index(float(np.nextafter(1.0, 0.0)), 2.0) == 1
        assert _epoch_index(0.9999999, 2.0) == 0


class TestOnlineBatchSchedule:
    def test_completion_after_release_and_epoch_end(self):
        instance = staggered_instance()
        result = run_batching(instance, rng=0)
        release = instance.release_times
        assert np.all(result.coflow_completion_times > release)
        for batch in result.extras["batches"]:
            assert batch["start_time"] >= batch["epoch_end"] - 1e-9

    def test_batches_do_not_overlap(self):
        instance = staggered_instance()
        result = run_batching(instance, rng=0)
        ordered = sorted(result.extras["batches"], key=lambda b: b["start_time"])
        for earlier, later in zip(ordered, ordered[1:]):
            assert (
                later["start_time"]
                >= earlier["start_time"] + earlier["makespan"] - 1e-9
            )

    def test_every_coflow_assigned_to_exactly_one_batch(self):
        instance = staggered_instance()
        result = run_batching(instance, rng=0)
        batches = result.extras["batches"]
        assigned = [j for batch in batches for j in batch["coflow_indices"]]
        assert sorted(assigned) == list(range(instance.num_coflows))

    def test_objective_at_least_offline(self):
        # FB arrivals on SWAN, spread out so that batching forms batches.
        spread = generate_instance(
            swan_topology(),
            WorkloadSpec(
                profile="FB",
                num_coflows=10,
                seed=123,
                demand_scale=1.5,
                release_spread=2.0,
            ),
            model="free_path",
            rng=123,
        )
        for instance in (staggered_instance(), spread):
            offline = solve_time_indexed_lp(instance)
            offline_objective = lp_heuristic_schedule(offline).weighted_completion_time()
            online = run_batching(instance, rng=0)
            assert online.weighted_completion_time >= offline_objective - 1e-6
            # The doubling framework is O(1)-competitive; on these instances
            # a factor of 4 is a generous envelope.
            assert online.weighted_completion_time <= 4.0 * offline_objective
        # From here on, offline and online are the spread instance's.
        assert online.extras["num_batches"] >= 2
        # The greedy baseline runs in continuous time: it may beat the slotted
        # LP bound, but not by half, and stays within 3x of offline.
        greedy = solve(spread, "online-wsjf").weighted_completion_time
        assert 0.5 * offline.objective <= greedy <= 3.0 * offline_objective

    def test_all_released_at_zero_gives_single_batch(self):
        graph = swan_topology()
        instance = random_instance(
            graph, num_coflows=3, with_release_times=False, model="free_path", rng=3
        )
        result = run_batching(instance, rng=0)
        assert result.extras["num_batches"] == 1
        assert result.extras["num_epochs"] == 1

    def test_stretch_offline_algorithm_accepted(self):
        instance = staggered_instance()
        result = run_batching(
            instance, offline_algorithm="stretch", rng=1
        )
        assert result.weighted_completion_time > 0

    def test_invalid_parameters(self):
        instance = staggered_instance()
        with pytest.raises(ValueError):
            run_batching(instance, base=1.0)
        with pytest.raises(ValueError):
            run_batching(instance, offline_algorithm="magic")

    def test_competitive_ratio_helper(self):
        instance = staggered_instance()
        result = run_batching(instance, rng=0)
        assert result.competitive_ratio(result.weighted_completion_time) == pytest.approx(1.0)
        assert result.competitive_ratio(0.0) == float("inf")

    def test_larger_base_waits_longer(self):
        instance = staggered_instance()
        fast = run_batching(instance, base=2.0, rng=0)
        slow = run_batching(instance, base=8.0, rng=0)
        # With base 8 all three releases fall into at most two epochs ending
        # no earlier than with base 2, so the late coflows cannot finish
        # earlier than in the base-2 run's last batch start.
        assert slow.extras["num_batches"] <= fast.extras["num_batches"]


class TestWsjfRatios:
    def test_zero_weight_gets_worst_ratio_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning fails
            ratio = wsjf_ratios(
                np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.0, 1e-15])
            )
        assert ratio[0] == pytest.approx(0.5)
        assert ratio[1] == np.inf and ratio[2] == np.inf

    def test_zero_weight_coflow_is_scheduled_last(self):
        graph = parallel_edges_topology(1, capacity=1.0)

        def coflow(name, weight):
            return Coflow(
                [Flow("x1", "y1", 1.0, path=("x1", "y1"))],
                weight=weight,
                name=name,
            )

        instance = CoflowInstance(
            graph,
            [coflow("worthless", 1e-300), coflow("valuable", 5.0)],
            model="free_path",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            order, _ = wsjf_order(instance)
            result = solve(instance, "online-wsjf")
        assert order == [1, 0]
        assert result.coflow_completion_times[1] < result.coflow_completion_times[0]


class TestGreedyOnline:
    def test_completion_after_release(self):
        instance = staggered_instance()
        result = solve(instance, "online-wsjf")
        assert np.all(result.coflow_completion_times >= instance.release_times)

    def test_never_idles_unnecessarily(self):
        instance = staggered_instance()
        result = solve(instance, "online-wsjf")
        # Total work is 4 units on a unit edge with last release at 3.0, so
        # the makespan cannot exceed 5 (work conservation).
        assert result.makespan <= 5.0 + 1e-6

    def test_batching_vs_greedy_tradeoff(self):
        instance = staggered_instance()
        batched = run_batching(instance, rng=0)
        greedy = solve(instance, "online-wsjf")
        # The greedy baseline never waits, so on this lightly loaded instance
        # it is at least as good; the batching framework pays its waiting
        # cost in exchange for the worst-case guarantee.
        assert greedy.weighted_completion_time <= batched.weighted_completion_time + 1e-6

    def test_metadata_is_json_serializable(self):
        """The store/export boundary: no raw numpy arrays in metadata."""
        instance = staggered_instance()
        for metadata in (
            solve(instance, "online-wsjf").extras,
            run_batching(instance, rng=0).extras,
        ):
            payload = json.dumps(metadata)
            assert json.loads(payload) == metadata

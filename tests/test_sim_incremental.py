"""Regression tests: incremental simulator vs full re-allocation vs reference.

The contract protected here:

* ``incremental=True`` reproduces ``incremental=False`` event-for-event
  (same events, same piecewise-constant rates, same completion times);
* for the single path model (closed-form allocation, no LP degeneracy) both
  also reproduce the preserved loop-based reference exactly;
* for the free path model the reference is matched at the objective level
  (a degenerate max-concurrent-flow LP may admit several optimal routings,
  which legitimately shifts later completion times a little);
* the standalone-time cache returns consistent values without re-solving;
* on every built-in scenario family the incremental and full loops agree
  (both models), the reference agrees on the single-path scenarios, and the
  recorded timeline delivers each flow's demand within the capacities.
"""

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.topologies import paper_example_topology, parallel_edges_topology
from repro.scenarios import BUILTIN_FAMILIES, build_scenario
from repro.scenarios.families import expected_model
from repro.sim.rate_allocation import coflow_standalone_time, get_rate_allocator
from repro.sim.simulator import (
    fifo_priority,
    remaining_fraction_priority,
    simulate_priority_schedule,
    static_order_priority,
)

from sim_reference import (
    allocate_rates_reference,
    fifo_priority_reference,
    simulate_priority_schedule_reference,
    srtf_priority_reference,
    standalone_times_reference,
)


def single_path_instance() -> CoflowInstance:
    graph = parallel_edges_topology(3, capacity=2.0)
    coflows = [
        Coflow(
            [
                Flow("x1", "y1", 4.0, path=("x1", "y1")),
                Flow("x2", "y2", 2.0, path=("x2", "y2")),
            ],
            name="A",
        ),
        Coflow([Flow("x1", "y1", 2.0, path=("x1", "y1"))], name="B", release_time=0.5),
        Coflow(
            [
                Flow("x2", "y2", 1.0, path=("x2", "y2")),
                Flow("x3", "y3", 3.0, path=("x3", "y3"), release_time=2.0),
            ],
            name="C",
        ),
        Coflow([Flow("x3", "y3", 1.5, path=("x3", "y3"))], name="D", release_time=1.0),
    ]
    return CoflowInstance(graph, coflows, model="single_path")


def free_path_instance() -> CoflowInstance:
    graph = paper_example_topology()
    coflows = [
        Coflow([Flow("s", "t", 3.0)], name="blue"),
        Coflow([Flow("v1", "t", 1.0)], name="red", release_time=0.4),
        Coflow([Flow("v2", "t", 1.2), Flow("s", "v3", 0.8)], name="green"),
    ]
    return CoflowInstance(graph, coflows, model="free_path")


def srtf_like_priority(instance: CoflowInstance):
    """A dynamic array-based priority that reshuffles as coflows drain."""
    standalone = np.array(
        [coflow_standalone_time(instance, j) for j in range(instance.num_coflows)]
    )
    return remaining_fraction_priority(
        instance, standalone, standalone_tiebreak=True
    )


def assert_event_for_event(a, b, *, rtol=1e-9, atol=1e-9):
    assert a.metadata["events"] == b.metadata["events"]
    np.testing.assert_allclose(
        a.flow_completion_times, b.flow_completion_times, rtol=rtol, atol=atol
    )
    np.testing.assert_allclose(
        a.coflow_completion_times, b.coflow_completion_times, rtol=rtol, atol=atol
    )
    assert len(a.timeline) == len(b.timeline)
    for ta, tb in zip(a.timeline, b.timeline):
        assert ta.start == pytest.approx(tb.start, abs=1e-9)
        assert ta.end == pytest.approx(tb.end, abs=1e-9)
        np.testing.assert_allclose(ta.rates, tb.rates, rtol=1e-7, atol=1e-9)


class TestIncrementalMatchesFull:
    @pytest.mark.parametrize(
        "make_instance", [single_path_instance, free_path_instance]
    )
    def test_dynamic_priority(self, make_instance):
        instance = make_instance()
        priority = srtf_like_priority(instance)
        inc = simulate_priority_schedule(
            instance, priority, record_timeline=True, incremental=True
        )
        full = simulate_priority_schedule(
            instance, priority, record_timeline=True, incremental=False
        )
        assert_event_for_event(inc, full)
        assert inc.metadata["implementation"] == "incremental"
        assert full.metadata["implementation"] == "full"

    @pytest.mark.parametrize(
        "make_instance", [single_path_instance, free_path_instance]
    )
    def test_static_and_fifo_priorities(self, make_instance):
        instance = make_instance()
        for priority in (
            fifo_priority,
            static_order_priority(range(instance.num_coflows)),
        ):
            inc = simulate_priority_schedule(
                instance, priority, record_timeline=True, incremental=True
            )
            full = simulate_priority_schedule(
                instance, priority, record_timeline=True, incremental=False
            )
            assert_event_for_event(inc, full)

    def test_reuse_actually_happens(self):
        instance = single_path_instance()
        inc = simulate_priority_schedule(
            instance, static_order_priority(range(instance.num_coflows))
        )
        assert inc.metadata["allocations_reused"] > 0
        total = (
            inc.metadata["allocations_reused"] + inc.metadata["allocations_computed"]
        )
        assert inc.metadata["allocations_computed"] < total


class TestAgainstLoopReference:
    def test_single_path_exact(self):
        # Closed-form allocation: no LP degeneracy, the reference must be
        # reproduced to float tolerance.
        instance = single_path_instance()
        standalone = standalone_times_reference(instance)
        legacy = srtf_priority_reference(instance, standalone)
        ref = simulate_priority_schedule_reference(
            instance, legacy, record_timeline=True
        )
        inc = simulate_priority_schedule(
            instance,
            srtf_like_priority(instance),
            record_timeline=True,
            incremental=True,
        )
        assert_event_for_event(inc, ref, rtol=1e-7, atol=1e-9)

    def test_free_path_objective_level(self):
        instance = free_path_instance()
        standalone = standalone_times_reference(instance)
        legacy = srtf_priority_reference(instance, standalone)
        ref = simulate_priority_schedule_reference(instance, legacy)
        inc = simulate_priority_schedule(
            instance, srtf_like_priority(instance), incremental=True
        )
        assert inc.metadata["events"] == ref.metadata["events"]
        ref_objective = float(
            np.dot(instance.weights, ref.coflow_completion_times)
        )
        inc_objective = float(
            np.dot(instance.weights, inc.coflow_completion_times)
        )
        assert inc_objective == pytest.approx(ref_objective, rel=1e-3)

    def test_one_round_allocation_matches_reference(self):
        # With every flow released at 0, the simulator's first interval is
        # one allocation round over all coflows in priority order.
        for instance in (single_path_instance(), free_path_instance()):
            instance = instance.without_release_times()
            order = list(range(instance.num_coflows))
            first = simulate_priority_schedule(
                instance, static_order_priority(order), record_timeline=True
            ).timeline[0]
            old = allocate_rates_reference(instance, instance.demands(), order)
            assert first.start == 0.0
            np.testing.assert_allclose(first.rates, old.rates, rtol=1e-6, atol=1e-8)


class TestStandaloneCache:
    def test_cached_value_is_stable(self):
        instance = free_path_instance()
        first = coflow_standalone_time(instance, 0)
        allocator = get_rate_allocator(instance)
        cache_size = len(allocator._standalone_cache)
        second = coflow_standalone_time(instance, 0)
        assert second == first
        assert len(allocator._standalone_cache) == cache_size  # hit, no new entry

    def test_matches_reference_times(self):
        for instance in (single_path_instance(), free_path_instance()):
            ref = standalone_times_reference(instance)
            new = np.array(
                [
                    coflow_standalone_time(instance, j)
                    for j in range(instance.num_coflows)
                ]
            )
            np.testing.assert_allclose(new, ref, rtol=1e-8, atol=1e-10)

    def test_distinct_remaining_gets_distinct_entry(self):
        instance = single_path_instance()
        base = coflow_standalone_time(instance, 0)
        halved = coflow_standalone_time(
            instance, 0, remaining=instance.demands() * 0.5
        )
        assert halved == pytest.approx(base * 0.5)


#: Every built-in scenario family at indices 0 and 1, which between them
#: cover both transmission models of each family.
FAMILY_SCENARIOS = [
    (family, index) for family in BUILTIN_FAMILIES for index in (0, 1)
]
SINGLE_PATH_SCENARIOS = [
    (family, index)
    for family, index in FAMILY_SCENARIOS
    if expected_model(family, index) is TransmissionModel.SINGLE_PATH
]


def family_instance(family: str, index: int) -> CoflowInstance:
    return build_scenario(family, index, 2019).instance


def priority_pair(instance: CoflowInstance, name: str):
    """The array-based priority and its loop-based reference twin."""
    if name == "fifo":
        return fifo_priority, fifo_priority_reference
    standalone = standalone_times_reference(instance)
    return (
        srtf_like_priority(instance),
        srtf_priority_reference(instance, standalone),
    )


class TestFamilyLoopEquivalence:
    """The event loops agree on every scenario family, not just on the two
    hand-built instances above."""

    @pytest.mark.parametrize("priority", ["fifo", "srtf"])
    @pytest.mark.parametrize("family, index", FAMILY_SCENARIOS)
    def test_incremental_matches_full(self, family, index, priority):
        instance = family_instance(family, index)
        fast, _ = priority_pair(instance, priority)
        inc = simulate_priority_schedule(
            instance, fast, record_timeline=True, incremental=True
        )
        full = simulate_priority_schedule(
            instance, fast, record_timeline=True, incremental=False
        )
        assert_event_for_event(inc, full)

    @pytest.mark.parametrize("priority", ["fifo", "srtf"])
    @pytest.mark.parametrize("family, index", SINGLE_PATH_SCENARIOS)
    def test_single_path_matches_reference_loop(self, family, index, priority):
        # Free path is left out on purpose: the two loops' max-concurrent-flow
        # LPs may pick different optimal routings (zipf-sizes-0 under SRTF
        # differs by about 1% in objective), which is no fault of either.
        instance = family_instance(family, index)
        fast, legacy = priority_pair(instance, priority)
        inc = simulate_priority_schedule(instance, fast, record_timeline=True)
        ref = simulate_priority_schedule_reference(
            instance, legacy, record_timeline=True
        )
        assert_event_for_event(inc, ref, rtol=1e-7, atol=1e-9)


class TestFamilyTimelines:
    """What the recorded FIFO timeline promises on every scenario family."""

    @pytest.mark.parametrize("family, index", FAMILY_SCENARIOS)
    def test_timeline_delivers_each_demand(self, family, index):
        instance = family_instance(family, index)
        result = simulate_priority_schedule(
            instance, fifo_priority, record_timeline=True
        )
        release = instance.flow_release_times()
        completion = result.flow_completion_times
        delivered = np.zeros(instance.num_flows)
        previous_end = 0.0
        for entry in result.timeline:
            assert entry.start >= previous_end - 1e-9
            assert entry.end > entry.start
            previous_end = entry.end
            assert np.all(entry.rates >= 0.0)
            moving = entry.rates > 0.0
            # A flow moves only between its release and its completion.
            assert np.all(release[moving] <= entry.start + 1e-9)
            assert np.all(completion[moving] >= entry.end - 1e-9)
            delivered += entry.rates * entry.duration
        np.testing.assert_allclose(
            delivered, instance.demands(), rtol=1e-7, atol=1e-7
        )
        assert previous_end == pytest.approx(completion.max(), abs=1e-9)

    @pytest.mark.parametrize("family, index", FAMILY_SCENARIOS)
    def test_timeline_respects_capacity(self, family, index):
        instance = family_instance(family, index)
        graph = instance.graph
        capacity = graph.capacity_vector()
        result = simulate_priority_schedule(
            instance, fifo_priority, record_timeline=True
        )
        refs = instance.flow_refs()
        if instance.model is TransmissionModel.SINGLE_PATH:
            # Pinned paths: the exact per-edge load of every interval.
            edge_index = graph.edge_index()
            incidence = np.zeros((graph.num_edges, instance.num_flows))
            for ref in refs:
                for edge in ref.flow.path_edges():
                    incidence[edge_index[edge], ref.global_index] = 1.0
            for entry in result.timeline:
                assert np.all(incidence @ entry.rates <= capacity * (1 + 1e-6) + 1e-9)
            return
        # Free path: routing is not recorded, but no node can send (receive)
        # more than the capacity of its outgoing (incoming) edges.
        for entry in result.timeline:
            sent = {}
            received = {}
            for ref in refs:
                rate = entry.rates[ref.global_index]
                sent[ref.flow.source] = sent.get(ref.flow.source, 0.0) + rate
                received[ref.flow.sink] = received.get(ref.flow.sink, 0.0) + rate
            for node, rate in sent.items():
                bound = capacity[graph.out_edge_indices(node)].sum()
                assert rate <= bound * (1 + 1e-6) + 1e-9
            for node, rate in received.items():
                bound = capacity[graph.in_edge_indices(node)].sum()
                assert rate <= bound * (1 + 1e-6) + 1e-9

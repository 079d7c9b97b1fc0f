"""Tests for the continuous-time, event-driven simulator."""

import numpy as np
import pytest

import repro
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.topologies import paper_example_topology, parallel_edges_topology
from repro.sim.simulator import (
    fifo_priority,
    simulate_priority_schedule,
    static_order_priority,
)


@pytest.fixture
def shared_edge_instance() -> CoflowInstance:
    """Two coflows competing for one unit-capacity edge."""
    graph = parallel_edges_topology(1, capacity=1.0)
    coflows = [
        Coflow([Flow("x1", "y1", 2.0, path=("x1", "y1"))], weight=1.0, name="long"),
        Coflow([Flow("x1", "y1", 1.0, path=("x1", "y1"))], weight=1.0, name="short"),
    ]
    return CoflowInstance(graph, coflows, model=TransmissionModel.SINGLE_PATH)


class TestStaticOrder:
    def test_priority_order_determines_completion(self, shared_edge_instance):
        long_first = simulate_priority_schedule(
            shared_edge_instance, static_order_priority([0, 1])
        )
        short_first = simulate_priority_schedule(
            shared_edge_instance, static_order_priority([1, 0])
        )
        # Long first: completions (2, 3); short first: (3, 1).
        np.testing.assert_allclose(long_first.coflow_completion_times, [2.0, 3.0])
        np.testing.assert_allclose(short_first.coflow_completion_times, [3.0, 1.0])
        assert short_first.total_completion_time < long_first.total_completion_time

    def test_makespan_equals_total_work(self, shared_edge_instance):
        result = simulate_priority_schedule(
            shared_edge_instance, static_order_priority([0, 1])
        )
        assert result.makespan == pytest.approx(3.0)

    def test_weighted_objective(self, shared_edge_instance):
        result = simulate_priority_schedule(
            shared_edge_instance, static_order_priority([1, 0])
        )
        assert result.weighted_completion_time == pytest.approx(4.0)


class TestReleaseTimes:
    def test_flow_waits_for_release(self):
        graph = parallel_edges_topology(1, capacity=1.0)
        coflows = [
            Coflow(
                [Flow("x1", "y1", 1.0, path=("x1", "y1"), release_time=5.0)],
                release_time=5.0,
            )
        ]
        instance = CoflowInstance(graph, coflows, model="single_path")
        result = simulate_priority_schedule(instance, fifo_priority)
        assert result.coflow_completion_times[0] == pytest.approx(6.0)

    def test_capacity_used_while_waiting(self):
        graph = parallel_edges_topology(1, capacity=1.0)
        coflows = [
            Coflow([Flow("x1", "y1", 3.0, path=("x1", "y1"))], name="early"),
            Coflow(
                [Flow("x1", "y1", 1.0, path=("x1", "y1"), release_time=1.0)],
                release_time=1.0,
                name="late",
            ),
        ]
        instance = CoflowInstance(graph, coflows, model="single_path")
        # Late coflow has higher priority once released.
        result = simulate_priority_schedule(instance, static_order_priority([1, 0]))
        np.testing.assert_allclose(result.coflow_completion_times, [4.0, 2.0])


class TestFreePathSimulation:
    def test_free_path_splits_over_paths(self):
        graph = paper_example_topology()
        coflows = [Coflow([Flow("s", "t", 3.0)], name="blue")]
        instance = CoflowInstance(graph, coflows, model="free_path")
        result = simulate_priority_schedule(instance, fifo_priority)
        # Max flow 3 -> completion at time 1.
        assert result.coflow_completion_times[0] == pytest.approx(1.0, abs=1e-6)

    def test_free_path_work_conservation(self):
        graph = paper_example_topology()
        coflows = [
            Coflow([Flow("v1", "t", 1.0)], name="red"),
            Coflow([Flow("s", "t", 3.0)], name="blue"),
        ]
        instance = CoflowInstance(graph, coflows, model="free_path")
        result = simulate_priority_schedule(instance, static_order_priority([0, 1]))
        # Red can use the direct edge plus the detour through s, finishing at
        # 0.5; blue uses the remaining capacity meanwhile and everything
        # afterwards, so it must finish well before the serial bound 0.5 + 1.
        assert result.coflow_completion_times[0] == pytest.approx(0.5, abs=1e-6)
        assert result.coflow_completion_times[1] <= 1.5 + 1e-6


class TestTimelineAndDiagnostics:
    def test_timeline_recorded_when_requested(self, shared_edge_instance):
        result = simulate_priority_schedule(
            shared_edge_instance,
            static_order_priority([0, 1]),
            record_timeline=True,
        )
        assert len(result.timeline) >= 2
        total = sum(
            entry.rates.sum() * entry.duration for entry in result.timeline
        )
        assert total == pytest.approx(3.0, abs=1e-6)

    def test_timeline_rates_respect_capacity(self, shared_edge_instance):
        result = simulate_priority_schedule(
            shared_edge_instance,
            static_order_priority([0, 1]),
            record_timeline=True,
        )
        for entry in result.timeline:
            assert entry.rates.sum() <= 1.0 + 1e-6

    def test_event_count_recorded(self, shared_edge_instance):
        result = simulate_priority_schedule(
            shared_edge_instance, static_order_priority([0, 1])
        )
        assert result.metadata["events"] >= 2

    def test_max_time_guard(self, shared_edge_instance):
        with pytest.raises(RuntimeError, match="max_time"):
            simulate_priority_schedule(
                shared_edge_instance,
                static_order_priority([0, 1]),
                max_time=0.5,
            )

    def test_priority_function_missing_coflows_is_tolerated(self, shared_edge_instance):
        # Return only one coflow; the simulator appends the rest.
        result = simulate_priority_schedule(
            shared_edge_instance, static_order_priority([1])
        )
        np.testing.assert_allclose(result.coflow_completion_times, [3.0, 1.0])


def sub_tolerance_instance(model: str, *, late: bool) -> CoflowInstance:
    """A coflow of demand 1e-9 (below RATE_TOL) released at 0, optionally
    followed by a one-unit coflow released at t=5."""
    coflows = [Coflow([Flow("v1", "t", 1e-9, path=("v1", "t"))], name="tiny")]
    if late:
        coflows.append(
            Coflow(
                [Flow("v1", "t", 1.0, path=("v1", "t"))],
                release_time=5.0,
                name="late",
            )
        )
    return CoflowInstance(paper_example_topology(), coflows, model=model)


SUB_TOLERANCE_CASES = [
    ("free_path", "terra"),
    ("free_path", "sincronia"),
    ("free_path", "fifo"),
    ("single_path", "sincronia"),
    ("single_path", "fifo"),
]


class TestSubToleranceFlows:
    """A released flow with remaining demand <= RATE_TOL finishes on release."""

    @pytest.mark.parametrize("model,algorithm", SUB_TOLERANCE_CASES)
    def test_finishes_at_release_before_a_later_coflow(self, model, algorithm):
        report = repro.solve(sub_tolerance_instance(model, late=True), algorithm)
        # The late coflow then has the network to itself: v1 -> t carries
        # 2 units per time on free path (direct edge plus the detour via s)
        # and 1 on its pinned single path.
        late_completion = 5.5 if model == "free_path" else 6.0
        np.testing.assert_allclose(
            report.coflow_completion_times, [0.0, late_completion], atol=1e-9
        )
        assert report.objective == pytest.approx(late_completion, abs=1e-9)

    @pytest.mark.parametrize("model,algorithm", SUB_TOLERANCE_CASES)
    def test_lone_flow_does_not_stall(self, model, algorithm):
        report = repro.solve(sub_tolerance_instance(model, late=False), algorithm)
        assert report.coflow_completion_times.tolist() == [0.0]
        assert report.objective == 0.0

    @pytest.mark.parametrize("model", ["free_path", "single_path"])
    def test_simulator_finishes_it_in_one_event(self, model):
        result = simulate_priority_schedule(
            sub_tolerance_instance(model, late=False), fifo_priority
        )
        assert result.flow_completion_times.tolist() == [0.0]
        assert result.metadata["events"] == 1
        assert result.metadata["lp_solves"] == 0


class TestSolveTelemetry:
    def test_lp_solves_are_counted_per_simulation(self):
        graph = paper_example_topology()
        coflows = [
            Coflow([Flow("v1", "t", 1.0)], name="red"),
            Coflow([Flow("s", "t", 3.0)], name="blue"),
        ]
        instance = CoflowInstance(graph, coflows, model="free_path")
        priority = static_order_priority([0, 1])
        first = simulate_priority_schedule(instance, priority)
        assert first.metadata["lp_solves"] > 0
        assert first.metadata["allocations_blocked"] >= 0
        # A replay of the same inputs is answered by the allocator's memo.
        again = simulate_priority_schedule(instance, priority)
        assert again.metadata["lp_solves"] == 0
        np.testing.assert_array_equal(
            again.coflow_completion_times, first.coflow_completion_times
        )

    def test_single_path_solves_no_lp(self, shared_edge_instance):
        result = simulate_priority_schedule(
            shared_edge_instance, static_order_priority([0, 1])
        )
        assert result.metadata["lp_solves"] == 0
        assert result.metadata["allocations_blocked"] == 0

"""Tests for the greedy priority baselines."""

import warnings

import numpy as np
import pytest

from repro.api import solve
from repro.baselines.greedy import fifo_schedule, sebf_schedule, weighted_sjf_schedule
from repro.baselines.result import BaselineResult
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.network.topologies import parallel_edges_topology
from repro.scenarios import BUILTIN_FAMILIES, build_scenario


@pytest.fixture
def contended_instance() -> CoflowInstance:
    """Three coflows on one unit edge: sizes 4, 1, 2 with weights 1, 10, 1."""
    graph = parallel_edges_topology(1, capacity=1.0)
    coflows = [
        Coflow([Flow("x1", "y1", 4.0, path=("x1", "y1"))], weight=1.0, name="big"),
        Coflow([Flow("x1", "y1", 1.0, path=("x1", "y1"))], weight=10.0, name="urgent"),
        Coflow([Flow("x1", "y1", 2.0, path=("x1", "y1"))], weight=1.0, name="mid"),
    ]
    return CoflowInstance(graph, coflows, model="single_path")


class TestFifo:
    def test_fifo_orders_by_release(self, contended_instance):
        result = fifo_schedule(contended_instance)
        # All released at 0: FIFO processes in index order 0, 1, 2.
        np.testing.assert_allclose(result.coflow_completion_times, [4.0, 5.0, 7.0])

    def test_fifo_respects_release_times(self):
        graph = parallel_edges_topology(1)
        coflows = [
            Coflow(
                [Flow("x1", "y1", 1.0, path=("x1", "y1"), release_time=3.0)],
                release_time=3.0,
            ),
            Coflow([Flow("x1", "y1", 1.0, path=("x1", "y1"))]),
        ]
        instance = CoflowInstance(graph, coflows, model="single_path")
        result = fifo_schedule(instance)
        # The time-0 coflow goes first even though it has a larger index.
        np.testing.assert_allclose(result.coflow_completion_times, [4.0, 1.0])


class TestWeightedSJF:
    def test_prioritizes_high_weight_short_jobs(self, contended_instance):
        result = weighted_sjf_schedule(contended_instance)
        # Ratios: big 4/1=4, urgent 1/10=0.1, mid 2/1=2 -> order urgent, mid, big.
        np.testing.assert_allclose(result.coflow_completion_times, [7.0, 1.0, 3.0])

    def test_beats_fifo_on_weighted_objective(self, contended_instance):
        fifo = fifo_schedule(contended_instance)
        wsjf = weighted_sjf_schedule(contended_instance)
        assert wsjf.weighted_completion_time < fifo.weighted_completion_time

    def test_reduces_to_sjf_with_unit_weights(self, contended_instance):
        unweighted = contended_instance.unweighted()
        result = weighted_sjf_schedule(unweighted)
        # SJF order: urgent (1), mid (2), big (4).
        np.testing.assert_allclose(result.coflow_completion_times, [7.0, 1.0, 3.0])


class TestOneWsjfOrder:
    """``weighted-sjf`` and ``online-wsjf`` run the same static order."""

    def test_tiny_weight_is_scheduled_last_without_warning(self):
        # A valid (positive) weight whose ratio overflows: the coflow adds
        # nothing to the objective, so it goes last, with no RuntimeWarning.
        graph = parallel_edges_topology(1, capacity=1.0)
        coflows = [
            Coflow([Flow("x1", "y1", 1.0, path=("x1", "y1"))], weight=1e-320),
            Coflow([Flow("x1", "y1", 2.0, path=("x1", "y1"))], weight=1.0),
        ]
        instance = CoflowInstance(graph, coflows, model="single_path")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = weighted_sjf_schedule(instance)
        np.testing.assert_allclose(result.coflow_completion_times, [3.0, 2.0])

    @pytest.mark.parametrize(
        "family, index", [(f, i) for f in BUILTIN_FAMILIES for i in (0, 1)]
    )
    def test_offline_and_online_completion_times_are_identical(self, family, index):
        instance = build_scenario(family, index, 0).instance
        offline = solve(instance, "weighted-sjf")
        online = solve(instance, "online-wsjf")
        np.testing.assert_array_equal(
            offline.coflow_completion_times, online.coflow_completion_times
        )


class TestSebf:
    def test_sebf_orders_by_standalone_time(self, contended_instance):
        result = sebf_schedule(contended_instance)
        np.testing.assert_allclose(result.coflow_completion_times, [7.0, 1.0, 3.0])

    def test_total_completion_not_worse_than_fifo(self, contended_instance):
        fifo = fifo_schedule(contended_instance)
        sebf = sebf_schedule(contended_instance)
        assert sebf.total_completion_time <= fifo.total_completion_time + 1e-9


class TestBaselineResult:
    def test_shape_validation(self, contended_instance):
        with pytest.raises(ValueError):
            BaselineResult(
                algorithm="x",
                instance=contended_instance,
                coflow_completion_times=np.zeros(2),
            )

    def test_objectives(self, contended_instance):
        result = BaselineResult(
            algorithm="x",
            instance=contended_instance,
            coflow_completion_times=np.array([1.0, 2.0, 3.0]),
        )
        assert result.weighted_completion_time == pytest.approx(1 + 20 + 3)
        assert result.total_completion_time == pytest.approx(6.0)
        assert result.makespan == pytest.approx(3.0)
        assert result.gap_to(12.0) == pytest.approx(2.0)
        assert result.gap_to(0.0) == float("inf")

"""Tests for idle-slot compaction and truncation."""

from typing import List, Optional

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.topologies import parallel_edges_topology
from repro.schedule.compaction import (
    compact_schedule,
    compaction_gain,
    truncate_completed_flows,
)
from repro.schedule.feasibility import check_feasibility
from repro.schedule.schedule import FRACTION_TOL, Schedule
from repro.schedule.timegrid import TimeGrid


class TestTruncation:
    def test_no_change_when_already_within_demand(self):
        fractions = np.array([[0.5, 0.5, 0.0]])
        np.testing.assert_allclose(truncate_completed_flows(fractions), fractions)

    def test_excess_is_cut_at_one(self):
        fractions = np.array([[0.6, 0.6, 0.6]])
        truncated = truncate_completed_flows(fractions)
        np.testing.assert_allclose(truncated, [[0.6, 0.4, 0.0]])
        assert truncated.sum() == pytest.approx(1.0)

    def test_truncation_never_increases_any_slot(self):
        rng = np.random.default_rng(0)
        fractions = rng.uniform(0, 0.5, size=(5, 8))
        truncated = truncate_completed_flows(fractions)
        assert np.all(truncated <= fractions + 1e-12)

    def test_rows_sum_to_at_most_one(self):
        rng = np.random.default_rng(1)
        fractions = rng.uniform(0, 0.6, size=(6, 10))
        truncated = truncate_completed_flows(fractions)
        assert np.all(truncated.sum(axis=1) <= 1.0 + 1e-9)

    def test_rows_that_reach_one_keep_exactly_one(self):
        fractions = np.array([[0.9, 0.9, 0.0], [0.2, 0.2, 0.2]])
        truncated = truncate_completed_flows(fractions)
        assert truncated[0].sum() == pytest.approx(1.0)
        assert truncated[1].sum() == pytest.approx(0.6)


def make_instance(release_b: float = 0.0) -> CoflowInstance:
    graph = parallel_edges_topology(1, capacity=1.0)
    coflows = [
        Coflow([Flow("x1", "y1", 1.0, path=("x1", "y1"))], name="A"),
        Coflow(
            [Flow("x1", "y1", 1.0, path=("x1", "y1"), release_time=release_b)],
            release_time=release_b,
            name="B",
        ),
    ]
    return CoflowInstance(graph, coflows, model=TransmissionModel.SINGLE_PATH)


class TestCompaction:
    def test_moves_slot_into_earlier_idle_slot(self):
        instance = make_instance()
        grid = TimeGrid.uniform(4)
        fractions = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],  # could run in slot 1
            ]
        )
        schedule = Schedule(instance, grid, fractions)
        compacted = compact_schedule(schedule)
        np.testing.assert_allclose(compacted.fractions[1], [0.0, 1.0, 0.0, 0.0])
        assert compacted.weighted_completion_time() < schedule.weighted_completion_time()
        assert check_feasibility(compacted).is_feasible

    def test_respects_release_times(self):
        instance = make_instance(release_b=2.0)
        grid = TimeGrid.uniform(4)
        fractions = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        schedule = Schedule(instance, grid, fractions)
        compacted = compact_schedule(schedule)
        # Slot 1 starts at time 1 < release 2, so the move must go to slot 2.
        np.testing.assert_allclose(compacted.fractions[1], [0.0, 0.0, 1.0, 0.0])
        assert check_feasibility(compacted).is_feasible

    def test_never_increases_objective(self):
        rng = np.random.default_rng(3)
        instance = make_instance()
        grid = TimeGrid.uniform(6)
        for _ in range(10):
            fractions = np.zeros((2, 6))
            for f in range(2):
                slots = rng.choice(6, size=2, replace=False)
                fractions[f, slots] = 0.5
            schedule = Schedule(instance, grid, fractions)
            compacted = compact_schedule(schedule)
            assert (
                compacted.weighted_completion_time()
                <= schedule.weighted_completion_time() + 1e-9
            )

    def test_preserves_totals(self):
        instance = make_instance()
        grid = TimeGrid.uniform(5)
        fractions = np.array(
            [
                [0.0, 0.5, 0.0, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        schedule = Schedule(instance, grid, fractions)
        compacted = compact_schedule(schedule)
        np.testing.assert_allclose(
            compacted.total_fractions(), schedule.total_fractions()
        )

    def test_no_idle_slots_is_a_no_op(self):
        instance = make_instance()
        grid = TimeGrid.uniform(2)
        fractions = np.array([[1.0, 0.0], [0.0, 1.0]])
        schedule = Schedule(instance, grid, fractions)
        compacted = compact_schedule(schedule)
        np.testing.assert_allclose(compacted.fractions, schedule.fractions)

    def test_moves_edge_fractions_together(self):
        graph = parallel_edges_topology(1, capacity=1.0)
        coflows = [Coflow([Flow("x1", "y1", 1.0)], name="A")]
        instance = CoflowInstance(graph, coflows, model=TransmissionModel.FREE_PATH)
        grid = TimeGrid.uniform(3)
        fractions = np.array([[0.0, 0.0, 1.0]])
        edge_fractions = np.zeros((1, 3, 1))
        edge_fractions[0, 2, 0] = 1.0
        schedule = Schedule(instance, grid, fractions, edge_fractions)
        compacted = compact_schedule(schedule)
        assert compacted.fractions[0, 0] == pytest.approx(1.0)
        assert compacted.edge_fractions[0, 0, 0] == pytest.approx(1.0)
        assert compacted.edge_fractions[0, 2, 0] == pytest.approx(0.0)
        assert check_feasibility(compacted).is_feasible

    def test_marks_metadata(self):
        instance = make_instance()
        schedule = Schedule(instance, TimeGrid.uniform(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert compact_schedule(schedule).metadata["compacted"] is True

    def test_compaction_gain(self):
        instance = make_instance()
        grid = TimeGrid.uniform(4)
        before = Schedule(
            instance, grid, np.array([[1.0, 0, 0, 0], [0, 0, 0, 1.0]])
        )
        after = compact_schedule(before)
        gain = compaction_gain(before, after)
        assert 0.0 < gain < 1.0

    def test_compaction_gain_zero_objective(self):
        instance = make_instance()
        grid = TimeGrid.uniform(2)
        empty = Schedule.empty(instance, grid)
        assert compaction_gain(empty, empty) == 0.0


# --------------------------------------------------------------------------- #
# the linear-scan loop as an oracle
# --------------------------------------------------------------------------- #
def compact_schedule_loop(
    schedule: Schedule,
    *,
    tol: float = FRACTION_TOL,
    respect_release_times: bool = True,
) -> Schedule:
    """The compaction loop ``compact_schedule`` replaced: every slot is
    re-tested against ``tol`` and every idle slot is tried in turn, from the
    first.  Kept only as the oracle for the moves of the bisection scan."""
    result = schedule.copy()
    fractions = result.fractions
    edge_fractions = result.edge_fractions
    grid = result.grid
    release = result.instance.flow_release_times()

    active = (fractions > tol).any(axis=0)
    idle: List[int] = [int(s) for s in np.nonzero(~active)[0]]

    for t in range(result.num_slots):
        if not active[t]:
            continue
        flows_here = np.nonzero(fractions[:, t] > tol)[0]
        if flows_here.size == 0:
            continue
        latest_release = float(release[flows_here].max()) if respect_release_times else 0.0
        target: Optional[int] = None
        target_pos = -1
        for pos, candidate in enumerate(idle):
            if candidate >= t:
                break
            if grid.slot_duration(candidate) + 1e-12 < grid.slot_duration(t):
                continue
            if respect_release_times and grid.slot_start(candidate) < latest_release - 1e-12:
                continue
            target = candidate
            target_pos = pos
            break
        if target is None:
            continue
        fractions[:, target] = fractions[:, t]
        fractions[:, t] = 0.0
        if edge_fractions is not None:
            edge_fractions[:, target, :] = edge_fractions[:, t, :]
            edge_fractions[:, t, :] = 0.0
        idle.pop(target_pos)
        insert_at = 0
        while insert_at < len(idle) and idle[insert_at] < t:
            insert_at += 1
        idle.insert(insert_at, t)
        active[target] = True
        active[t] = False

    result.metadata["compacted"] = True
    return result


def random_grid(kind: str, rng: np.random.Generator) -> TimeGrid:
    if kind == "uniform":
        return TimeGrid.uniform(int(rng.integers(4, 40)), float(rng.choice([0.5, 1.0])))
    if kind == "geometric":
        return TimeGrid.geometric(float(rng.uniform(10.0, 80.0)), float(rng.choice([0.1, 0.2, 0.5])))
    # Mixed slot lengths: an idle slot may be too short for a later slot.
    lengths = rng.choice([0.5, 1.0, 2.0], size=int(rng.integers(4, 40)))
    return TimeGrid.from_boundaries(np.concatenate([[0.0], np.cumsum(lengths)]))


def random_schedule(
    rng: np.random.Generator, grid: TimeGrid, with_edges: bool
) -> Schedule:
    """Random flows on three parallel links, released anywhere on the grid
    (or at 0), and a random mix of busy and idle slots."""
    graph = parallel_edges_topology(3)
    coflows = []
    for _ in range(int(rng.integers(1, 7))):
        link = int(rng.integers(1, 4))
        release = float(rng.choice([0.0, rng.uniform(0.0, grid.horizon)]))
        path = None if with_edges else (f"x{link}", f"y{link}")
        flow = Flow(f"x{link}", f"y{link}", 1.0, path=path, release_time=release)
        coflows.append(Coflow([flow], release_time=release))
    model = TransmissionModel.FREE_PATH if with_edges else TransmissionModel.SINGLE_PATH
    instance = CoflowInstance(graph, coflows, model=model)

    shape = (instance.num_flows, grid.num_slots)
    sending = (rng.random(grid.num_slots) < 0.4) & (rng.random(shape) < 0.6)
    fractions = np.where(sending, rng.uniform(0.05, 0.5, shape), 0.0)
    # Amounts at or below the tolerance leave a slot idle.
    fractions[rng.random(shape) < 0.05] = FRACTION_TOL / 2
    edge_fractions = None
    if with_edges:
        edge_fractions = rng.random((*shape, graph.num_edges)) * (fractions > 0)[..., None]
    return Schedule(instance, grid, fractions, edge_fractions)


class TestCompactionMatchesLoopOracle:
    @pytest.mark.parametrize("respect_release_times", [True, False])
    @pytest.mark.parametrize("with_edges", [False, True])
    @pytest.mark.parametrize("grid_kind", ["uniform", "geometric", "mixed"])
    def test_same_moves_on_random_schedules(self, grid_kind, with_edges, respect_release_times):
        rng = np.random.default_rng([7, len(grid_kind), with_edges, respect_release_times])
        moved = 0
        for _ in range(40):
            schedule = random_schedule(rng, random_grid(grid_kind, rng), with_edges)
            fast = compact_schedule(schedule, respect_release_times=respect_release_times)
            slow = compact_schedule_loop(schedule, respect_release_times=respect_release_times)
            np.testing.assert_array_equal(fast.fractions, slow.fractions)
            if with_edges:
                np.testing.assert_array_equal(fast.edge_fractions, slow.edge_fractions)
            else:
                assert fast.edge_fractions is None
            moved += not np.array_equal(fast.fractions, schedule.fractions)
        # The comparison is not vacuous: most schedules had a slot to move.
        assert moved >= 10

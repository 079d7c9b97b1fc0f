"""Tests for the rate-allocation primitives of the continuous-time simulator."""

import networkx as nx
import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.lp.backends import HIGHS_AVAILABLE
from repro.lp.solver import solve_lp
from repro.network.topologies import (
    gscale_topology,
    paper_example_topology,
    parallel_edges_topology,
    swan_topology,
)
from repro.sim.rate_allocation import (
    RATE_TOL,
    RateAllocator,
    _FreePathTemplate,
    coflow_standalone_time,
    get_rate_allocator,
    max_concurrent_rate,
)
from repro.workloads.generator import WorkloadSpec, generate_instance

import sim_reference as reference


def allocate(instance, remaining, order, residual=None):
    """One priority-ordered allocation round, as the simulator runs it.

    Each coflow of *order* in turn gets its fastest-completion allocation
    (``RateAllocator.coflow_allocation``) on the capacity the coflows before
    it left (all of *residual*, by default the graph's capacities, for the
    first).  Returns ``(rates, usage, left)``: rates by global flow index,
    the capacity used on every edge and the capacity left.
    """
    allocator = get_rate_allocator(instance)
    left = instance.graph.capacity_vector() if residual is None else residual
    rates = np.zeros(instance.num_flows)
    usage = np.zeros(instance.graph.num_edges)
    for j in order:
        alloc = allocator.coflow_allocation(j, remaining, left)
        rates[alloc.flow_idx] = alloc.flow_rates
        usage += alloc.usage
        left = np.clip(left - alloc.usage, 0.0, None)
    return rates, usage, left


@pytest.fixture
def disjoint_instance() -> CoflowInstance:
    graph = parallel_edges_topology(2, capacity=2.0)
    coflows = [
        Coflow(
            [
                Flow("x1", "y1", 4.0, path=("x1", "y1")),
                Flow("x2", "y2", 2.0, path=("x2", "y2")),
            ],
            name="A",
        ),
        Coflow([Flow("x1", "y1", 2.0, path=("x1", "y1"))], name="B"),
    ]
    return CoflowInstance(graph, coflows, model=TransmissionModel.SINGLE_PATH)


@pytest.fixture
def free_instance() -> CoflowInstance:
    graph = paper_example_topology()
    coflows = [
        Coflow([Flow("s", "t", 3.0)], name="blue"),
        Coflow([Flow("v1", "t", 1.0)], name="red"),
    ]
    return CoflowInstance(graph, coflows, model=TransmissionModel.FREE_PATH)


class TestSinglePathRates:
    def test_proportional_progress(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        rates, usage, _ = allocate(disjoint_instance, remaining, [0])
        # alpha = min(2/4, 2/2) = 0.5 -> rates 2.0 and 1.0.
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(1.0)
        # Both flows finish simultaneously at their bottleneck.
        assert usage.sum() == pytest.approx(3.0)

    def test_finished_flows_get_zero(self, disjoint_instance):
        remaining = np.array([0.0, 2.0, 2.0])
        rates, _, _ = allocate(disjoint_instance, remaining, [0])
        assert rates[0] == 0.0
        assert rates[1] > 0.0

    def test_zero_residual_gives_zero_rates(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        rates, usage, _ = allocate(disjoint_instance, remaining, [0], np.zeros(2))
        assert np.all(rates == 0.0)
        assert np.all(usage == 0.0)


class TestFreePathRates:
    def test_single_flow_uses_all_disjoint_paths(self, free_instance):
        remaining = free_instance.demands()
        # Coflow 0 is blue, s -> t with demand 3.
        rates, usage, _ = allocate(free_instance, remaining, [0])
        # Max flow from s to t is 3 (three unit paths), so the whole demand
        # can ship at rate 3 (alpha = 1).
        assert rates[0] == pytest.approx(3.0, abs=1e-6)
        assert usage.sum() == pytest.approx(6.0, abs=1e-5)  # 3 units over 2 hops

    def test_respects_residual_capacity(self, free_instance):
        remaining = free_instance.demands()
        residual = free_instance.graph.capacity_vector() * 0.5
        rates, usage, _ = allocate(free_instance, remaining, [0], residual)
        assert rates[0] == pytest.approx(1.5, abs=1e-6)
        edge_index = free_instance.graph.edge_index()
        for e, idx in edge_index.items():
            assert usage[idx] <= residual[idx] + 1e-6

    def test_empty_active_set(self, free_instance):
        remaining = np.zeros(free_instance.num_flows)
        rates, usage, _ = allocate(free_instance, remaining, [0])
        assert np.all(rates == 0.0)
        assert np.all(usage == 0.0)


class TestAllocateRates:
    def test_priority_order_matters(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        first, _, _ = allocate(disjoint_instance, remaining, [0, 1])
        second, _, _ = allocate(disjoint_instance, remaining, [1, 0])
        # Coflow B (flow index 2) shares edge x1->y1 with coflow A's flow 0.
        assert first[2] < second[2]

    def test_work_conservation_on_disjoint_edges(self, disjoint_instance):
        remaining = disjoint_instance.demands()
        rates, _, _ = allocate(disjoint_instance, remaining, [0, 1])
        # Edge x2->y2 is used only by coflow A, so it should not be starved by
        # coflow B's priority position.
        assert rates[1] > 0.0

    def test_residual_capacity_nonnegative(self, disjoint_instance, free_instance):
        for inst in (disjoint_instance, free_instance):
            capacity = inst.graph.capacity_vector()
            _, usage, left = allocate(inst, inst.demands(), range(inst.num_coflows))
            assert np.all(left >= -1e-9)
            assert np.all(usage <= capacity + 1e-6)

    def test_inactive_coflows_get_no_rate(self, disjoint_instance):
        # The simulator allocates only to released, unfinished coflows: with
        # coflow A left out, B has its edge to itself.
        rates, _, _ = allocate(disjoint_instance, disjoint_instance.demands(), [1])
        assert rates[0] == 0.0
        assert rates[1] == 0.0
        assert rates[2] == pytest.approx(2.0)

    def test_free_path_edge_rates_reported(self, free_instance):
        allocator = get_rate_allocator(free_instance)
        remaining = free_instance.demands()
        graph = free_instance.graph
        alloc = allocator.coflow_allocation(0, remaining, graph.capacity_vector())
        assert alloc.edge_rates.shape == (alloc.flow_idx.size, graph.num_edges)
        np.testing.assert_allclose(alloc.usage, alloc.edge_rates.sum(axis=0))
        # Each flow's edge rates carry its rate out of its source.
        refs = free_instance.flow_refs()
        for f, rate, row in zip(alloc.flow_idx, alloc.flow_rates, alloc.edge_rates):
            sent = row[graph.out_edge_indices(refs[f].flow.source)].sum()
            assert sent == pytest.approx(rate)


class TestStandaloneTime:
    def test_single_flow_on_unit_path(self, free_instance):
        # Blue can ship 3 units at rate 3 -> standalone time 1.  Red's max
        # flow from v1 to t is 2 (direct edge plus the detour through s), so
        # its standalone time is 0.5.
        assert coflow_standalone_time(free_instance, 0) == pytest.approx(1.0, abs=1e-6)
        assert coflow_standalone_time(free_instance, 1) == pytest.approx(0.5, abs=1e-6)

    def test_single_path_standalone_time(self, disjoint_instance):
        # Coflow A: flows 4 and 2 on capacity-2 edges -> bottleneck 2 time units.
        assert coflow_standalone_time(disjoint_instance, 0) == pytest.approx(2.0)
        assert coflow_standalone_time(disjoint_instance, 1) == pytest.approx(1.0)

    def test_zero_remaining_returns_zero(self, disjoint_instance):
        remaining = np.zeros(disjoint_instance.num_flows)
        assert coflow_standalone_time(disjoint_instance, 0, remaining) == 0.0

    def test_max_concurrent_rate_scales_with_capacity(self, disjoint_instance):
        base = max_concurrent_rate(disjoint_instance, 0)
        scaled_graph = disjoint_instance.graph.scaled(2.0)
        scaled = CoflowInstance(
            scaled_graph,
            disjoint_instance.coflows,
            model=disjoint_instance.model,
        )
        assert max_concurrent_rate(scaled, 0) == pytest.approx(2.0 * base)


class TestTemplateProgram:
    """The vectorized template states the loop-built LP of the reference."""

    @pytest.mark.parametrize("topology", [swan_topology, gscale_topology])
    def test_matches_reference_program(self, topology, monkeypatch):
        graph = topology()
        instance = generate_instance(
            graph, WorkloadSpec(profile="FB", num_coflows=6, seed=3), rng=3
        )
        allocator = RateAllocator(instance)
        rng = np.random.default_rng(2)
        remaining = instance.demands() * rng.uniform(0.2, 1.0, instance.num_flows)
        residual = graph.capacity_vector() * rng.uniform(0.0, 1.0, graph.num_edges)
        built = []

        def capture(lp, **kwargs):
            built.append(lp)
            return solve_lp(lp, **kwargs)

        monkeypatch.setattr(reference, "solve_lp", capture)
        for j in range(instance.num_coflows):
            refs = instance.flows_of(j)
            flows = np.array([r.global_index for r in refs])
            reference.free_path_coflow_rates_reference(
                instance, refs, remaining, residual
            )
            c, a_ub, b_ub, a_eq, b_eq, (lower, upper) = built[-1].build_matrices()
            template = _FreePathTemplate(
                graph.num_edges, [allocator._commodity(f) for f in flows]
            )
            spec = template.spec(remaining[flows], np.maximum(residual, 0.0))
            np.testing.assert_array_equal(spec.c, c)
            for mine, theirs in ((spec.a_eq, a_eq), (spec.a_ub, a_ub)):
                assert mine.shape == theirs.shape
                assert (mine != theirs).nnz == 0
            np.testing.assert_array_equal(spec.b_eq, b_eq)
            np.testing.assert_array_equal(spec.b_ub, b_ub)
            np.testing.assert_array_equal(spec.col_lower, lower)
            np.testing.assert_array_equal(spec.col_upper, upper)


class TestReachabilityShortCircuit:
    """A free-path coflow with an unreachable sink skips its LP, exactly."""

    @pytest.mark.parametrize("topology", [swan_topology, gscale_topology])
    def test_blocked_iff_lp_rate_is_zero(self, topology):
        graph = topology()
        instance = generate_instance(
            graph, WorkloadSpec(profile="FB", num_coflows=12, seed=5), rng=5
        )
        allocator = RateAllocator(instance)
        capacity = graph.capacity_vector()
        remaining = instance.demands()
        refs = instance.flow_refs()
        nx_graph = graph.to_networkx()
        rng = np.random.default_rng(11)
        outcomes = {True: 0, False: 0}
        for trial in range(60):
            j = int(rng.integers(instance.num_coflows))
            flows = np.array([r.global_index for r in instance.flows_of(j)])
            closed = rng.random(graph.num_edges) < rng.choice([0.15, 0.3, 0.5])
            residual = np.where(
                closed, 0.0, capacity * rng.uniform(0.1, 1.0, graph.num_edges)
            )
            blocked = not allocator._sinks_reachable(flows, residual)
            # The closure agrees with a plain path search on the open edges.
            open_graph = nx_graph.edge_subgraph(
                e for e, is_closed in zip(graph.edges, closed) if not is_closed
            )
            expect_blocked = not all(
                r.flow.source in open_graph
                and r.flow.sink in open_graph
                and nx.has_path(open_graph, r.flow.source, r.flow.sink)
                for r in (refs[f] for f in flows)
            )
            assert blocked == expect_blocked
            template = _FreePathTemplate(
                graph.num_edges, [allocator._commodity(f) for f in flows]
            )
            alpha, _ = template.solve(remaining[flows], residual, allocator._engine)
            if blocked:
                assert alpha <= RATE_TOL
            else:
                # Every open edge carries >= 0.1 residual, so progress is positive.
                assert alpha > RATE_TOL
            outcomes[blocked] += 1
        assert outcomes[True] and outcomes[False]

    @pytest.fixture()
    def two_coflows(self) -> CoflowInstance:
        coflows = [
            Coflow([Flow("s", "t", 3.0)], name="from-s"),
            Coflow([Flow("v1", "t", 1.0)], name="from-v1"),
        ]
        return CoflowInstance(paper_example_topology(), coflows, model="free_path")

    def _source_cut(self, instance: CoflowInstance) -> np.ndarray:
        graph = instance.graph
        residual = graph.capacity_vector()
        residual[graph.out_edge_indices("s")] = 0.0
        return residual

    def _solver_state(self, allocator: RateAllocator) -> tuple:
        """Engine solves and each template's (solve count, basis object)."""
        engine = allocator._engine
        return (
            None if engine is None else engine.solves,
            [(t.solves, id(t.basis)) for t in allocator._templates.values()],
        )

    def test_blocked_coflow_builds_and_solves_nothing(self, two_coflows):
        allocator = RateAllocator(two_coflows)
        remaining = two_coflows.demands()
        capacity = two_coflows.graph.capacity_vector()
        # A template for the other coflow, whose basis and solves must hold.
        allocator.coflow_allocation(1, remaining, capacity)
        templates = dict(allocator._templates)
        state = self._solver_state(allocator)
        lp_solves = allocator.lp_solves

        alloc = allocator.coflow_allocation(0, remaining, self._source_cut(two_coflows))
        assert alloc.flow_idx.size == 0 and alloc.flow_rates.size == 0
        assert not alloc.usage.any()
        assert allocator._templates == templates
        assert self._solver_state(allocator) == state
        assert allocator.lp_solves == lp_solves
        assert allocator.blocked == 1

    def test_blocked_coflow_leaves_its_own_template_alone(self, two_coflows):
        allocator = RateAllocator(two_coflows)
        remaining = two_coflows.demands()
        capacity = two_coflows.graph.capacity_vector()
        assert allocator.coflow_allocation(0, remaining, capacity).flow_idx.size == 1
        state = self._solver_state(allocator)
        alloc = allocator.coflow_allocation(0, remaining, self._source_cut(two_coflows))
        assert alloc.flow_idx.size == 0
        assert self._solver_state(allocator) == state
        assert allocator.lp_solves == 1

    @pytest.mark.skipif(not HIGHS_AVAILABLE, reason="scipy HiGHS API not importable")
    def test_templates_keep_a_basis_on_a_presolve_free_engine(self, free_instance):
        allocator = RateAllocator(free_instance)
        remaining = free_instance.demands()
        capacity = free_instance.graph.capacity_vector()
        for j in range(free_instance.num_coflows):
            allocator.coflow_allocation(j, remaining, capacity)
        assert len(allocator._templates) == free_instance.num_coflows
        for template in allocator._templates.values():
            assert template.basis is not None
        assert allocator._engine._highs.getOptionValue("presolve")[1] == "off"
        assert allocator._engine.solves == free_instance.num_coflows

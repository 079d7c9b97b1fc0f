"""Tests for the HiGHS engine of repro.lp.backends (programs solved in turn,
each warm-started from its own kept basis) and the simulator's linprog
fallback.

The fallback coverage matters operationally: ``HighsEngine`` leans on
``scipy.optimize._highspy``, a *private* scipy module whose layout may change
between releases.  When it is absent, or lacks a call the engine makes, the
simulator's per-event LPs must fall back to plain
:func:`scipy.optimize.linprog` and still produce the same optimal values —
these tests pin that contract by running both paths side by side.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.lp.backends.highs as highs_module
import repro.sim.rate_allocation as rate_allocation_module
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.lp.backends import HIGHS_AVAILABLE, HighsEngine, make_highs_engine
from repro.network.topologies import gscale_topology, paper_example_topology, swan_topology
from repro.sim.rate_allocation import RATE_TOL, RateAllocator, _FreePathTemplate
from repro.sim.simulator import simulate_priority_schedule, static_order_priority
from repro.workloads.generator import WorkloadSpec, generate_instance

needs_highs = pytest.mark.skipif(
    not HIGHS_AVAILABLE, reason="scipy HiGHS API not importable"
)


def free_path_instance() -> CoflowInstance:
    graph = paper_example_topology()
    coflows = [
        Coflow([Flow("s", "t", 3.0)], name="big", weight=2.0),
        Coflow([Flow("s", "v1", 1.0), Flow("v2", "t", 0.5)], name="pair"),
        Coflow([Flow("v3", "t", 1.5)], name="late", release_time=1.0),
    ]
    return CoflowInstance(graph, coflows, model="free_path")


# --------------------------------------------------------------------------- #
# the HiGHS engine (only meaningful where the private API imports)
# --------------------------------------------------------------------------- #
def toy_arrays(row_upper: float = 4.0, x0_coeff: float = 1.0):
    """min -x0 - x1  s.t.  x0_coeff*x0 + x1 <= row_upper, x0 <= 3, x1 <= 3."""
    csc = sparse.csc_matrix(np.array([[x0_coeff, 1.0]]))
    return (
        np.array([-1.0, -1.0]),
        csc.indptr,
        csc.indices,
        csc.data,
        np.array([-np.inf]),
        np.array([row_upper]),
        np.zeros(2),
        np.array([3.0, 3.0]),
    )


@needs_highs
class TestHighsEngine:
    def test_solve_and_resolve_after_bound_change(self):
        engine = make_highs_engine()
        x, basis = engine.solve(*toy_arrays())
        assert x.sum() == pytest.approx(4.0)
        x, _ = engine.solve(*toy_arrays(row_upper=2.0), basis)
        assert x.sum() == pytest.approx(2.0)
        assert engine.solves == 2

    def test_coefficient_rewrite(self):
        engine = make_highs_engine()
        _, basis = engine.solve(*toy_arrays())
        # Double x0's weight in the packing row: only 2 units of x0 fit now.
        x, _ = engine.solve(*toy_arrays(x0_coeff=2.0), basis)
        assert 2.0 * x[0] + x[1] == pytest.approx(4.0)

    def test_restored_basis_needs_no_iterations(self):
        engine = make_highs_engine()
        _, basis = engine.solve(*toy_arrays())
        assert engine._highs.getInfo().simplex_iteration_count > 0
        engine.solve(*toy_arrays(), basis)
        assert engine._highs.getInfo().simplex_iteration_count == 0
        assert engine._highs.getOptionValue("presolve")[1] == "off"

    def test_infeasible_program_raises(self):
        engine = make_highs_engine()
        arrays = list(toy_arrays())
        arrays[4] = np.array([7.0])  # x0 + x1 >= 7 with x0, x1 <= 3
        with pytest.raises(highs_module.HighsEngineError):
            engine.solve(*arrays)


def test_make_highs_engine_returns_none_without_highs(monkeypatch):
    monkeypatch.setattr(highs_module, "HIGHS_AVAILABLE", False)
    assert make_highs_engine() is None


@needs_highs
def test_engine_probe_rejects_an_api_without_a_needed_call(monkeypatch):
    real = highs_module._highs_core._Highs

    class NoSetBasis:
        def __init__(self):
            self._highs = real()

        def __getattr__(self, name):
            if name == "setBasis":
                raise AttributeError(name)
            return getattr(self._highs, name)

    assert highs_module._engine_works()
    monkeypatch.setattr(highs_module._highs_core, "_Highs", NoSetBasis)
    assert not highs_module._engine_works()


# --------------------------------------------------------------------------- #
# one engine per allocator, a basis per template
# --------------------------------------------------------------------------- #
@needs_highs
class TestOneEnginePerAllocator:
    @pytest.fixture(scope="class")
    def hundred(self) -> CoflowInstance:
        return generate_instance(
            swan_topology(), WorkloadSpec(profile="FB", num_coflows=100, seed=7), rng=7
        )

    def test_every_coflow_shares_one_engine(self, hundred, monkeypatch):
        made = []

        def counting_factory():
            engine = make_highs_engine()
            made.append(engine)
            return engine

        monkeypatch.setattr(rate_allocation_module, "make_highs_engine", counting_factory)
        allocator = RateAllocator(hundred)
        remaining = hundred.demands()
        capacity = hundred.graph.capacity_vector()
        for j in range(hundred.num_coflows):
            allocator.coflow_allocation(j, remaining, capacity)
        assert len(made) == 1
        assert len(allocator._templates) > 1
        assert made[0].solves == allocator.lp_solves == len(allocator._templates)
        for template in allocator._templates.values():
            assert template.basis is not None
            assert not any(
                isinstance(value, HighsEngine) for value in vars(template).values()
            )

    def test_single_path_allocator_makes_no_engine(self, monkeypatch):
        made = []
        monkeypatch.setattr(
            rate_allocation_module, "make_highs_engine", lambda: made.append(1)
        )
        instance = generate_instance(
            swan_topology(),
            WorkloadSpec(profile="FB", num_coflows=6, seed=2),
            model="single_path",
            rng=2,
        )
        allocator = RateAllocator(instance)
        remaining = instance.demands()
        capacity = instance.graph.capacity_vector()
        for j in range(instance.num_coflows):
            allocator.coflow_allocation(j, remaining, capacity)
        assert made == []

    def test_interleaved_solves_match_solo_solves(self):
        graph = gscale_topology()
        instance = generate_instance(
            graph, WorkloadSpec(profile="FB", num_coflows=20, seed=4), rng=4
        )
        allocator = RateAllocator(instance)
        sizes = [len(instance.flows_of(j)) for j in range(instance.num_coflows)]
        chosen = sorted(range(instance.num_coflows), key=lambda j: -sizes[j])[:2]
        flow_sets = [
            np.array([r.global_index for r in instance.flows_of(j)]) for j in chosen
        ]
        rng = np.random.default_rng(9)
        capacity = graph.capacity_vector()
        inputs = [
            [
                (
                    instance.demands()[flows] * rng.uniform(0.1, 1.0, flows.size),
                    capacity * rng.uniform(0.3, 1.0, graph.num_edges),
                )
                for _ in range(6)
            ]
            for flows in flow_sets
        ]

        def template(flows):
            return _FreePathTemplate(
                graph.num_edges, [allocator._commodity(f) for f in flows]
            )

        solo = []
        for flows, sequence in zip(flow_sets, inputs):
            engine = make_highs_engine()
            own = template(flows)
            solo.append([own.solve(rem, res, engine) for rem, res in sequence])
        engine = make_highs_engine()
        shared = [template(flows) for flows in flow_sets]
        interleaved = [[], []]
        for step in range(6):
            for which in (0, 1):
                rem, res = inputs[which][step]
                interleaved[which].append(shared[which].solve(rem, res, engine))
        assert engine.solves == 12
        for which in (0, 1):
            for (alpha, y), (solo_alpha, _), (rem, res) in zip(
                interleaved[which], solo[which], inputs[which]
            ):
                assert alpha > RATE_TOL
                np.testing.assert_allclose(alpha, solo_alpha, rtol=1e-9)
                assert np.all(y >= 0.0)
                assert np.all(y.sum(axis=0) <= res + 1e-9)


# --------------------------------------------------------------------------- #
# linprog fallback of the simulator's per-event LPs
# --------------------------------------------------------------------------- #
class TestLinprogFallback:
    """With make_highs_engine forced to None, the per-event free-path LPs
    go through scipy.optimize.linprog and must reach the same optima."""

    @pytest.fixture()
    def fallback(self, monkeypatch):
        monkeypatch.setattr(rate_allocation_module, "make_highs_engine", lambda: None)

    def test_allocator_reports_no_engine(self, fallback):
        allocator = RateAllocator(free_path_instance())
        remaining = free_path_instance().demands()
        capacity = free_path_instance().graph.capacity_vector()
        alloc = allocator.coflow_allocation(0, remaining, capacity)
        template = next(iter(allocator._templates.values()))
        assert allocator._engine is None
        assert template.basis is None
        assert alloc.flow_rates.size == 1 and alloc.flow_rates[0] > 0

    @pytest.mark.parametrize(
        "instance",
        [
            free_path_instance(),
            generate_instance(
                gscale_topology(), WorkloadSpec(profile="FB", num_coflows=12, seed=6), rng=6
            ),
        ],
        ids=["paper-example", "gscale-fb"],
    )
    def test_fallback_matches_engine_alpha(self, instance, monkeypatch):
        if not HIGHS_AVAILABLE:
            pytest.skip("needs the engine path to compare against")
        remaining = instance.demands()
        residual = instance.graph.capacity_vector()
        with_engine = RateAllocator(instance)
        assert with_engine._engine is not None  # made before the patch below
        monkeypatch.setattr(rate_allocation_module, "make_highs_engine", lambda: None)
        without = RateAllocator(instance)
        for j in range(instance.num_coflows):
            a = with_engine.coflow_allocation(j, remaining, residual)
            b = without.coflow_allocation(j, remaining, residual)
            np.testing.assert_array_equal(a.flow_idx, b.flow_idx)
            # The optimal alpha (hence the all-flows-finish-together rates)
            # is unique even when the routing vertex is degenerate.
            np.testing.assert_allclose(a.flow_rates, b.flow_rates, rtol=1e-7, atol=1e-9)
            # Later coflows see what the earlier ones left, as in a round.
            residual = np.clip(residual - a.usage, 0.0, None)
        assert with_engine.lp_solves > 0 and without._engine is None

    def test_full_simulation_under_fallback(self, fallback):
        instance = free_path_instance()
        priority = static_order_priority(range(instance.num_coflows))
        inc = simulate_priority_schedule(instance, priority, incremental=True)
        full = simulate_priority_schedule(instance, priority, incremental=False)
        np.testing.assert_allclose(
            inc.coflow_completion_times,
            full.coflow_completion_times,
            rtol=1e-9,
            atol=1e-9,
        )
        assert np.all(inc.coflow_completion_times > 0)

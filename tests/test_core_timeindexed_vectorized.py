"""Equivalence of the vectorized LP builder and the loop-based reference.

The vectorized assembly must produce the *identical* program: same
objective vector, same right-hand sides, same bounds, and the same
constraint matrices after CSR canonicalization (same nnz, same values).
Both write Eq. 2 through prefix-sum variables, so the optimal objectives
are also pinned to those of the expanded form ``X_j(t) <= sum_{l<=t}
x_f(l)``, and the solved fractions are checked against that literal form.
Both carry the free path model as one commodity per source node, so the
free path optima are pinned to those of the per-flow form (one
``y[f, t, e]`` block per flow), and the per-flow split of the commodity
flows is checked for feasibility and determinism.
"""

import numpy as np
import pytest

import repro.core.timeindexed as timeindexed
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance
from repro.core.timeindexed import (
    build_time_indexed_lp,
    solve_time_indexed_lp,
    suggest_horizon,
)
from repro.core.timeindexed_reference import build_time_indexed_lp_reference
from repro.lp.solver import solve_lp
from repro.network.topologies import (
    gscale_topology,
    paper_example_topology,
    swan_topology,
)
from repro.schedule.feasibility import check_feasibility
from repro.schedule.timegrid import TimeGrid
from repro.workloads.generator import WorkloadSpec, generate_instance


def single_path_instance() -> CoflowInstance:
    graph = swan_topology()
    spec = WorkloadSpec(profile="TPC-DS", num_coflows=4, seed=11, demand_scale=1.5)
    return generate_instance(graph, spec, model="single_path", rng=11)


def free_path_instance() -> CoflowInstance:
    graph = paper_example_topology()
    coflows = [
        Coflow([Flow("s", "t", 3.0)], name="blue", weight=2.0),
        Coflow([Flow("v1", "t", 1.0)], name="red", release_time=1.0),
        Coflow(
            [Flow("s", "v3", 1.5), Flow("v2", "t", 0.5, release_time=2.0)],
            name="green",
        ),
    ]
    return CoflowInstance(graph, coflows, model="free_path")


def swan_free_path_instance() -> CoflowInstance:
    spec = WorkloadSpec(profile="TPC-DS", num_coflows=4, seed=11, demand_scale=1.5)
    return generate_instance(swan_topology(), spec, model="free_path", rng=11)


def gscale_free_path_instance() -> CoflowInstance:
    spec = WorkloadSpec(profile="FB", num_coflows=5, seed=7, demand_scale=1.5)
    return generate_instance(gscale_topology(), spec, model="free_path", rng=7)


FREE_PATH_INSTANCES = {
    "swan": swan_free_path_instance,  # 14 flows from 4 sources
    "gscale": gscale_free_path_instance,  # 25 flows from 11 sources
}


def _canonical(matrix):
    if matrix is None:
        return None
    csr = matrix.copy()
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def assert_same_lp(lp_ref, lp_vec):
    ref = lp_ref.build_matrices()
    vec = lp_vec.build_matrices()
    # objective
    np.testing.assert_array_equal(ref[0], vec[0])
    # A_ub / A_eq after CSR canonicalization: same shape, same nnz, same values
    for a, b in ((ref[1], vec[1]), (ref[3], vec[3])):
        a, b = _canonical(a), _canonical(b)
        if a is None or b is None:
            assert a is None and b is None
            continue
        assert a.shape == b.shape
        assert a.nnz == b.nnz
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)
    # right-hand sides
    for a, b in ((ref[2], vec[2]), (ref[4], vec[4])):
        if a is None or b is None:
            assert a is None and b is None
            continue
        np.testing.assert_array_equal(a, b)
    # bounds (includes the release-time variable fixing)
    for a, b in zip(ref[5], vec[5]):
        np.testing.assert_array_equal(a, b)
    # reported sizes (nnz parity before canonicalization)
    assert lp_ref.size_summary() == lp_vec.size_summary()


GRIDS = {
    "uniform": lambda slots: TimeGrid.uniform(slots, 1.0),
    "uniform-half": lambda slots: TimeGrid.uniform(slots * 2, 0.5),
    "geometric": lambda slots: TimeGrid.geometric(slots, 0.4),
}


#: Optimal objectives of the fixtures under the expanded Eq. 2 (one
#: lower-triangular row of x entries per flow and slot), which the
#: prefix-sum form must reproduce.
EXPANDED_EQ2_OBJECTIVES = {
    ("single_path", "geometric"): 249.49112520050485,
    ("single_path", "uniform"): 249.49112520050485,
    ("single_path", "uniform-half"): 227.32678387956855,
    ("free_path", "geometric"): 7.0,
    ("free_path", "uniform"): 7.0,
    ("free_path", "uniform-half"): 5.5,
}

INSTANCES = {
    "single_path": single_path_instance,
    "free_path": free_path_instance,
}


class TestPrefixSumEq2:
    @pytest.mark.parametrize("model, grid_kind", sorted(EXPANDED_EQ2_OBJECTIVES))
    def test_objective_matches_expanded_form(self, model, grid_kind):
        instance = INSTANCES[model]()
        grid = GRIDS[grid_kind](suggest_horizon(instance))
        lp, bundle = build_time_indexed_lp(instance, grid)
        result = solve_lp(lp, require_optimal=True)
        assert result.objective == pytest.approx(
            EXPANDED_EQ2_OBJECTIVES[model, grid_kind], rel=1e-9
        )
        # The paper's Eq. 2 itself: X_j(t) <= sum_{l <= t} x_f(l) for every
        # flow f of coflow j.
        sent = np.cumsum(result.values(bundle.x), axis=1)
        done = result.values(bundle.big_x)[instance.coflow_of_flow()]
        assert np.all(done <= sent + 1e-9)


class TestBuilderEquivalence:
    @pytest.mark.parametrize("grid_kind", sorted(GRIDS))
    def test_single_path(self, grid_kind):
        instance = single_path_instance()
        grid = GRIDS[grid_kind](suggest_horizon(instance))
        lp_ref, bundle_ref = build_time_indexed_lp_reference(instance, grid)
        lp_vec, bundle_vec = build_time_indexed_lp(instance, grid)
        assert_same_lp(lp_ref, lp_vec)
        np.testing.assert_array_equal(bundle_ref.x, bundle_vec.x)
        np.testing.assert_array_equal(bundle_ref.c, bundle_vec.c)

    @pytest.mark.parametrize("grid_kind", sorted(GRIDS))
    def test_free_path(self, grid_kind):
        instance = free_path_instance()
        grid = GRIDS[grid_kind](suggest_horizon(instance))
        lp_ref, bundle_ref = build_time_indexed_lp_reference(instance, grid)
        lp_vec, bundle_vec = build_time_indexed_lp(instance, grid)
        assert_same_lp(lp_ref, lp_vec)
        np.testing.assert_array_equal(bundle_ref.z, bundle_vec.z)

    def test_release_times_fix_identical_variables(self):
        # The staggered releases of the free-path fixture must fix the same
        # x variables to zero in both builders, and both must close the same
        # z edges into each commodity's source (checked via bounds).
        instance = free_path_instance()
        grid = TimeGrid.uniform(suggest_horizon(instance), 1.0)
        lp_ref, _ = build_time_indexed_lp_reference(instance, grid)
        lp_vec, _ = build_time_indexed_lp(instance, grid)
        ref_lower, ref_upper = lp_ref.build_matrices()[5]
        vec_lower, vec_upper = lp_vec.build_matrices()[5]
        np.testing.assert_array_equal(ref_lower, vec_lower)
        np.testing.assert_array_equal(ref_upper, vec_upper)
        # Releases at t=1 and t=2 must actually fix something.
        assert np.sum(vec_upper == 0.0) > 0

    @pytest.mark.parametrize(
        "make_instance", [single_path_instance, free_path_instance]
    )
    def test_solutions_agree(self, make_instance):
        instance = make_instance()
        grid = TimeGrid.geometric(suggest_horizon(instance), 0.4)
        lp_ref, _ = build_time_indexed_lp_reference(instance, grid)
        lp_vec, _ = build_time_indexed_lp(instance, grid)
        ref = solve_lp(lp_ref, require_optimal=True)
        vec = solve_lp(lp_vec, require_optimal=True)
        assert vec.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(vec.x, ref.x, rtol=1e-9, atol=1e-9)


#: Optimal objectives of the fixtures under the per-flow free path LP (one
#: ``y[f, t, e]`` block per flow, edges into each flow's source and out of
#: its sink closed), which the one-commodity-per-source form must reproduce.
PER_FLOW_OBJECTIVES = {
    ("swan", "uniform"): 231.98683217742575,
    ("swan", "uniform-half"): 201.3965681502355,
    ("swan", "geometric"): 231.98683217742575,
    ("gscale", "uniform"): 768.7689172429655,
    ("gscale", "uniform-half"): 733.4200092909114,
    ("gscale", "geometric"): 768.7689172429655,
}


class TestSourceAggregatedFreePath:
    @pytest.mark.parametrize("name, grid_kind", sorted(PER_FLOW_OBJECTIVES))
    def test_builders_agree(self, name, grid_kind):
        instance = FREE_PATH_INSTANCES[name]()
        grid = GRIDS[grid_kind](suggest_horizon(instance))
        lp_ref, bundle_ref = build_time_indexed_lp_reference(instance, grid)
        lp_vec, bundle_vec = build_time_indexed_lp(instance, grid)
        assert_same_lp(lp_ref, lp_vec)
        np.testing.assert_array_equal(bundle_ref.z, bundle_vec.z)

    @pytest.mark.parametrize("name, grid_kind", sorted(PER_FLOW_OBJECTIVES))
    def test_objective_matches_per_flow_form(self, name, grid_kind):
        instance = FREE_PATH_INSTANCES[name]()
        sources = {ref.flow.source for ref in instance.flow_refs()}
        assert len(sources) < instance.num_flows
        grid = GRIDS[grid_kind](suggest_horizon(instance))
        lp, bundle = build_time_indexed_lp(instance, grid)
        assert bundle.z.shape == (len(sources), grid.num_slots, instance.graph.num_edges)
        result = solve_lp(lp, require_optimal=True)
        assert result.objective == pytest.approx(
            PER_FLOW_OBJECTIVES[name, grid_kind], rel=1e-9
        )

    @pytest.mark.parametrize("name, grid_kind", sorted(PER_FLOW_OBJECTIVES))
    def test_split_schedule_is_feasible(self, name, grid_kind):
        instance = FREE_PATH_INSTANCES[name]()
        grid = GRIDS[grid_kind](suggest_horizon(instance))
        solution = solve_time_indexed_lp(instance, grid=grid)
        assert solution.edge_fractions.shape == (
            instance.num_flows,
            grid.num_slots,
            instance.graph.num_edges,
        )
        report = check_feasibility(solution.to_schedule())
        assert report.is_feasible, report.violations
        assert report.max_conservation_error <= 1e-9

    @pytest.mark.parametrize("name", sorted(FREE_PATH_INSTANCES))
    def test_split_fits_inside_each_commodity(self, name):
        # sum_f d_f y[f, t, e] over the flows of source s <= z[s, t, e].
        instance = FREE_PATH_INSTANCES[name]()
        grid = GRIDS["uniform"](suggest_horizon(instance))
        lp, bundle = build_time_indexed_lp(instance, grid)
        result = solve_lp(lp, require_optimal=True)
        fractions = result.values(bundle.x)
        flow = result.values(bundle.z)
        edge_fractions = timeindexed._split_commodities(instance, fractions, flow)
        demands = instance.demands()
        sources = sorted(
            {ref.flow.source for ref in instance.flow_refs()},
            key=instance.graph.nodes.index,
        )
        for k, source in enumerate(sources):
            flows = [r.global_index for r in instance.flow_refs() if r.flow.source == source]
            used = np.einsum("fte,f->te", edge_fractions[flows], demands[flows])
            supply = demands[flows] @ fractions[flows]  # per slot
            assert np.all(used <= flow[k] + 1e-12 * supply[:, None])
            # Each flow ships exactly its x out of its source.
            out = instance.graph.out_edge_indices(source)
            np.testing.assert_allclose(
                edge_fractions[flows][:, :, out].sum(axis=2),
                fractions[flows],
                rtol=0,
                atol=1e-9,
            )

    @pytest.mark.parametrize("name", sorted(FREE_PATH_INSTANCES))
    def test_split_is_deterministic(self, name):
        instance = FREE_PATH_INSTANCES[name]()
        grid = GRIDS["geometric"](suggest_horizon(instance))
        first = solve_time_indexed_lp(instance, grid=grid).edge_fractions
        second = solve_time_indexed_lp(instance, grid=grid).edge_fractions
        assert first.tobytes() == second.tobytes()

    def test_paths_cancel_cycles_and_drop_circulation(self):
        # Edges 0: a->b, 1: b->c, 2: c->b, 3: b->d.  One unit goes a->b->d,
        # and 1.5 units circulate b->c->b.  The walk meets the cycle first
        # (edge 1 precedes edge 3), cancels it, and drops it.
        heads = [1, 2, 1, 3]
        out_edges = [[0], [1, 3], [2], []]
        flow = [1.0, 1.5, 1.5, 1.0]
        paths = timeindexed._commodity_paths(0, flow, {3: 1.0}, out_edges, heads, 0.0)
        assert paths == [(3, [0, 3], 1.0)]

"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.coflow.instance import TransmissionModel
from repro.network.topologies import gscale_topology, swan_topology
from repro.workloads.generator import (
    WorkloadSpec,
    generate_coflows,
    generate_instance,
    random_instance,
)
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    all_profiles,
    bigbench_profile,
    facebook_profile,
    get_profile,
    tpcds_profile,
    tpch_profile,
)
from repro.workloads.traces import load_trace, save_trace, trace_summary


class TestProfiles:
    def test_four_benchmarks_available(self):
        profiles = all_profiles()
        assert set(profiles) == set(BENCHMARK_NAMES)

    @pytest.mark.parametrize("name", ["BigBench", "tpc-ds", "TPCH", "fb", "Facebook"])
    def test_lookup_by_alias(self, name):
        assert get_profile(name).name in BENCHMARK_NAMES

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("SPEC2006")

    def test_facebook_is_heavier_tailed_than_bigbench(self):
        assert facebook_profile().demand_log_sigma > bigbench_profile().demand_log_sigma

    def test_tpch_has_largest_transfers(self):
        assert tpch_profile().demand_log_mean >= tpcds_profile().demand_log_mean
        assert tpch_profile().demand_log_mean >= bigbench_profile().demand_log_mean

    def test_weight_range_matches_paper(self):
        for profile in all_profiles().values():
            assert profile.weight_range == (1.0, 100.0)

    def test_invalid_profile_parameters_rejected(self):
        from repro.workloads.profiles import WorkloadProfile

        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad", width_range=(0, 3), demand_log_mean=1.0,
                demand_log_sigma=0.5, arrival_rate=1.0,
            )
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad", width_range=(1, 3), demand_log_mean=1.0,
                demand_log_sigma=0.5, arrival_rate=0.0,
            )


class TestGenerateCoflows:
    def test_count_and_widths(self):
        graph = swan_topology()
        spec = WorkloadSpec(profile="FB", num_coflows=15, seed=0)
        coflows = generate_coflows(graph, spec)
        assert len(coflows) == 15
        profile = spec.resolved_profile()
        for coflow in coflows:
            assert profile.width_range[0] <= coflow.num_flows <= profile.width_range[1]

    def test_weights_in_paper_range(self):
        graph = swan_topology()
        coflows = generate_coflows(graph, WorkloadSpec("TPC-H", 20, seed=1))
        for coflow in coflows:
            assert 1.0 <= coflow.weight <= 100.0

    def test_unweighted_spec_gives_unit_weights(self):
        graph = swan_topology()
        coflows = generate_coflows(
            graph, WorkloadSpec("TPC-H", 10, weighted=False, seed=1)
        )
        assert all(c.weight == 1.0 for c in coflows)

    def test_release_times_nondecreasing_poisson(self):
        graph = swan_topology()
        coflows = generate_coflows(graph, WorkloadSpec("FB", 20, seed=2))
        releases = [c.release_time for c in coflows]
        assert releases[0] == 0.0
        assert all(b >= a for a, b in zip(releases, releases[1:]))

    def test_zero_release_spread_collapses_arrivals(self):
        graph = swan_topology()
        coflows = generate_coflows(
            graph, WorkloadSpec("FB", 10, release_spread=0.0, seed=3)
        )
        assert all(c.release_time == 0.0 for c in coflows)

    def test_demand_scale_multiplies_sizes(self):
        graph = swan_topology()
        small = generate_coflows(graph, WorkloadSpec("BigBench", 10, seed=4, demand_scale=1.0))
        large = generate_coflows(graph, WorkloadSpec("BigBench", 10, seed=4, demand_scale=3.0))
        total_small = sum(c.total_demand for c in small)
        total_large = sum(c.total_demand for c in large)
        assert total_large == pytest.approx(3.0 * total_small, rel=1e-9)

    def test_endpoints_are_distinct_graph_nodes(self):
        graph = gscale_topology()
        coflows = generate_coflows(graph, WorkloadSpec("TPC-DS", 10, seed=5))
        for coflow in coflows:
            for flow in coflow:
                assert flow.source != flow.sink
                assert graph.has_node(flow.source)
                assert graph.has_node(flow.sink)

    def test_reproducible_given_seed(self):
        graph = swan_topology()
        a = generate_coflows(graph, WorkloadSpec("FB", 8, seed=9))
        b = generate_coflows(graph, WorkloadSpec("FB", 8, seed=9))
        assert [c.to_dict() for c in a] == [c.to_dict() for c in b]

    def test_invalid_spec_rejected(self):
        graph = swan_topology()
        with pytest.raises(ValueError):
            generate_coflows(graph, WorkloadSpec("FB", 0, seed=0))
        with pytest.raises(ValueError):
            generate_coflows(graph, WorkloadSpec("FB", 5, demand_scale=0.0, seed=0))


class TestGenerateInstance:
    def test_free_path_instance_validates(self):
        instance = generate_instance(
            swan_topology(), WorkloadSpec("FB", 6, seed=0), model="free_path"
        )
        assert instance.model is TransmissionModel.FREE_PATH
        assert instance.num_coflows == 6

    def test_single_path_instance_has_pinned_paths(self):
        instance = generate_instance(
            swan_topology(), WorkloadSpec("FB", 6, seed=0), model="single_path"
        )
        assert instance.model is TransmissionModel.SINGLE_PATH
        for ref in instance.flow_refs():
            assert ref.flow.has_path
            instance.graph.validate_path(ref.flow.path)

    def test_random_instance_models(self):
        for model in ("free_path", "single_path"):
            instance = random_instance(
                swan_topology(), num_coflows=3, model=model, rng=1
            )
            assert instance.num_coflows == 3


class TestTraces:
    def test_instance_round_trip(self, tmp_path):
        instance = generate_instance(
            swan_topology(), WorkloadSpec("TPC-DS", 5, seed=3), model="free_path"
        )
        path = tmp_path / "trace.json"
        save_trace(instance, path)
        loaded = load_trace(path)
        assert loaded.num_coflows == instance.num_coflows
        assert loaded.num_flows == instance.num_flows

    def test_coflow_list_round_trip(self, tmp_path):
        coflows = generate_coflows(swan_topology(), WorkloadSpec("FB", 4, seed=1))
        path = tmp_path / "coflows.json"
        save_trace(coflows, path)
        loaded = load_trace(path)
        assert isinstance(loaded, list)
        assert len(loaded) == 4

    def test_bad_trace_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery", "data": []}')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_non_object_trace_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_trace(path)

    def test_trace_summary(self):
        coflows = generate_coflows(swan_topology(), WorkloadSpec("FB", 4, seed=1))
        summary = trace_summary(coflows)
        assert summary["num_coflows"] == 4
        assert summary["num_flows"] >= 4
        assert summary["total_demand"] > 0
        assert summary["weighted"] is True

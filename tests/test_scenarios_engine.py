"""Tests for the scenario engine: registry, addressing, reproducibility,
the built-in families, and the new topology / trace-replay building blocks.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.coflow.instance import TransmissionModel
from repro.network.topologies import (
    fat_tree_hosts,
    fat_tree_topology,
    named_topology,
    swan_topology,
)
from repro.scenarios import (
    BUILTIN_FAMILIES,
    UnknownFamilyError,
    build_scenario,
    get_family,
    register_family,
    sample_scenarios,
    scenario_families,
)
from repro.scenarios.engine import _REGISTRY
from repro.utils.rng import derive_seed
from repro.workloads.generator import WorkloadSpec, generate_coflows
from repro.workloads.traces import replay_coflows, replay_trace, save_trace


class TestRegistry:
    def test_builtin_families_registered(self):
        names = scenario_families()
        assert set(BUILTIN_FAMILIES) <= set(names)
        assert len(BUILTIN_FAMILIES) >= 5

    def test_unknown_family_lists_alternatives(self):
        with pytest.raises(UnknownFamilyError, match="zipf-sizes"):
            get_family("not-a-family")

    def test_registration_and_override(self):
        @register_family("test-family", description="test only")
        def _build(rng, index):
            return build_scenario("zipf-sizes", 0, 0).instance, {}

        try:
            assert "test-family" in scenario_families()
            assert get_family("test-family").description == "test only"
        finally:
            _REGISTRY.pop("test-family", None)


class TestAddressing:
    def test_scenarios_are_bit_reproducible(self):
        for family in BUILTIN_FAMILIES:
            a = build_scenario(family, 1, 42)
            b = build_scenario(family, 1, 42)
            assert a.seed == b.seed == derive_seed(42, family, 1)
            assert a.instance.to_dict() == b.instance.to_dict()
            assert a.params == b.params

    def test_out_of_order_generation_is_identical(self):
        # Scenario #3 must not depend on scenarios #0..#2 being generated.
        direct = build_scenario("online-poisson", 3, 7)
        after_others = None
        for index in (0, 1, 2, 3):
            after_others = build_scenario("online-poisson", index, 7)
        assert direct.instance.to_dict() == after_others.instance.to_dict()

    def test_different_addresses_differ(self):
        a = build_scenario("zipf-sizes", 0, 0).instance
        b = build_scenario("zipf-sizes", 1, 0).instance
        c = build_scenario("zipf-sizes", 0, 1).instance
        assert a.to_dict() != b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("zipf-sizes", -1, 0)

    def test_describe_block_is_json_ready(self):
        block = build_scenario("oversubscribed", 2, 5).describe()
        assert json.loads(json.dumps(block)) == block
        assert block["family"] == "oversubscribed"
        assert block["num_coflows"] >= 1


class TestSampling:
    def test_round_robin_covers_every_family(self):
        scenarios = sample_scenarios(len(BUILTIN_FAMILIES), 0)
        assert {s.family for s in scenarios} == set(scenario_families())
        # Even this minimal budget must cover both transmission models (the
        # family phase split), or jahanjou/terra would silently lose coverage.
        assert {s.instance.model for s in scenarios} == {
            TransmissionModel.FREE_PATH,
            TransmissionModel.SINGLE_PATH,
        }

    def test_budget_respected_and_models_alternate(self):
        scenarios = sample_scenarios(14, 0)
        assert len(scenarios) == 14
        models = {s.instance.model for s in scenarios}
        assert models == {
            TransmissionModel.FREE_PATH,
            TransmissionModel.SINGLE_PATH,
        }

    def test_family_subset(self):
        scenarios = sample_scenarios(4, 0, families=["zipf-sizes"])
        assert all(s.family == "zipf-sizes" for s in scenarios)
        assert [s.index for s in scenarios] == [0, 1, 2, 3]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_scenarios(0, 0)
        with pytest.raises(UnknownFamilyError):
            sample_scenarios(2, 0, families=["nope"])


class TestFamilyOutputs:
    @pytest.mark.parametrize("family", BUILTIN_FAMILIES)
    def test_instances_are_valid(self, family):
        for index in (0, 1):
            scenario = build_scenario(family, index, 11)
            instance = scenario.instance
            instance.validate()
            assert instance.num_coflows >= 1
            assert np.all(instance.demands() > 0)
            assert np.all(instance.flow_release_times() >= 0)
            for ref in instance.flow_refs():
                assert instance.graph.is_connected(ref.flow.source, ref.flow.sink)
            if instance.model is TransmissionModel.SINGLE_PATH:
                assert all(c.all_paths_pinned() for c in instance.coflows)

    def test_online_poisson_first_arrival_at_zero(self):
        instance = build_scenario("online-poisson", 0, 3).instance
        assert instance.coflow_release_times().min() == 0.0

    def test_bursty_releases_are_clustered(self):
        scenario = build_scenario("bursty-arrivals", 0, 0)
        release = scenario.instance.coflow_release_times()
        assert len(np.unique(release)) <= scenario.params["num_bursts"]

    def test_oversubscribed_flows_cross_racks(self):
        instance = build_scenario("oversubscribed", 0, 9).instance
        for ref in instance.flow_refs():
            src_rack = ref.flow.source.split("h")[0]
            dst_rack = ref.flow.sink.split("h")[0]
            assert src_rack != dst_rack

    def test_link_failure_degrades_capacity(self):
        scenario = build_scenario("link-failure", 0, 2)
        base = swan_topology()
        degraded = scenario.instance.graph
        assert degraded.total_capacity() < base.total_capacity()
        assert scenario.params["degraded_links"], "no link was degraded"


    def test_zipf_sizes_are_capped_multiples_of_the_base_demand(self):
        scenario = build_scenario("zipf-sizes", 0, 6)
        base = scenario.params["base_demand"]
        multiples = scenario.instance.demands() / base
        np.testing.assert_allclose(multiples, np.round(multiples), atol=1e-9)
        assert multiples.min() >= 1 and multiples.max() <= 24
        assert np.all(scenario.instance.flow_release_times() == 0.0)

    def test_trace_replay_lands_on_the_recorded_target(self):
        for index in (0, 1, 2, 3):
            scenario = build_scenario("trace-replay", index, 8)
            instance = scenario.instance
            assert instance.graph.name == scenario.params["target"]
            assert instance.num_coflows == scenario.params["num_coflows"]
            for ref in instance.flow_refs():
                assert instance.graph.has_node(ref.flow.source)
                assert instance.graph.has_node(ref.flow.sink)

    def test_hardness_gadget_has_one_coflow_per_job(self):
        scenario = build_scenario("hardness-gadget", 0, 4)
        params = scenario.params
        assert scenario.instance.num_coflows == params["num_jobs"]
        assert 0.0 < params["openshop_lower"] <= params["openshop_upper"]

    def test_adversarial_arrivals_follow_geometric_boundaries(self):
        scenario = build_scenario("adversarial-arrival", 0, 5)
        params = scenario.params
        release = scenario.instance.coflow_release_times()
        expected = [0.0] + [
            params["base"] ** k + params["epsilon"]
            for k in range(params["num_coflows"] - 1)
        ]
        np.testing.assert_allclose(release, expected)
        sizes = [
            sum(flow.demand for flow in coflow.flows)
            for coflow in scenario.instance.coflows
        ]
        # The heavy coflow at time zero outweighs every light arrival.
        assert sizes[0] > max(sizes[1:])


class TestGoldenAddressing:
    """Cross-process bit-reproducibility of every built-in family.

    The seeds below are ``derive_seed(2019, family, index)`` and the digests
    hash the generated instance; both were computed in a separate process.
    Indices 0 and 1 cover both transmission models of each family.  A
    mismatch means the family builders, their ``MODEL_OFFSET`` phase or the
    seed derivation changed behavior — which silently changes every
    scenario those addresses name.
    """

    GOLDEN_SEEDS = {
        ("online-poisson", 0): 13388067826001027,
        ("online-poisson", 1): 7035970159099248431,
        ("bursty-arrivals", 0): 3384639026203358263,
        ("bursty-arrivals", 1): 5307712248138967040,
        ("zipf-sizes", 0): 2136213796687183836,
        ("zipf-sizes", 1): 766941331719102560,
        ("oversubscribed", 0): 2264250939750924912,
        ("oversubscribed", 1): 2495941729065439253,
        ("link-failure", 0): 9137568647928580945,
        ("link-failure", 1): 6973607506980491394,
        ("trace-replay", 0): 8532099399387263231,
        ("trace-replay", 1): 2002914043910134463,
        ("hardness-gadget", 0): 2246359387827124576,
        ("hardness-gadget", 1): 6586667334368406289,
        ("adversarial-arrival", 0): 7939603848735736205,
        ("adversarial-arrival", 1): 439939889502614047,
    }

    GOLDEN_DIGESTS = {
        ("online-poisson", 0): "4f55225c9f28dfff",
        ("online-poisson", 1): "cf3bfaf76b854da1",
        ("bursty-arrivals", 0): "84a7970fc327c29c",
        ("bursty-arrivals", 1): "c5a5bb39bca9e7a3",
        ("zipf-sizes", 0): "3ffe4c3b02a6c96b",
        ("zipf-sizes", 1): "a0a5b4c0760e54ec",
        ("oversubscribed", 0): "84fe635d71766886",
        ("oversubscribed", 1): "6363f0c5f3c89f73",
        ("link-failure", 0): "1461081d54a27b57",
        ("link-failure", 1): "ad1cef01cba71eca",
        ("trace-replay", 0): "64c4dfbf55389902",
        ("trace-replay", 1): "d00db7275bf336a5",
        ("hardness-gadget", 0): "b0f4434496c5f893",
        ("hardness-gadget", 1): "ddd0418358c3a45d",
        ("adversarial-arrival", 0): "ead0e07b71f1323d",
        ("adversarial-arrival", 1): "4f732f526fe687c0",
    }

    def test_every_builtin_family_is_pinned(self):
        assert {family for family, _ in self.GOLDEN_SEEDS} == set(BUILTIN_FAMILIES)
        assert set(self.GOLDEN_DIGESTS) == set(self.GOLDEN_SEEDS)

    @pytest.mark.parametrize("family, index", sorted(GOLDEN_SEEDS))
    def test_seed_addressing_is_stable(self, family, index):
        assert derive_seed(2019, family, index) == self.GOLDEN_SEEDS[
            (family, index)
        ]

    @pytest.mark.parametrize("family, index", sorted(GOLDEN_DIGESTS))
    def test_instance_digest_is_stable(self, family, index):
        scenario = build_scenario(family, index, 2019)
        assert scenario.seed == self.GOLDEN_SEEDS[(family, index)]
        digest = hashlib.sha256(
            json.dumps(scenario.instance.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]
        assert digest == self.GOLDEN_DIGESTS[(family, index)]


class TestFatTreeTopology:
    def test_oversubscription_scales_uplinks(self):
        balanced = fat_tree_topology(num_tors=2, hosts_per_tor=2, oversubscription=1.0)
        oversub = fat_tree_topology(num_tors=2, hosts_per_tor=2, oversubscription=4.0)
        assert balanced.capacity("tor1", "core1") == pytest.approx(
            4.0 * oversub.capacity("tor1", "core1")
        )

    def test_hosts_enumerated(self):
        graph = fat_tree_topology(num_tors=3, hosts_per_tor=2)
        hosts = fat_tree_hosts(graph)
        assert len(hosts) == 6
        assert all(graph.has_node(h) for h in hosts)

    def test_path_diversity_between_racks(self):
        graph = fat_tree_topology(num_tors=2, hosts_per_tor=1, num_cores=2)
        # Host-to-host max flow can use both cores: twice one uplink.
        uplink = graph.capacity("tor1", "core1")
        assert graph.max_flow_value("t1h1", "t2h1") == pytest.approx(
            min(1.0, 2 * uplink)
        )

    def test_named_topology_aliases(self):
        assert named_topology("fat-tree").num_nodes > 0
        oversub = named_topology("oversubscribed")
        assert "fat-tree" in oversub.name

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fat_tree_topology(num_tors=1)
        with pytest.raises(ValueError):
            fat_tree_topology(oversubscription=0.0)


class TestTraceReplay:
    def _coflows(self):
        spec = WorkloadSpec(profile="FB", num_coflows=3, seed=5)
        return generate_coflows(swan_topology(), spec, rng=5)

    def test_roundtrip_on_same_topology(self, tmp_path):
        coflows = self._coflows()
        path = tmp_path / "trace.json"
        save_trace(list(coflows), path)
        instance = replay_trace(path, swan_topology(), model="free_path", rng=0)
        assert instance.num_coflows == len(coflows)
        # Same topology: endpoints are preserved verbatim.
        original = [(f.source, f.sink) for c in coflows for f in c.flows]
        replayed = [(r.flow.source, r.flow.sink) for r in instance.flow_refs()]
        assert original == replayed

    def test_foreign_endpoints_are_remapped_deterministically(self):
        from repro.network.topologies import gscale_topology

        coflows = self._coflows()
        a = replay_coflows(coflows, gscale_topology(), rng=3)
        b = replay_coflows(coflows, gscale_topology(), rng=3)
        assert a.to_dict() == b.to_dict()
        for ref in a.flow_refs():
            assert a.graph.has_node(ref.flow.source)
            assert a.graph.has_node(ref.flow.sink)
            assert ref.flow.source != ref.flow.sink

    def test_shared_endpoints_stay_shared(self):
        from repro.network.topologies import gscale_topology

        coflows = self._coflows()
        instance = replay_coflows(coflows, gscale_topology(), rng=1)
        mapping = {}
        for original, replayed in zip(
            (f for c in coflows for f in c.flows),
            (r.flow for r in instance.flow_refs()),
        ):
            if original.source in mapping:
                assert mapping[original.source] == replayed.source
            mapping[original.source] = replayed.source

    def test_single_path_replay_pins_paths(self, tmp_path):
        coflows = self._coflows()
        path = tmp_path / "trace.json"
        save_trace(list(coflows), path)
        instance = replay_trace(path, swan_topology(), model="single_path", rng=0)
        assert all(c.all_paths_pinned() for c in instance.coflows)

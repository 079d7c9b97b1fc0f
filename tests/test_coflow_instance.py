"""Tests for CoflowInstance."""

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.topologies import line_topology, paper_example_topology
from repro.workloads.traces import load_instance, save_trace


def simple_instance(model=TransmissionModel.FREE_PATH) -> CoflowInstance:
    graph = line_topology(3, capacity=2.0)  # n0 <-> n1 <-> n2
    coflows = [
        Coflow(
            [Flow("n0", "n2", 4.0, path=("n0", "n1", "n2")), Flow("n1", "n2", 2.0, path=("n1", "n2"))],
            weight=2.0,
            name="A",
        ),
        Coflow(
            [Flow("n2", "n0", 1.0, path=("n2", "n1", "n0"), release_time=2.0)],
            weight=1.0,
            release_time=2.0,
            name="B",
        ),
    ]
    return CoflowInstance(graph, coflows, model=model, name="simple")


class TestTransmissionModel:
    def test_parse_strings(self):
        assert TransmissionModel.parse("free_path") is TransmissionModel.FREE_PATH
        assert TransmissionModel.parse("free-path") is TransmissionModel.FREE_PATH
        assert TransmissionModel.parse("SINGLE_PATH") is TransmissionModel.SINGLE_PATH

    def test_parse_enum_passthrough(self):
        assert (
            TransmissionModel.parse(TransmissionModel.FREE_PATH)
            is TransmissionModel.FREE_PATH
        )

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            TransmissionModel.parse("quantum")


class TestInstanceBasics:
    def test_counts(self):
        inst = simple_instance()
        assert inst.num_coflows == 2
        assert inst.num_flows == 3

    def test_weights_and_release_times(self):
        inst = simple_instance()
        np.testing.assert_allclose(inst.weights, [2.0, 1.0])
        np.testing.assert_allclose(inst.release_times, [0.0, 2.0])

    def test_demands_vector(self):
        inst = simple_instance()
        np.testing.assert_allclose(inst.demands(), [4.0, 2.0, 1.0])

    def test_flow_release_times_inherit_coflow(self):
        inst = simple_instance()
        np.testing.assert_allclose(inst.flow_release_times(), [0.0, 0.0, 2.0])

    def test_coflow_of_flow(self):
        inst = simple_instance()
        np.testing.assert_array_equal(inst.coflow_of_flow(), [0, 0, 1])

    def test_flow_refs_global_indices_are_dense(self):
        inst = simple_instance()
        assert [r.global_index for r in inst.flow_refs()] == [0, 1, 2]

    def test_flows_of_coflow(self):
        inst = simple_instance()
        refs = inst.flows_of(0)
        assert len(refs) == 2
        assert all(r.coflow_index == 0 for r in refs)

    def test_flow_ref_lookup(self):
        inst = simple_instance()
        ref = inst.flow_ref(1, 0)
        assert ref.flow.source == "n2"
        with pytest.raises(KeyError):
            inst.flow_ref(5, 0)

    def test_empty_coflow_list_rejected(self):
        with pytest.raises(ValueError):
            CoflowInstance(line_topology(3), [])

    def test_repr_contains_name(self):
        assert "simple" in repr(simple_instance())


class TestInstanceValidation:
    def test_missing_endpoint_rejected(self):
        graph = line_topology(3)
        coflow = Coflow([Flow("n0", "ghost", 1.0)])
        with pytest.raises(ValueError, match="not a node"):
            CoflowInstance(graph, [coflow], model="free_path")

    def test_single_path_requires_pinned_paths(self):
        graph = line_topology(3)
        coflow = Coflow([Flow("n0", "n2", 1.0)])
        with pytest.raises(ValueError, match="pinned path"):
            CoflowInstance(graph, [coflow], model="single_path")

    def test_single_path_rejects_missing_edge(self):
        graph = line_topology(3)
        coflow = Coflow([Flow("n0", "n2", 1.0, path=("n0", "n2"))])
        with pytest.raises(ValueError, match="missing edge"):
            CoflowInstance(graph, [coflow], model="single_path")

    def test_free_path_requires_connectivity(self):
        graph = paper_example_topology()
        graph.add_node("island")
        coflow = Coflow([Flow("island", "t", 1.0)])
        with pytest.raises(ValueError, match="no directed path"):
            CoflowInstance(graph, [coflow], model="free_path")

    def test_validate_false_skips_checks(self):
        graph = line_topology(3)
        coflow = Coflow([Flow("n0", "n2", 1.0)])
        inst = CoflowInstance(
            graph, [coflow], model="single_path", validate=False
        )
        assert inst.num_flows == 1


class TestInstanceDerived:
    def test_total_demand(self):
        assert simple_instance().total_demand() == pytest.approx(7.0)

    def test_horizon_upper_bound_positive_and_sufficient(self):
        inst = simple_instance()
        horizon = inst.horizon_upper_bound()
        assert horizon >= inst.max_release_time()
        assert horizon >= 4  # at least enough slots for the serial schedule

    def test_trivial_lower_bound_positive(self):
        assert simple_instance().trivial_lower_bound() > 0


class TestInstanceTransformations:
    def test_with_model(self):
        inst = simple_instance(TransmissionModel.SINGLE_PATH)
        free = inst.with_model("free_path")
        assert free.model is TransmissionModel.FREE_PATH
        assert free.num_flows == inst.num_flows

    def test_unweighted(self):
        unweighted = simple_instance().unweighted()
        np.testing.assert_allclose(unweighted.weights, [1.0, 1.0])

    def test_without_release_times(self):
        zeroed = simple_instance().without_release_times()
        np.testing.assert_allclose(zeroed.flow_release_times(), 0.0)
        np.testing.assert_allclose(zeroed.release_times, 0.0)

    def test_subset(self):
        sub = simple_instance().subset([1])
        assert sub.num_coflows == 1
        assert sub.coflows[0].name == "B"

    def test_round_trip_dict(self, tmp_path):
        # save_trace envelopes to_dict(): {"kind": "instance", "data": ...}.
        inst = simple_instance()
        path = tmp_path / "instance.json"
        save_trace(inst, path)
        restored = load_instance(path)
        assert restored.num_coflows == inst.num_coflows
        assert restored.num_flows == inst.num_flows
        assert restored.model is inst.model
        np.testing.assert_allclose(restored.weights, inst.weights)
        assert restored.graph == inst.graph

    def test_json_round_trip(self, tmp_path):
        inst = simple_instance()
        path = tmp_path / "instance.json"
        inst.save_json(path)
        restored = load_instance(path)
        assert restored.num_flows == inst.num_flows
        assert restored.name == inst.name

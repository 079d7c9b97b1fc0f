"""Shared fixtures for the test suite.

Fixtures build small, fast instances: the paper's own Figure 2 example, the
Section 5 hardness gadget, and tiny random workloads on SWAN.  Anything
requiring an LP solve stays small enough that the full suite runs in well
under a minute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.coflow.instance import CoflowInstance, TransmissionModel
from repro.network.topologies import (
    paper_example_topology,
    parallel_edges_topology,
    swan_topology,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator shared by randomized tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def example_graph():
    """The 5-node graph of the paper's Figure 2."""
    return paper_example_topology()


@pytest.fixture
def example_coflows():
    """The four coflows of the paper's Figure 2 (with the Figure 3 paths)."""
    return [
        Coflow([Flow("v1", "t", 1.0, path=("v1", "t"))], name="red"),
        Coflow([Flow("v2", "t", 1.0, path=("v2", "t"))], name="green"),
        Coflow([Flow("v3", "t", 1.0, path=("v3", "t"))], name="orange"),
        Coflow([Flow("s", "t", 3.0, path=("s", "v2", "t"))], name="blue"),
    ]


@pytest.fixture
def example_single_path_instance(example_graph, example_coflows) -> CoflowInstance:
    """The Figure 3 single path instance (optimal objective 7)."""
    return CoflowInstance(
        example_graph,
        example_coflows,
        model=TransmissionModel.SINGLE_PATH,
        name="figure3",
    )


@pytest.fixture
def example_free_path_instance(example_graph, example_coflows) -> CoflowInstance:
    """The Figure 4 free path instance (optimal objective 5)."""
    return CoflowInstance(
        example_graph,
        example_coflows,
        model=TransmissionModel.FREE_PATH,
        name="figure4",
    )


@pytest.fixture
def two_machine_instance() -> CoflowInstance:
    """A tiny concurrent-open-shop-style instance on two disjoint edges."""
    graph = parallel_edges_topology(2)
    coflows = [
        Coflow(
            [
                Flow("x1", "y1", 2.0, path=("x1", "y1")),
                Flow("x2", "y2", 1.0, path=("x2", "y2")),
            ],
            weight=2.0,
            name="job0",
        ),
        Coflow(
            [Flow("x1", "y1", 1.0, path=("x1", "y1"))],
            weight=1.0,
            name="job1",
        ),
        Coflow(
            [Flow("x2", "y2", 3.0, path=("x2", "y2"))],
            weight=1.0,
            name="job2",
        ),
    ]
    return CoflowInstance(
        graph, coflows, model=TransmissionModel.SINGLE_PATH, name="two-machine"
    )


@pytest.fixture
def swan_graph():
    return swan_topology()


@pytest.fixture
def small_swan_free_instance(swan_graph, rng) -> CoflowInstance:
    """A small random free path instance on SWAN (LP solves in < 1 s)."""
    from repro.workloads.generator import random_instance

    return random_instance(
        swan_graph,
        num_coflows=4,
        max_flows_per_coflow=2,
        max_demand=6.0,
        model=TransmissionModel.FREE_PATH,
        rng=rng,
    )


@pytest.fixture
def small_swan_single_instance(swan_graph, rng) -> CoflowInstance:
    """A small random single path instance on SWAN."""
    from repro.workloads.generator import random_instance

    return random_instance(
        swan_graph,
        num_coflows=4,
        max_flows_per_coflow=2,
        max_demand=6.0,
        model=TransmissionModel.SINGLE_PATH,
        rng=rng,
    )


@pytest.fixture
def lp_solves(monkeypatch):
    """Names of the instances whose time-indexed LP
    :func:`repro.core.scheduler.lp_solution_for` solved fresh, in call
    order — the one path by which a shared LP is solved, and so the count
    the "one LP per instance" guarantee is checked against."""
    import repro.core.scheduler as scheduler

    solved = []
    original = scheduler.solve_time_indexed_lp

    def counting(instance, **kwargs):
        solved.append(instance.name)
        return original(instance, **kwargs)

    monkeypatch.setattr(scheduler, "solve_time_indexed_lp", counting)
    return solved


@pytest.fixture
def custom_algorithm():
    """The name of a user-registered (not built-in) algorithm, a stub that
    completes every coflow at t = 1; it is unregistered after the test."""
    from repro.api.registry import _REGISTRY, register_algorithm
    from repro.api.report import SolveReport

    name = "test-custom"

    @register_algorithm(name, description="test stub")
    def _stub(instance, config, lp_solution=None):
        return SolveReport(
            algorithm=name,
            instance=instance,
            objective=float(instance.weights.sum()),
            coflow_completion_times=np.ones(instance.num_coflows),
        )

    yield name
    _REGISTRY.pop(name, None)

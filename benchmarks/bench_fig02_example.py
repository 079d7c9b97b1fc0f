"""Benchmark: the paper's worked example (Figures 2-4).

Regenerates the toy instance whose optimal objectives the paper states
explicitly — 7 for the single path model (Figure 3) and 5 for the free path
model (Figure 4) — and checks that the LP heuristic reproduces both numbers
exactly.
"""

import pytest

from repro import Coflow, CoflowInstance, Flow, paper_example_topology, solve


def build_instances():
    graph = paper_example_topology()
    coflows = [
        Coflow([Flow("v1", "t", 1.0, path=("v1", "t"))], name="red"),
        Coflow([Flow("v2", "t", 1.0, path=("v2", "t"))], name="green"),
        Coflow([Flow("v3", "t", 1.0, path=("v3", "t"))], name="orange"),
        Coflow([Flow("s", "t", 3.0, path=("s", "v2", "t"))], name="blue"),
    ]
    single = CoflowInstance(graph, coflows, model="single_path", name="figure3")
    free = CoflowInstance(graph, coflows, model="free_path", name="figure4")
    return single, free


def solve_both():
    single, free = build_instances()
    sp = solve(single, "lp-heuristic", num_slots=8)
    fp = solve(free, "lp-heuristic", num_slots=8)
    return sp, fp


@pytest.mark.benchmark(group="fig02-example")
def test_fig02_paper_example(benchmark):
    sp, fp = benchmark.pedantic(solve_both, rounds=1, iterations=1)
    print(
        f"\nsingle path: objective {sp.objective:.1f} (paper optimum 7), "
        f"LP bound {sp.lower_bound:.2f}"
    )
    print(
        f"free path:   objective {fp.objective:.1f} (paper optimum 5), "
        f"LP bound {fp.lower_bound:.2f}"
    )
    assert sp.objective == pytest.approx(7.0)
    assert fp.objective == pytest.approx(5.0)
    assert fp.objective < sp.objective

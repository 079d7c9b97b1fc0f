"""Ablation benchmark: online scheduling via geometric batching (Section 7 outlook).

The paper's conclusion points to online coflow scheduling as the next
challenge, citing the offline-to-online batching framework.  This benchmark
compares, on a bursty FB workload with spread-out release times:

* the clairvoyant offline LP heuristic (knows all releases up front),
* the online batching framework driving that same offline algorithm, and
* a non-clairvoyant greedy online baseline (weighted SJF at every event),

and checks the structural expectations: the online algorithms never beat the
offline LP bound by more than slotting noise, and the batching framework
stays within a small constant factor of the offline schedule.
"""

import pytest

from conftest import BENCH_SCALE
from repro.core.heuristic import lp_heuristic_schedule
from repro.core.timeindexed import solve_time_indexed_lp
from repro.network.topologies import swan_topology
from repro.online import (
    GeometricBatchingPolicy,
    greedy_online_schedule,
    run_online_policy,
)
from repro.workloads.generator import WorkloadSpec, generate_instance


def run_comparison():
    graph = swan_topology()
    num_coflows = max(3, int(round(10 * BENCH_SCALE)))
    spec = WorkloadSpec(
        profile="FB",
        num_coflows=num_coflows,
        seed=123,
        demand_scale=1.5,
        release_spread=2.0,  # spread arrivals so batching actually matters
    )
    instance = generate_instance(graph, spec, model="free_path", rng=123)
    lp = solve_time_indexed_lp(instance)
    offline = lp_heuristic_schedule(lp).weighted_completion_time()
    online = run_online_policy(instance, GeometricBatchingPolicy(2.0))
    greedy = greedy_online_schedule(instance)
    return {
        "lp_bound": lp.objective,
        "offline_heuristic": offline,
        "online_batch": online.weighted_completion_time,
        "online_batches": online.num_batches,
        "online_greedy": greedy.weighted_completion_time,
    }


@pytest.mark.benchmark(group="ablation-online")
def test_ablation_online(benchmark):
    row = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    print("\nLP lower bound            : %10.1f" % row["lp_bound"])
    print("offline LP heuristic      : %10.1f" % row["offline_heuristic"])
    print(
        "online batching (LP)      : %10.1f  (%d batches)"
        % (row["online_batch"], row["online_batches"])
    )
    print("online greedy (WSJF)      : %10.1f" % row["online_greedy"])

    # Offline knowledge can only help.
    assert row["online_batch"] >= row["offline_heuristic"] - 1e-6
    # The doubling framework's constant: generous envelope of 4x offline.
    assert row["online_batch"] <= 4.0 * row["offline_heuristic"]
    # The greedy baseline runs in continuous time; it cannot beat half the
    # slotted LP bound and should stay within 3x of the offline heuristic.
    assert row["online_greedy"] >= 0.5 * row["lp_bound"]
    assert row["online_greedy"] <= 3.0 * row["offline_heuristic"]
    # Batching actually formed more than one batch on this spread-out workload.
    assert row["online_batches"] >= 2

#!/usr/bin/env python3
"""Online arrivals: scheduling coflows that are revealed over time.

The paper's conclusion highlights online coflow scheduling as the next
challenge and points to the batching framework that turns an offline
approximation into an online algorithm.  This example simulates a bursty
stream of FB-style coflows arriving on SWAN and compares:

* the clairvoyant offline LP heuristic (knows every arrival in advance),
* the online geometric-batching framework driving that offline algorithm
  (only knows a coflow once it is released),
* its work-conserving variant (dispatches early whenever the net is idle),
* the incremental re-solve policy (re-prioritizes at every arrival from
  remaining work, via warm-started LPs), and
* the non-clairvoyant static weighted-SJF baseline.

The online schedules are the registered ``online-*`` algorithms of
``repro.online``, run through ``solve()`` like any offline algorithm
(``batching_schedule`` of ``repro.online`` takes a different epoch base or
offline algorithm).  Run with::

    python examples/online_arrivals.py [num_coflows]
"""

import sys

from repro import solve, swan_topology
from repro.core import lp_heuristic_schedule, solve_time_indexed_lp
from repro.workloads import WorkloadSpec, generate_instance


def main():
    num_coflows = int(sys.argv[1]) if len(sys.argv) > 1 else 10

    graph = swan_topology()
    spec = WorkloadSpec(
        profile="FB",
        num_coflows=num_coflows,
        weighted=True,
        demand_scale=1.5,
        release_spread=2.0,
        seed=99,
    )
    instance = generate_instance(graph, spec, model="free_path", rng=99)
    print(f"instance: {instance}")
    print(
        f"releases span [0, {instance.max_release_time():.1f}] — the online "
        "algorithms only learn a coflow at its release time\n"
    )

    lp = solve_time_indexed_lp(instance)
    offline = lp_heuristic_schedule(lp).weighted_completion_time()
    online = solve(instance, "online-batch")
    online_wc = solve(instance, "online-batch-wc")
    resolve = solve(instance, "online-resolve")
    wsjf = solve(instance, "online-wsjf")

    rows = [
        ("LP lower bound (offline)", lp.objective),
        ("offline LP heuristic (clairvoyant)", offline),
        (f"online batching ({online.extras['num_batches']} batches)", online.objective),
        (
            f"work-conserving batching ({online_wc.extras['num_batches']} batches)",
            online_wc.objective,
        ),
        ("online re-solve (per-arrival LPs)", resolve.objective),
        ("online static weighted SJF", wsjf.objective),
    ]
    width = max(len(name) for name, _ in rows)
    print(f"{'algorithm'.ljust(width)} | weighted completion time | vs offline heuristic")
    print("-" * (width + 50))
    for name, value in rows:
        ratio = value / offline if offline > 0 else float("inf")
        print(f"{name.ljust(width)} | {value:24.1f} | {ratio:8.2f}x")

    print("\nbatch structure:")
    for batch in online.extras["batches"]:
        members = ", ".join(
            instance.coflows[j].name or f"C{j}" for j in batch["coflow_indices"]
        )
        print(
            f"  epoch {batch['epoch_index']}: starts at t = {batch['start_time']:.1f}, "
            f"makespan {batch['makespan']:.1f}, coflows [{members}]"
        )

    print(
        "\nThe batching framework pays a bounded waiting cost for its "
        "worst-case guarantee, while the greedy scheduler is strong on "
        "lightly loaded streams but has no guarantee — the trade-off the "
        "paper's conclusion leaves open for future work."
    )


if __name__ == "__main__":
    main()

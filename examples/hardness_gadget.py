#!/usr/bin/env python3
"""The Section 5 hardness gadget: coflow scheduling ⊇ concurrent open shop.

The paper proves (Theorem 5.1) that coflow scheduling in networks is NP-hard
to approximate below a factor of 2 by reducing from concurrent open shop:
machine *i* becomes a unit-capacity edge ``x_i -> y_i`` and job *j* becomes a
coflow with one flow per machine it needs.  This example builds the reduction
explicitly, computes the exact open shop optimum by brute force, and shows
that the LP lower bound, the LP heuristic and the Stretch algorithm all land
where the theory says they must:

    LP bound  <=  exact optimum  <=  heuristic / Stretch  <=  2 x optimum (+ slotting)

Run with::

    python examples/hardness_gadget.py
"""

import numpy as np

from repro import solve
from repro.openshop import (
    OpenShopInstance,
    brute_force_optimum,
    list_schedule,
    openshop_to_coflow_instance,
    wspt_order,
)


def main():
    rng = np.random.default_rng(2019)
    shop = OpenShopInstance.random(
        num_machines=3, num_jobs=5, rng=rng, max_processing=4.0, density=0.8
    )
    print("concurrent open shop instance")
    print(f"  machines: {shop.num_machines}, jobs: {shop.num_jobs}")
    print("  processing matrix (machines x jobs):")
    for row in shop.processing:
        print("   ", "  ".join(f"{p:4.1f}" for p in row))
    print("  weights:", "  ".join(f"{w:4.1f}" for w in shop.weights))

    # Exact optimum (permutation schedules are optimal without release times).
    _, optimum = brute_force_optimum(shop)
    _, wspt_value = list_schedule(shop, wspt_order(shop))

    # The Section 5 reduction to coflow scheduling on disjoint unit edges.
    instance = openshop_to_coflow_instance(shop)
    heuristic = solve(instance, "lp-heuristic")
    lower_bound = heuristic.lower_bound
    # Average lambda over 20 draws, reusing the heuristic's LP solution.
    average = solve(
        instance,
        "stretch-average",
        rng=0,
        num_samples=20,
        lp_solution=heuristic.lp_solution,
    )
    stretch = average.extras["evaluation"]

    rows = [
        ("coflow LP lower bound", lower_bound),
        ("exact open shop optimum (brute force)", optimum),
        ("open shop WSPT list schedule", wspt_value),
        ("coflow LP heuristic (lambda = 1)", heuristic.objective),
        ("coflow Stretch (average lambda)", stretch.average_objective),
        ("coflow Stretch (best lambda)", stretch.best_objective),
    ]
    width = max(len(name) for name, _ in rows)
    print(f"\n{'quantity'.ljust(width)} | weighted completion time")
    print("-" * (width + 28))
    for name, value in rows:
        print(f"{name.ljust(width)} | {value:24.2f}")

    assert lower_bound <= optimum + 1e-6
    slack = float(shop.weights.sum())  # one slot of rounding per job
    assert stretch.average_objective <= 2.0 * optimum + slack
    print(
        "\nAll relations hold: the LP bound never exceeds the exact optimum, "
        "and the Stretch algorithm stays within the guaranteed factor of 2 "
        "(plus integral-slot rounding).  The (2 - eps) inapproximability of "
        "concurrent open shop therefore carries over to coflow scheduling, "
        "which is why a 2-approximation is essentially the best possible."
    )


if __name__ == "__main__":
    main()

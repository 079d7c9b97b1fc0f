#!/usr/bin/env python3
"""Regenerate every figure of the paper's evaluation section as a text table.

Runs the experiment configurations of :mod:`repro.experiments.figures`
(Figures 6-12 and the three ablations) at a configurable scale and prints,
for each one, the same series the paper plots, the ratio of every algorithm
to the LP lower bound, and the shape checks of
:func:`repro.experiments.summarize_shape_checks`.  Exits with status 1 when
any shape check fails.

Run with::

    python examples/reproduce_figures.py                # default scale (fast)
    python examples/reproduce_figures.py --scale 2.0    # closer to paper scale
    python examples/reproduce_figures.py --only fig06 fig09
"""

import argparse
import sys
import time

from repro.experiments import (
    ALL_EXPERIMENTS,
    format_result_table,
    run_experiment,
    summarize_shape_checks,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on the number of coflows per workload (1.0 = repo default)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="experiment ids to run (default: all figures and ablations)",
    )
    args = parser.parse_args()

    failed = []
    for experiment_id in args.only or sorted(ALL_EXPERIMENTS):
        config = ALL_EXPERIMENTS[experiment_id]
        start = time.perf_counter()
        result = run_experiment(config, scale=args.scale)
        elapsed = time.perf_counter() - start
        print(format_result_table(result))
        checks = summarize_shape_checks(result)
        if checks:
            print("\nshape checks:", ", ".join(
                f"{name}={'PASS' if ok else 'FAIL'}" for name, ok in checks.items()
            ))
        failed += [f"{experiment_id}:{name}" for name, ok in checks.items() if not ok]
        print(f"(elapsed {elapsed:.1f}s)\n" + "=" * 90 + "\n")

    if failed:
        print("failed shape checks: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare perfbench's end-to-end metrics between two checkouts.

Runs every workload of the base checkout's ``BENCHMARK.json`` once in each
checkout, base first, and prints each end-to-end metric beside its bound.
A metric is flagged (``WORSE``) when the head is worse than the base by
more than that bound, relative to the base value, and a run is flagged when
it is not ``correct`` or fails more units than the base.  A metric the head
improved by more than its bound is marked ``BETTER``, so a claimed gain
shows too; it never changes the exit code.  The bounds come from the base
checkout, so a change cannot loosen the check it is measured by.

One run per side cannot separate a small change from run-to-run spread,
so a flag or a gain asks for alternating pairs of runs, not a verdict.
The script only reads ``perfbench/`` and ``BENCHMARK.json`` of each
checkout.

Usage (exit code 1 when anything is flagged)::

    python3 perfbench_compare.py BASE_DIR HEAD_DIR [--seed 0] [--seconds 30]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> Dict:
    """The result line of one perfbench run in *checkout*."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: perfbench {workload} exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def regression(base: float, head: float, better: str) -> float:
    """How much worse *head* is than *base*, relative to *base* (<= 0: not worse)."""
    worse_by = head - base if better == "lower" else base - head
    return worse_by / abs(base) if base else (float("inf") if worse_by > 0 else 0.0)


def compare(
    base_dir: Path, head_dir: Path, seed: int, seconds: float
) -> Tuple[List[str], List[str]]:
    """Run both checkouts on every workload, print a table, return the
    flags and the gains beyond their bounds."""
    spec = json.loads((base_dir / "BENCHMARK.json").read_text())
    flags: List[str] = []
    gains: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {
            side: run_workload(path, workload, seed, seconds)
            for side, path in (("base", base_dir), ("head", head_dir))
        }
        print(f"== {workload} (seed {seed}, {seconds:g} s)")
        for side, result in results.items():
            print(
                f"   {side}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
        if results["head"]["correct"] is not True:
            flags.append(f"{workload}: head run is not correct")
        if results["head"]["failed"] > results["base"]["failed"]:
            flags.append(
                f"{workload}: head fails {results['head']['failed']} units, "
                f"base {results['base']['failed']}"
            )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = results["base"]["metrics"][name]["value"]
            head = results["head"]["metrics"][name]["value"]
            worse = regression(base, head, metric["better"])
            flagged = worse > metric["bound"]
            gained = -worse > metric["bound"]
            print(
                f"   {name:<14s} base {base:12.4f}  head {head:12.4f}  "
                f"worse by {worse:+8.1%}  bound {metric['bound']:.0%}"
                + ("  WORSE" if flagged else "  BETTER" if gained else "")
            )
            if flagged:
                flags.append(
                    f"{workload}: {name} worse by {worse:.1%} "
                    f"(bound {metric['bound']:.0%}): {base:.4g} -> {head:.4g}"
                )
            if gained:
                gains.append(
                    f"{workload}: {name} better by {-worse:.1%} "
                    f"(bound {metric['bound']:.0%}): {base:.4g} -> {head:.4g}"
                )
    return flags, gains


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    flags, gains = compare(args.base, args.head, args.seed, args.seconds)
    print()
    for gain in gains:
        print(f"BETTER {gain}")
    for flag in flags:
        print(f"FLAG {flag}")
    print(f"{len(flags)} flagged, {len(gains)} better")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())

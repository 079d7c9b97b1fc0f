"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition so that every
repetition begins with cold module caches and per-instance memos, as a
``repro`` CLI run does.  It prints one JSON object on stdout::

    python3 perfbench/rep.py --workload sim --seed 0 --instances FILE \
        --bounds FILE [--trace] [--launched MONOTONIC] [--setup-only]

``--instances`` names a JSON list of ``InstanceSpec`` dicts, the
workload's ``choose(seed)``, and ``--bounds`` the instances'
``[release, standalone]`` lists (:func:`checks.lower_bounds`); ``run.py``
writes both once per run.
``--launched`` is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from there to the first timed call, so it
covers interpreter start, imports, instance generation and store creation.
``--known-failures`` instead runs the units ``paper-sweep`` leaves out and
prints their failure signatures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_specs(path: Path) -> list:
    from repro.experiments.sweep import InstanceSpec

    return [InstanceSpec(**fields) for fields in json.loads(path.read_text())]


def load_bounds(path: Path) -> list:
    return [
        (np.array(release), np.array(standalone))
        for release, standalone in json.loads(path.read_text())
    ]


def run_rep(
    name: str,
    seed: int,
    specs_path: Path,
    bounds_path: Path,
    *,
    traced: bool,
    launched: float,
    setup_only: bool,
) -> dict:
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(load_specs(specs_path), seed)
    tracer = tracing.Tracer()
    try:
        with tracing.instrument(tracer) if traced else nullcontext():
            setup_s = time.monotonic() - launched
            if setup_only:
                return {"setup_s": setup_s}
            start = time.perf_counter()
            units = workload.execute(inputs)
            wall_s = time.perf_counter() - start
        peak_rss_mb = _peak_rss_mb()
        units = workload.settle(units, inputs)
    finally:
        close = getattr(inputs, "close", None)
        if close is not None:
            close()
    wct_ratio, errors = checks.score(
        units, workload.instances(inputs), load_bounds(bounds_path)
    )
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "wct_ratio": wct_ratio,
        "attempted": len(units),
        "failed": sum(unit.failed for unit in units),
        "failures": checks.failure_signatures(units),
        "errors": errors,
    }
    if traced:
        out["layers"] = tracing.layer_metrics(tracer, wall_s)
        covered = tracing.covered_time(tracer.spans)
        if covered > wall_s:
            errors.append(f"layer self times sum to {covered} s > traced wall {wall_s} s")
    return out


def known_failures(seed: int) -> dict:
    """Signatures of the Stretch-family units on ε=0.2 that ``paper-sweep`` omits."""
    inputs = workloads.prepare_sweep(
        workloads.choose_sweep(seed), seed, known_failures=True
    )
    try:
        units = workloads.sweep_failures(inputs)
    finally:
        inputs.close()
    return {
        "attempted": len(units),
        "failed": sum(unit.failed for unit in units),
        "failures": checks.failure_signatures(units),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=Path)
    parser.add_argument("--bounds", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--known-failures", action="store_true")
    args = parser.parse_args(argv)
    if args.known_failures:
        out = known_failures(args.seed)
    else:
        if None in (args.workload, args.instances, args.bounds):
            parser.error("--workload, --instances and --bounds are required")
        launched = time.monotonic() if args.launched is None else args.launched
        out = run_rep(
            args.workload,
            args.seed,
            args.instances,
            args.bounds,
            traced=args.trace,
            launched=launched,
            setup_only=args.setup_only,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

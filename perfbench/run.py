"""Repo benchmark: end-to-end and per-layer metrics of one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lp-single --seed 0 --seconds 30 --trace 0

The run first chooses the workload's instances from ``--seed`` (not timed),
then runs repetitions, each in a fresh ``perfbench/rep.py`` process with
BLAS and OpenMP pinned to one thread.  Repetitions continue while another
one fits in ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
``setup_s``, ``wall_s`` and ``peak_rss_mb``, plus ``wct_ratio`` and
``success_frac``, which must agree across repetitions.  ``--trace 1`` runs
untraced/traced pairs and reports the per-layer metrics of the traced
repetitions, with ``trace.overhead_frac`` = traced ÷ untraced ``wall_s`` − 1;
both sides of a pair must give the same ``wct_ratio`` and failure count.

``--known-failures`` instead runs the Stretch-family units on ε=0.2 that
``paper-sweep`` leaves out, and prints their failure signatures.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; failure signatures, when there
are any, are printed on the line before it.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORK_DIR, WORKLOADS  # noqa: E402

#: Environment added to every repetition process, so it holds before numpy
#: is imported there: BLAS/OpenMP pinned to one thread (two OpenBLAS threads
#: on a 2-core machine made Stretch times bimodal) and a fixed hash seed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Minimum number of ``setup_s`` samples per run; set-up-only processes
#: top up the repetitions when fewer fit in the time budget.  One set-up
#: varies by about 20% either way on a shared 2-core host, so the median
#: needs many.
MIN_SETUP_SAMPLES = 9
#: A run must end within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "wct_ratio": "ratio",
    "success_frac": "frac",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class RepetitionError(RuntimeError):
    """A repetition process crashed, timed out or printed no result."""


def run_child(args: List[str], deadline: float) -> dict:
    """Run ``rep.py`` with *args* in a fresh, pinned process; return its JSON."""
    env = {**os.environ, **PINNED_ENV, "TMPDIR": str(WORK_DIR)}  # temp files stay in the checkout
    launched = time.monotonic()
    timeout = deadline - launched
    if timeout <= 0:
        raise RepetitionError("no time left for another repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), *args, "--launched", repr(launched)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(f"repetition {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RepetitionError(
            f"repetition {args} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RepetitionError(f"repetition {args} printed no result")
    return json.loads(lines[-1])


def _repeat(rep_args: List[List[str]], seconds: float, deadline: float) -> List[List[dict]]:
    """Run rounds of *rep_args* while another round fits in *seconds*."""
    start = time.monotonic()
    rounds: List[List[dict]] = []
    slowest = 0.0
    while True:
        began = time.monotonic()
        round_ = []
        for args in rep_args:
            out = run_child(args, deadline)
            round_.append(out)
            print(
                f"  {' '.join(args)}: setup {out['setup_s']:.3f} s, "
                f"wall {out['wall_s']:.3f} s, rss {out['peak_rss_mb']:.0f} MB",
                file=sys.stderr,
            )
        rounds.append(round_)
        slowest = max(slowest, time.monotonic() - began)
        now = time.monotonic()
        if now - start + slowest > seconds or now + slowest > deadline:
            return rounds


def _setup_samples(reps: List[dict], base: List[str], deadline: float) -> List[float]:
    samples = [rep["setup_s"] for rep in reps]
    while len(samples) < MIN_SETUP_SAMPLES:
        samples.append(run_child(base + ["--setup-only"], deadline)["setup_s"])
    return samples


def _agree(reps: List[dict], errors: List[str]) -> None:
    """Quality and failure counts must repeat exactly across repetitions."""
    for rep in reps:
        errors.extend(rep["errors"])
    first = reps[0]
    for rep in reps[1:]:
        for key in ("wct_ratio", "attempted", "failed"):
            if rep[key] != first[key]:
                errors.append(f"{key} differs across repetitions: {first[key]} vs {rep[key]}")


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    chosen = WORKLOADS[workload].choose(seed)
    specs = WORK_DIR / f"{workload}-{seed}.json"
    specs.write_text(json.dumps([spec.to_dict() for spec in chosen]))
    bounds = WORK_DIR / f"{workload}-{seed}-bounds.json"
    bounds.write_text(
        json.dumps(
            [
                [release.tolist(), standalone.tolist()]
                for release, standalone in checks.lower_bounds(
                    [spec.build() for spec in chosen]
                )
            ]
        )
    )
    base = [
        "--workload", workload, "--seed", str(seed),
        "--instances", str(specs), "--bounds", str(bounds),
    ]
    errors: List[str] = []
    if traced:
        rounds = _repeat([base, base + ["--trace"]], seconds, deadline)
        plain = [r[0] for r in rounds]
        tracd = [r[1] for r in rounds]
        _agree(plain + tracd, errors)
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in tracd)
        values = {
            name: statistics.median(r["layers"][name] for r in tracd)
            for name in tracd[0]["layers"]
        }
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in values.items()
        }
        reps = tracd
    else:
        reps = [r[0] for r in _repeat([base], seconds, deadline)]
        _agree(reps, errors)
        first = reps[0]
        values = {
            "setup_s": statistics.median(_setup_samples(reps, base, deadline)),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "wct_ratio": first["wct_ratio"],
            "success_frac": 1.0 - first["failed"] / first["attempted"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
        "failures": reps[0]["failures"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.known_failures:
            out = run_child(
                ["--known-failures", "--seed", str(args.seed)],
                time.monotonic() + HARD_LIMIT_S,
            )
            print(json.dumps(out["failures"], indent=1))
            print(json.dumps({k: out[k] for k in ("attempted", "failed")}))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepetitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    failures = result.pop("failures")
    if failures:
        print(json.dumps({"failure_signatures": failures}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

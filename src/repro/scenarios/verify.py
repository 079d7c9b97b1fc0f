"""The differential-verification harness behind ``repro verify``.

:func:`run_verification` samples scenarios from the engine, runs **every
registered algorithm** that supports each scenario's transmission model
(through :mod:`repro.api`, sharing one time-indexed LP per scenario exactly
like the batch runner), then cross-checks the invariant suite of
:mod:`repro.scenarios.invariants` — vectorized LP ≡ reference builder,
incremental simulator ≡ full re-allocation, schedule feasibility, LP
lower-bound respect, baseline-ordering rules and report consistency.

The result is a machine-readable report (mirroring the spirit of
:class:`~repro.api.report.SolveReport`: one queryable object per unit of
work) that :func:`write_verification_report` stores as
``VERIFY_<YYYYmmdd-HHMMSS>.json`` — the artifact the nightly CI job uploads.
An algorithm that *raises* is recorded as a violation of kind ``crash``, so
a verification run can never silently lose coverage.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import SolverConfig, available_algorithms, get_algorithm, solve
from repro.core.scheduler import lp_solution_for
from repro.utils.io import atomic_write_json
from repro.utils.retry import SOLVER_FAILURES, Backoff, retry_call
from repro.utils.timing import file_stamp, report_stamp

from repro.scenarios import families as _families  # noqa: F401 - registers built-ins
from repro.scenarios.engine import Scenario, sample_scenarios, scenario_families
from repro.scenarios.invariants import (
    ScenarioRun,
    check_invariants,
    get_invariant,
    invariant_names,
)

SCHEMA_VERSION = 1

#: λ draws for the stretch sampling algorithms during verification: enough
#: to exercise the multi-draw paths, small enough for a budget-50 nightly.
VERIFY_NUM_SAMPLES = 3

# What counts as an algorithm/LP *crash* during scenario execution: the
# canonical SOLVER_FAILURES tuple now lives in repro.utils.retry (shared
# with the sweep's failure discipline) and is re-exported above because
# this module was its original home.

#: Retry policy for scenario execution: transient solver failures get two
#: deterministic re-attempts before being recorded as crashes.  Zero base
#: delay — verification failures are almost never time-dependent, so the
#: value of the policy is the re-attempt, not the wait.
VERIFY_BACKOFF = Backoff(retries=2, base=0.0, jitter=0.0)


def _scenario_algorithms(
    scenario: Scenario, algorithms: Optional[Sequence[str]]
) -> List[str]:
    """The algorithms :func:`execute_scenario` runs on *scenario*.

    Explicit lists are validated eagerly but filtered by model: asking for
    terra on a batch that contains single-path scenarios should skip, not
    crash, those scenarios.
    """
    model = scenario.instance.model
    if algorithms is None:
        return list(available_algorithms(model=model))
    return [name for name in algorithms if get_algorithm(name).supports(model)]


def _scenario_config(
    scenario: Scenario, config: Optional[SolverConfig]
) -> SolverConfig:
    """*config* with the per-scenario rng and the λ-sample cap overlaid."""
    base = config if config is not None else SolverConfig()
    return base.replace(
        rng=scenario.seed if base.rng is None else base.rng,
        num_samples=min(base.num_samples, VERIFY_NUM_SAMPLES),
    )


def execute_scenario(
    scenario: Scenario,
    *,
    config: Optional[SolverConfig] = None,
    algorithms: Optional[Sequence[str]] = None,
) -> ScenarioRun:
    """Solve one scenario with every applicable algorithm (no invariants yet).

    Solves the shared time-indexed LP once, hands it to every algorithm
    (exactly like the batch runner), and records crashes per algorithm
    instead of raising — the resulting :class:`ScenarioRun` is what the
    invariant suite cross-checks.  Exposed separately from
    :func:`verify_scenario` so tests can corrupt a real run before checking
    that invariants catch the corruption.
    """
    instance = scenario.instance
    names = _scenario_algorithms(scenario, algorithms)
    cfg = _scenario_config(scenario, config)

    run = ScenarioRun(scenario=scenario, config=cfg, lp_solution=None)
    address = (scenario.family, str(scenario.index), str(scenario.root_seed))
    try:
        run.lp_solution = retry_call(
            lambda attempt: lp_solution_for(instance, **cfg.lp_kwargs()),
            backoff=VERIFY_BACKOFF,
            path=("verify-shared-lp", *address),
        )
    except SOLVER_FAILURES as exc:
        run.errors["shared-lp"] = f"{type(exc).__name__}: {exc}"
    for name in names:
        try:
            run.reports[name] = retry_call(
                lambda attempt, name=name: solve(
                    instance, name, config=cfg, lp_solution=run.lp_solution
                ),
                backoff=VERIFY_BACKOFF,
                path=("verify-solve", name, *address),
            )
        except SOLVER_FAILURES as exc:
            run.errors[name] = f"{type(exc).__name__}: {exc}"
    return run


def verify_scenario(
    scenario: Scenario,
    *,
    config: Optional[SolverConfig] = None,
    algorithms: Optional[Sequence[str]] = None,
    invariants: Optional[Sequence[str]] = None,
) -> Dict:
    """Run all applicable algorithms on one scenario and check the invariants.

    Returns the scenario's JSON-ready report block: provenance, per-algorithm
    outcomes, per-invariant violation lists and the flat ``violations`` list
    the harness aggregates.
    """
    started = time.perf_counter()
    run = execute_scenario(scenario, config=config, algorithms=algorithms)
    invariant_results = check_invariants(run, invariants=invariants)
    seconds = time.perf_counter() - started

    violations: List[Dict] = []
    for name, message in run.errors.items():
        violations.append({"kind": "crash", "source": name, "message": message})
    for name, messages in invariant_results.items():
        for message in messages:
            violations.append(
                {"kind": "invariant", "source": name, "message": message}
            )

    algorithms_block = {
        name: {
            "objective": float(report.objective),
            "lower_bound": (
                None if report.lower_bound is None else float(report.lower_bound)
            ),
            "gap": None if not np.isfinite(report.gap) else float(report.gap),
            "solve_seconds": float(report.solve_seconds),
            "has_schedule": report.schedule is not None,
            "feasible": bool(report.is_feasible),
        }
        for name, report in run.reports.items()
    }
    return {
        "scenario": scenario.describe(),
        "algorithms": algorithms_block,
        "invariants": {
            name: {"ok": not messages, "violations": messages}
            for name, messages in invariant_results.items()
        },
        "violations": violations,
        "seconds": seconds,
    }


def run_verification(
    budget: int,
    seed: int,
    *,
    families: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    invariants: Optional[Sequence[str]] = None,
    config: Optional[SolverConfig] = None,
) -> Dict:
    """Sample *budget* scenarios and differentially verify every algorithm.

    Parameters
    ----------
    budget:
        Number of scenarios to generate (round-robin across families).
    seed:
        Root seed; every scenario derives its own stream from it (see
        :mod:`repro.scenarios.engine`), so reports are reproducible
        bit-for-bit from ``(budget, seed, families)``.
    families:
        Family names to sample (default: every registered family).
    algorithms:
        Algorithm names to run (default: every registered algorithm that
        supports the scenario's transmission model).
    invariants:
        Invariant names to check (default: all).
    config:
        Base solver configuration (the per-scenario rng and a verification
        λ-sample cap are overlaid onto it).
    """
    # Typos and empty selections fail fast, before any scenario is
    # generated or solved.
    if algorithms is not None and not list(algorithms):
        raise ValueError("algorithms must name at least one registered algorithm")
    for name in algorithms or ():
        get_algorithm(name)
    for name in invariants or ():
        get_invariant(name)
    scenarios = sample_scenarios(budget, seed, families=families)
    scenario_blocks = [
        verify_scenario(
            scenario,
            config=config,
            algorithms=algorithms,
            invariants=invariants,
        )
        for scenario in scenarios
    ]
    total_violations = sum(len(b["violations"]) for b in scenario_blocks)
    families_covered = sorted({b["scenario"]["family"] for b in scenario_blocks})
    algorithms_run = sorted(
        {name for b in scenario_blocks for name in b["algorithms"]}
    )
    # Per-scenario model filtering is expected (terra skips single-path
    # scenarios), but an explicitly requested algorithm that ran on *no*
    # scenario at all means the run verified nothing about it — that must
    # fail, not silently pass.
    uncovered = (
        sorted(set(algorithms) - set(algorithms_run))
        if algorithms is not None
        else []
    )
    return {
        "schema": SCHEMA_VERSION,
        "created": report_stamp(),
        "budget": budget,
        "seed": seed,
        "families": list(families) if families else list(scenario_families()),
        "invariants": (
            list(invariants) if invariants is not None else list(invariant_names())
        ),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scenarios": scenario_blocks,
        "summary": {
            "scenarios": len(scenario_blocks),
            "families_covered": families_covered,
            "algorithms_run": algorithms_run,
            "uncovered_algorithms": uncovered,
            "violations": total_violations,
            "crashes": sum(
                1
                for b in scenario_blocks
                for v in b["violations"]
                if v["kind"] == "crash"
            ),
            "ok": total_violations == 0 and not uncovered,
            "seconds": sum(b["seconds"] for b in scenario_blocks),
        },
    }


def write_verification_report(report: Dict, output: str | Path = ".") -> Path:
    """Write *report* as JSON; *output* may be a directory or a file path."""
    path = Path(output)
    if path.suffix != ".json":
        path.mkdir(parents=True, exist_ok=True)
        path = path / f"VERIFY_{file_stamp()}.json"
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_json(path, report)


def format_verification_report(report: Dict) -> str:
    """Human-readable summary of a verification report (CLI output)."""
    lines: List[str] = []
    summary = report["summary"]
    lines.append(
        f"verified {summary['scenarios']} scenarios "
        f"(seed {report['seed']}, families: "
        f"{', '.join(summary['families_covered'])})"
    )
    lines.append(
        f"{'scenario':<26s} {'model':<12s} {'coflows':>7s} {'algos':>5s} "
        f"{'violations':>10s} {'sec':>6s}"
    )
    for block in report["scenarios"]:
        meta = block["scenario"]
        label = f"{meta['family']}#{meta['index']}"
        lines.append(
            f"{label:<26s} {meta['model']:<12s} {meta['num_coflows']:>7d} "
            f"{len(block['algorithms']):>5d} {len(block['violations']):>10d} "
            f"{block['seconds']:>6.2f}"
        )
        for violation in block["violations"]:
            lines.append(
                f"    [{violation['kind']}/{violation['source']}] "
                f"{violation['message']}"
            )
    lines.append(
        f"algorithms covered: {', '.join(summary['algorithms_run'])}"
    )
    uncovered = summary.get("uncovered_algorithms") or []
    if uncovered:
        lines.append(
            "WARNING: requested algorithms never ran on any sampled "
            f"scenario: {', '.join(uncovered)} (model mismatch with every "
            "scenario — widen the budget or the family selection)"
        )
    if summary["ok"]:
        verdict = "OK"
    elif summary["violations"]:
        verdict = "VIOLATIONS FOUND"
    else:
        verdict = "INCOMPLETE COVERAGE"
    lines.append(
        f"total violations: {summary['violations']} "
        f"({summary['crashes']} crashes) -> {verdict}"
    )
    return "\n".join(lines)

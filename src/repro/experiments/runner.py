"""Experiment runner: from an :class:`ExperimentConfig` to result tables.

The runner generates one workload instance per (experiment, benchmark) pair
with a seed derived from the experiment seed, solves the time-indexed LP
once (through :func:`repro.core.scheduler.lp_solution_for`, like every
other shared-LP caller), and evaluates every requested algorithm series on
top of it.
Single-algorithm series dispatch through the unified :mod:`repro.api`
registry (reusing the shared LP solution wherever it applies); the
λ-sampling series keep bespoke handling because "Best λ" and "Average λ"
share one evaluation, exactly as the paper's implementation does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.api import SolverConfig, solve
from repro.coflow.instance import CoflowInstance
from repro.core.heuristic import lp_heuristic_schedule
from repro.core.scheduler import lp_solution_for
from repro.core.stretch import evaluate_stretch
from repro.core.timeindexed import CoflowLPSolution, solve_time_indexed_lp
from repro.experiments import figures as F
from repro.experiments.figures import ExperimentConfig
from repro.network.topologies import named_topology
from repro.utils.rng import as_generator
from repro.utils.timing import Stopwatch
from repro.workloads.generator import WorkloadSpec, generate_instance


@dataclass
class ExperimentResult:
    """Result of one experiment run.

    ``values`` maps ``workload -> series -> objective`` (weighted or total
    completion time, per the configuration).  For the ε-sweep experiment the
    "workload" keys are ``"eps=<value>"`` strings, matching the x-axis of
    the paper's Figure 8.
    """

    config: ExperimentConfig
    values: Dict[str, Dict[str, float]] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def experiment_id(self) -> str:
        return self.config.experiment_id

    def series_values(self, series: str) -> Dict[str, float]:
        """The named series across all workloads / sweep points."""
        return {
            workload: entries[series]
            for workload, entries in self.values.items()
            if series in entries
        }

    def ratio_to(self, series: str, reference: str) -> Dict[str, float]:
        """Per-workload ratio of one series to another (e.g. vs the LP bound)."""
        ratios = {}
        for workload, entries in self.values.items():
            if series in entries and reference in entries and entries[reference] > 0:
                ratios[workload] = entries[series] / entries[reference]
        return ratios


#: The configuration of every single-algorithm series; its LP is the shared
#: one each workload solves up front.
_SERIES_CONFIG = SolverConfig(verify=False)


def _objective(config: ExperimentConfig, weighted_value: float, total_value: float) -> float:
    return weighted_value if config.weighted else total_value


def _instance_for(
    config: ExperimentConfig, workload: str, scale: float, seed: int
) -> CoflowInstance:
    graph = named_topology(config.topology)
    num_coflows = max(2, int(round(config.num_coflows * scale)))
    spec = WorkloadSpec(
        profile=workload,
        num_coflows=num_coflows,
        weighted=config.weighted,
        demand_scale=config.demand_scale,
        seed=seed,
        name=f"{config.experiment_id}-{workload}",
    )
    return generate_instance(graph, spec, model=config.model, rng=seed)


def _evaluate_series(
    config: ExperimentConfig,
    instance: CoflowInstance,
    lp_solution: CoflowLPSolution,
    rng: np.random.Generator,
    watch: Stopwatch,
) -> Dict[str, float]:
    """Compute every requested series for one workload instance."""
    out: Dict[str, float] = {}
    series = set(config.series)

    if F.SERIES_LP_BOUND in series:
        out[F.SERIES_LP_BOUND] = (
            lp_solution.objective
            if config.weighted
            else float(lp_solution.completion_times.sum())
        )
    # Single-algorithm series all dispatch through the unified solver API;
    # the shared LP solution is reused wherever it applies.
    for series_name, algorithm in F.SERIES_TO_ALGORITHM.items():
        if series_name not in series:
            continue
        with watch.measure(series_name):
            report = solve(
                instance,
                algorithm,
                config=_SERIES_CONFIG,
                lp_solution=lp_solution,
            )
        out[series_name] = _objective(
            config, report.weighted_completion_time, report.total_completion_time
        )
    needs_sampling = series & {F.SERIES_BEST_LAMBDA, F.SERIES_AVERAGE_LAMBDA}
    if needs_sampling:
        with watch.measure("stretch_sampling"):
            evaluation = evaluate_stretch(
                lp_solution, num_samples=config.num_lambda_samples, rng=rng
            )
        if config.weighted:
            objectives = evaluation.objectives
        else:
            objectives = np.array(
                [r.schedule.total_completion_time() for r in evaluation.results]
            )
        if F.SERIES_BEST_LAMBDA in series:
            out[F.SERIES_BEST_LAMBDA] = float(objectives.min())
        if F.SERIES_AVERAGE_LAMBDA in series:
            out[F.SERIES_AVERAGE_LAMBDA] = float(objectives.mean())
    if F.SERIES_STRETCH_NO_COMPACTION in series:
        with watch.measure("stretch_no_compaction"):
            evaluation = evaluate_stretch(
                lp_solution,
                num_samples=config.num_lambda_samples,
                rng=rng,
                compact=False,
            )
        objectives = (
            evaluation.objectives
            if config.weighted
            else np.array(
                [r.schedule.total_completion_time() for r in evaluation.results]
            )
        )
        out[F.SERIES_STRETCH_NO_COMPACTION] = float(objectives.mean())
    needs_interval = series & {
        F.SERIES_INTERVAL_LP_BOUND,
        F.SERIES_INTERVAL_HEURISTIC,
    }
    if needs_interval and not config.epsilon_values:
        with watch.measure("interval_lp"):
            interval_solution = solve_time_indexed_lp(
                instance, epsilon=config.epsilon
            )
        if F.SERIES_INTERVAL_LP_BOUND in series:
            out[F.SERIES_INTERVAL_LP_BOUND] = (
                interval_solution.objective
                if config.weighted
                else float(interval_solution.completion_times.sum())
            )
        if F.SERIES_INTERVAL_HEURISTIC in series:
            schedule = lp_heuristic_schedule(interval_solution)
            out[F.SERIES_INTERVAL_HEURISTIC] = _objective(
                config,
                schedule.weighted_completion_time(),
                schedule.total_completion_time(),
            )
    return out


def run_experiment(
    config: ExperimentConfig,
    *,
    scale: float = 1.0,
    rng_seed: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment configuration and collect all series.

    Parameters
    ----------
    config:
        The experiment to run (see
        :data:`repro.experiments.figures.ALL_EXPERIMENTS`).
    scale:
        Multiplier on the number of coflows per workload; ``1.0`` is the
        repository default, larger values approach the paper's original
        scale at the cost of much longer LP solves.
    rng_seed:
        Seed for the λ-sampling randomness (defaults to the config seed).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    watch = Stopwatch()
    result = ExperimentResult(config=config)
    rng = as_generator(config.seed if rng_seed is None else rng_seed)
    start = time.perf_counter()
    if config.epsilon_values:
        # ε sweep (Fig. 8): one workload, one column per ε value.
        workload = config.workloads[0]
        instance = _instance_for(config, workload, scale, config.seed)
        for eps in config.epsilon_values:
            with watch.measure(f"lp[eps={eps:g}]"):
                solution = solve_time_indexed_lp(instance, epsilon=eps)
            entries: Dict[str, float] = {}
            if F.SERIES_INTERVAL_LP_BOUND in config.series:
                entries[F.SERIES_INTERVAL_LP_BOUND] = (
                    solution.objective
                    if config.weighted
                    else float(solution.completion_times.sum())
                )
            if F.SERIES_INTERVAL_HEURISTIC in config.series:
                schedule = lp_heuristic_schedule(solution)
                entries[F.SERIES_INTERVAL_HEURISTIC] = _objective(
                    config,
                    schedule.weighted_completion_time(),
                    schedule.total_completion_time(),
                )
            entries["lp_variables"] = float(
                solution.lp_result.metadata.get("variables", 0)
            )
            entries["lp_solve_seconds"] = float(solution.lp_result.solve_seconds)
            result.values[f"eps={eps:g}"] = entries
    else:
        for i, workload in enumerate(config.workloads):
            seed = config.seed + 1000 * i
            instance = _instance_for(config, workload, scale, seed)
            with watch.measure(f"lp[{workload}]"):
                lp_solution = lp_solution_for(
                    instance, **_SERIES_CONFIG.lp_kwargs()
                )
            result.values[workload] = _evaluate_series(
                config, instance, lp_solution, rng, watch
            )
            result.metadata[workload] = {
                "num_coflows": instance.num_coflows,
                "num_flows": instance.num_flows,
                "lp_size": lp_solution.lp_result.metadata.get("lp_size"),
            }

    result.timings = watch.as_dict()
    result.timings["total"] = time.perf_counter() - start
    return result

"""Experiment harness: regenerate every figure of the paper's evaluation.

* :mod:`repro.experiments.figures` — one :class:`ExperimentConfig` per paper
  figure (Figs. 6–12) plus three ablations (the 2-approximation, idle-slot
  compaction, greedy baselines).
* :mod:`repro.experiments.runner` — runs a configuration and collects the
  per-workload series values (LP bound, heuristic, best λ, average λ,
  Terra, Jahanjou et al., ...).
* :mod:`repro.experiments.reporting` — renders results as aligned text
  tables of the same rows/series the paper plots, and checks the paper's
  qualitative findings on them (:func:`summarize_shape_checks`).
* :mod:`repro.experiments.sweep` — resumable sweeps over the persistent
  result store (:mod:`repro.store`), one shared-LP group at a time, behind
  ``repro sweep``.
"""

from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    ExperimentConfig,
    get_experiment,
    list_experiments,
)
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.reporting import format_result_table, summarize_shape_checks
from repro.experiments.sweep import (
    InstanceSpec,
    SweepResult,
    SweepSpec,
    run_sweep,
    sweep_status,
)

__all__ = [
    "InstanceSpec",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "sweep_status",
    "ExperimentConfig",
    "ALL_EXPERIMENTS",
    "get_experiment",
    "list_experiments",
    "ExperimentResult",
    "run_experiment",
    "format_result_table",
    "summarize_shape_checks",
]

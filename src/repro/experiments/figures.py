"""Experiment configurations, one per figure of the paper's evaluation.

Each :class:`ExperimentConfig` records the topology, transmission model,
workloads, algorithm series and sizing knobs needed to regenerate one paper
figure (or one ablation).  Sizes are scaled down relative to the paper's
200-job traces so that every LP solves in seconds with scipy/HiGHS — see
"Paper figures" in the README — and can be scaled back up through the
``scale`` argument of :func:`repro.experiments.runner.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.coflow.instance import TransmissionModel
from repro.workloads.profiles import BENCHMARK_NAMES

#: Algorithm series understood by the runner.
SERIES_LP_BOUND = "lp_bound"
SERIES_HEURISTIC = "heuristic"
SERIES_BEST_LAMBDA = "best_lambda"
SERIES_AVERAGE_LAMBDA = "average_lambda"
SERIES_INTERVAL_LP_BOUND = "interval_lp_bound"
SERIES_INTERVAL_HEURISTIC = "interval_heuristic"
SERIES_JAHANJOU = "jahanjou"
SERIES_TERRA = "terra"
SERIES_FIFO = "fifo"
SERIES_WSJF = "weighted_sjf"
SERIES_STRETCH_NO_COMPACTION = "stretch_no_compaction"
SERIES_SINCRONIA = "sincronia"

#: Series computed by dispatching one registered algorithm through
#: :func:`repro.api.solve` (the λ-sampling and interval-LP series have
#: bespoke handling in the runner because several series share one
#: evaluation / LP solve).
SERIES_TO_ALGORITHM: Dict[str, str] = {
    SERIES_HEURISTIC: "lp-heuristic",
    SERIES_TERRA: "terra",
    SERIES_JAHANJOU: "jahanjou",
    SERIES_FIFO: "fifo",
    SERIES_WSJF: "weighted-sjf",
    SERIES_SINCRONIA: "sincronia",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to regenerate one figure / table.

    Attributes
    ----------
    experiment_id:
        Identifier matching the paper artefact (e.g. ``"fig06"``).
    title:
        Human-readable description (used as the table caption).
    topology:
        ``"swan"`` or ``"gscale"`` (or any name accepted by
        :func:`repro.network.topologies.named_topology`).
    model:
        Transmission model of the experiment.
    workloads:
        Benchmark names to run (columns of the figure).
    series:
        Algorithm series to compute (bars of the figure).
    weighted:
        Whether coflows carry U[1, 100] weights (Figs. 6–10) or unit weights
        (Figs. 11–12).
    num_coflows, demand_scale:
        Workload sizing (scaled-down stand-ins for the paper's 200 jobs).
    epsilon_values:
        Only for the ε-sweep experiment (Fig. 8).
    epsilon:
        Geometric-grid parameter used by interval-LP series (Figs. 9–10 use
        ε = 0.2 for the interval LP and 0.5436 inside the Jahanjou baseline).
    num_lambda_samples:
        Number of λ draws for the "Best λ" / "Average λ" series.
    seed:
        Workload generation seed (per-workload seeds are derived from it).
    """

    experiment_id: str
    title: str
    topology: str
    model: TransmissionModel
    workloads: Tuple[str, ...] = BENCHMARK_NAMES
    series: Tuple[str, ...] = (SERIES_LP_BOUND, SERIES_HEURISTIC)
    weighted: bool = True
    num_coflows: int = 12
    demand_scale: float = 1.5
    epsilon_values: Tuple[float, ...] = ()
    epsilon: float = 0.2
    num_lambda_samples: int = 10
    seed: int = 2019
    notes: str = ""

    @property
    def objective_name(self) -> str:
        """Label of the metric the figure reports."""
        return (
            "Weighted Completion Time" if self.weighted else "Total Completion Time"
        )


def _freepath_weighted(experiment_id: str, topology: str, title: str, num_coflows: int) -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id=experiment_id,
        title=title,
        topology=topology,
        model=TransmissionModel.FREE_PATH,
        series=(
            SERIES_LP_BOUND,
            SERIES_HEURISTIC,
            SERIES_BEST_LAMBDA,
            SERIES_AVERAGE_LAMBDA,
        ),
        weighted=True,
        num_coflows=num_coflows,
        notes="LP lower bound vs heuristic (λ=1) vs best/average λ of Stretch.",
    )


def _singlepath_weighted(experiment_id: str, topology: str, title: str, num_coflows: int) -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id=experiment_id,
        title=title,
        topology=topology,
        model=TransmissionModel.SINGLE_PATH,
        series=(
            SERIES_LP_BOUND,
            SERIES_HEURISTIC,
            SERIES_INTERVAL_LP_BOUND,
            SERIES_INTERVAL_HEURISTIC,
            SERIES_JAHANJOU,
        ),
        weighted=True,
        num_coflows=num_coflows,
        epsilon=0.2,
        notes="Time-indexed vs interval-indexed LP (ε=0.2) and the Jahanjou "
        "et al. baseline (ε=0.5436 inside the rounding).",
    )


def _freepath_unweighted(experiment_id: str, topology: str, title: str, num_coflows: int) -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id=experiment_id,
        title=title,
        topology=topology,
        model=TransmissionModel.FREE_PATH,
        series=(
            SERIES_LP_BOUND,
            SERIES_HEURISTIC,
            SERIES_BEST_LAMBDA,
            SERIES_AVERAGE_LAMBDA,
            SERIES_TERRA,
        ),
        weighted=False,
        num_coflows=num_coflows,
        notes="Unweighted comparison against Terra's offline SRTF algorithm.",
    )


def _build_experiments() -> Dict[str, ExperimentConfig]:
    experiments: Dict[str, ExperimentConfig] = {}

    experiments["fig06"] = _freepath_weighted(
        "fig06", "swan", "Free path model on SWAN (weighted)", num_coflows=12
    )
    experiments["fig07"] = _freepath_weighted(
        "fig07", "gscale", "Free path model on G-Scale (weighted)", num_coflows=10
    )
    experiments["fig08"] = ExperimentConfig(
        experiment_id="fig08",
        title="Impact of the time-interval parameter ε (free path, SWAN, FB)",
        topology="swan",
        model=TransmissionModel.FREE_PATH,
        workloads=("FB",),
        series=(SERIES_INTERVAL_LP_BOUND, SERIES_INTERVAL_HEURISTIC),
        weighted=True,
        num_coflows=12,
        epsilon_values=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        notes="Larger ε shrinks the LP but degrades both the bound and the "
        "heuristic (paper Figure 8).",
    )
    experiments["fig09"] = _singlepath_weighted(
        "fig09", "swan", "Single path model on SWAN (weighted)", num_coflows=12
    )
    experiments["fig10"] = _singlepath_weighted(
        "fig10", "gscale", "Single path model on G-Scale (weighted)", num_coflows=10
    )
    experiments["fig11"] = _freepath_unweighted(
        "fig11", "swan", "Free path model on SWAN (unweighted, vs Terra)", num_coflows=12
    )
    experiments["fig12"] = _freepath_unweighted(
        "fig12", "gscale", "Free path model on G-Scale (unweighted, vs Terra)", num_coflows=10
    )

    # ----------------------------- ablations --------------------------- #
    experiments["ablation_approximation"] = ExperimentConfig(
        experiment_id="ablation_approximation",
        title="Empirical check of the 2-approximation (Theorem 4.4)",
        topology="swan",
        model=TransmissionModel.FREE_PATH,
        workloads=BENCHMARK_NAMES,
        series=(
            SERIES_LP_BOUND,
            SERIES_AVERAGE_LAMBDA,
            SERIES_BEST_LAMBDA,
            SERIES_HEURISTIC,
        ),
        weighted=True,
        num_coflows=8,
        num_lambda_samples=20,
        notes="Average-λ objective must stay below 2x the LP bound.",
    )
    experiments["ablation_compaction"] = ExperimentConfig(
        experiment_id="ablation_compaction",
        title="Effect of idle-slot compaction on Stretch (Section 6.1)",
        topology="swan",
        model=TransmissionModel.FREE_PATH,
        workloads=("TPC-DS", "FB"),
        series=(
            SERIES_LP_BOUND,
            SERIES_AVERAGE_LAMBDA,
            SERIES_STRETCH_NO_COMPACTION,
        ),
        weighted=True,
        num_coflows=10,
        num_lambda_samples=10,
        notes="Average-λ Stretch with and without moving slots into idle "
        "slots.",
    )
    experiments["ablation_baselines"] = ExperimentConfig(
        experiment_id="ablation_baselines",
        title="LP-based scheduling vs simple greedy heuristics",
        topology="swan",
        model=TransmissionModel.FREE_PATH,
        workloads=("BigBench", "FB"),
        series=(
            SERIES_LP_BOUND,
            SERIES_HEURISTIC,
            SERIES_SINCRONIA,
            SERIES_FIFO,
            SERIES_WSJF,
        ),
        weighted=True,
        num_coflows=10,
        notes="Extra baselines (Sincronia-style BSSI ordering, FIFO, weighted "
        "SJF) not present in the paper.",
    )
    return experiments


#: All experiment configurations keyed by experiment id.
ALL_EXPERIMENTS: Dict[str, ExperimentConfig] = _build_experiments()


def get_experiment(experiment_id: str) -> ExperimentConfig:
    """Look up an experiment configuration by id (e.g. ``"fig06"``)."""
    try:
        return ALL_EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: "
            f"{sorted(ALL_EXPERIMENTS)}"
        ) from exc


def list_experiments() -> Tuple[str, ...]:
    """All known experiment ids in a stable order."""
    return tuple(sorted(ALL_EXPERIMENTS))

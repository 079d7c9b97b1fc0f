"""repro — reproduction of "Near Optimal Coflow Scheduling in Networks" (SPAA 2019).

Public API overview
-------------------
Data model
    :class:`~repro.coflow.flow.Flow`, :class:`~repro.coflow.coflow.Coflow`,
    :class:`~repro.coflow.instance.CoflowInstance`,
    :class:`~repro.coflow.instance.TransmissionModel`,
    :class:`~repro.network.graph.NetworkGraph`.
Topologies
    :func:`~repro.network.topologies.swan_topology`,
    :func:`~repro.network.topologies.gscale_topology`, and helpers.
Core algorithms (the paper's contribution)
    :func:`~repro.core.timeindexed.solve_time_indexed_lp` (Section 3 /
    Appendix A), :func:`~repro.core.stretch.run_stretch` (Section 4.1),
    :func:`~repro.core.heuristic.lp_heuristic_schedule` (Section 6.2).
Unified solver API
    :func:`~repro.api.solve` / :func:`~repro.api.solve_many` dispatch any
    registered algorithm (core or baseline) and return one common
    :class:`~repro.api.report.SolveReport`; extend via
    :func:`~repro.api.register_algorithm` — see :mod:`repro.api`.
Baselines
    Terra (free path), Jahanjou et al. (single path), greedy heuristics —
    see :mod:`repro.baselines` (all also reachable through ``repro.api``).
Workloads and experiments
    :mod:`repro.workloads` generates the BigBench / TPC-DS / TPC-H / FB
    style traces; :mod:`repro.experiments` regenerates the paper's figures.
"""

from repro.coflow import Coflow, CoflowInstance, Flow, TransmissionModel
from repro.network import (
    NetworkGraph,
    gscale_topology,
    paper_example_topology,
    pin_random_shortest_paths,
    swan_topology,
)
from repro.schedule import (
    Schedule,
    TimeGrid,
    check_feasibility,
    compact_schedule,
    weighted_completion_time,
)
from repro.core import (
    CoflowLPSolution,
    evaluate_stretch,
    lp_heuristic_schedule,
    run_stretch,
    solve_time_indexed_lp,
    suggest_horizon,
)
from repro import api
from repro.api import (
    SolveReport,
    SolverConfig,
    available_algorithms,
    register_algorithm,
    solve,
    solve_many,
)

__version__ = "1.0.0"

__all__ = [
    "Flow",
    "Coflow",
    "CoflowInstance",
    "TransmissionModel",
    "NetworkGraph",
    "swan_topology",
    "gscale_topology",
    "paper_example_topology",
    "pin_random_shortest_paths",
    "Schedule",
    "TimeGrid",
    "check_feasibility",
    "compact_schedule",
    "weighted_completion_time",
    "CoflowLPSolution",
    "solve_time_indexed_lp",
    "suggest_horizon",
    "run_stretch",
    "evaluate_stretch",
    "lp_heuristic_schedule",
    "api",
    "SolveReport",
    "SolverConfig",
    "available_algorithms",
    "register_algorithm",
    "solve",
    "solve_many",
    "__version__",
]

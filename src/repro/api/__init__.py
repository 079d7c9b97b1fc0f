"""repro.api — the unified solver API.

One extensible entry point for every algorithm in the repository, core and
baseline alike::

    from repro import api

    report = api.solve(instance, algorithm="stretch-best", rng=0)
    print(report.objective, report.lower_bound, report.gap)

    reports = api.solve_many(instances, ["lp-heuristic", "terra", "fifo"],
                             parallel=4)

Components
----------
* :mod:`~repro.api.registry` — pluggable algorithm registry
  (:func:`register_algorithm`, :func:`available_algorithms`, capability
  flags such as ``supported_models``).
* :mod:`~repro.api.request` — the :class:`SolverConfig` input object
  gathering grid/ε/rng/solver-method/sampling knobs in one place.
* :mod:`~repro.api.report` — the common :class:`SolveReport` result type.
* :mod:`~repro.api.batch` — :func:`solve` and the parallel batch runner
  :func:`solve_many` with shared-LP reuse across algorithms.

The registry entries call :mod:`repro.core` and :mod:`repro.baselines`
directly; the per-baseline ``*_schedule`` functions remain available for
callers that want the raw :class:`~repro.baselines.result.BaselineResult`.
"""

from repro.api import algorithms as _algorithms  # noqa: F401 - registers built-ins
from repro.api.batch import solve, solve_many

# Registers the online policies (online-batch, online-batch-wc,
# online-resolve, online-wsjf).  Imported after the batch runner so
# repro.online can use repro.api submodules freely; worker processes run
# this __init__ too, so the online entries exist in every child.
from repro.online import policies as _online_policies  # noqa: E402,F401
from repro.api.registry import (
    ALL_MODELS,
    AlgorithmInfo,
    UnknownAlgorithmError,
    algorithm_table,
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.api.report import SolveReport
from repro.api.request import SolverConfig

__all__ = [
    "ALL_MODELS",
    "AlgorithmInfo",
    "SolveReport",
    "SolverConfig",
    "UnknownAlgorithmError",
    "algorithm_table",
    "available_algorithms",
    "get_algorithm",
    "register_algorithm",
    "solve",
    "solve_many",
]

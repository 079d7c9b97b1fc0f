"""The shared-LP reuse decision: may this LP solution answer this request?

The paper's four offline algorithms (the LP heuristic, Stretch, Best λ and
Average λ) are all roundings of one time-indexed LP solution per instance,
so every caller that runs several of them — the batch runner, the sweep,
``repro verify``, the experiment runner and the registry entries
themselves — solves that LP once and hands it around.
:func:`lp_solution_for` is the one place that decides whether a handed-in
solution may be reused for a request, by comparing the request recorded on
the solution (:func:`repro.core.timeindexed.lp_request`) with the one
asked for.
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.coflow.instance import CoflowInstance
from repro.core.timeindexed import (
    CoflowLPSolution,
    lp_request,
    resolve_grid,
    solve_time_indexed_lp,
)
from repro.schedule.timegrid import TimeGrid

logger = logging.getLogger(__name__)


def lp_solution_for(
    instance: CoflowInstance,
    *,
    shared: Optional[CoflowLPSolution] = None,
    grid: Optional[TimeGrid] = None,
    num_slots: Optional[int] = None,
    slot_length: float = 1.0,
    epsilon: Optional[float] = None,
    solver_method: str = "highs",
) -> CoflowLPSolution:
    """The time-indexed LP solution of *instance* for one request.

    The keyword arguments are those of
    :func:`~repro.core.timeindexed.solve_time_indexed_lp`, usually
    ``**config.lp_kwargs()``.  *shared* is returned as is when it answers
    the same request — same requested grid and solver method; otherwise the
    LP is solved (and the skipped reuse logged at debug level).

    Raises
    ------
    ValueError
        If *shared* was computed for a different instance.
    """
    if shared is not None:
        if shared.instance is not instance:
            raise ValueError("lp_solution was computed for a different instance")
        grid = resolve_grid(
            instance,
            grid=grid,
            num_slots=num_slots,
            slot_length=slot_length,
            epsilon=epsilon,
        )
        request = lp_request(grid, solver_method=solver_method)
        if shared.metadata.get("request") == request:
            return shared
        logger.debug(
            "shared LP reuse skipped for instance %r: request %r does not "
            "match the shared solution's %r; solving fresh",
            instance.name,
            request,
            shared.metadata.get("request"),
        )
    return solve_time_indexed_lp(
        instance,
        grid=grid,
        num_slots=num_slots,
        slot_length=slot_length,
        epsilon=epsilon,
        solver_method=solver_method,
    )

"""Online coflow scheduling via geometric batching (the doubling framework).

The classical reduction from offline to online minimisation of weighted
completion time (Hall et al.; applied to coflows by Khuller et al., LATIN
2018 — reference [17] of the paper) works as follows:

* Time is divided into geometrically growing epochs ``[B^(k-1), B^k)``
  (``B = 2`` gives the classic doubling framework).
* When an epoch ends, all coflows released during it are handed to an
  *offline* scheduler as one batch, with release times reset to the batch
  start.
* A batch begins transmitting only when (a) its epoch has ended and (b) the
  previous batch has completely drained; batches therefore never overlap and
  every batch schedule remains feasible on its own.

If the offline scheduler is a ``rho``-approximation, the online algorithm is
``O(rho)``-competitive.  With the LP heuristic (λ = 1) or the Stretch
algorithm of :mod:`repro.core` as the offline scheduler, the online
scheduler inherits the paper's guarantees up to the batching constant; any
other registered algorithm yields an online variant of that algorithm
without the guarantee.

:func:`batching_schedule` runs the framework as an explicit event loop —
coflow **arrivals**, epoch **closes** and batch **drains** — that reveals a
coflow only at its release time, and records *first-service evidence* (the
earliest time each coflow was allowed to transmit), which the
``online-release-respect`` invariant of :mod:`repro.scenarios` checks
against release times.  This targets the *completion time* objective, as
the paper notes that online *flow time* is a much harder open problem.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

# Submodule imports (not the repro.api package): this module is pulled in
# while repro.api.__init__ is still initializing (it imports
# repro.online.policies to register the online algorithms).
from repro.api.batch import solve
from repro.api.registry import get_algorithm
from repro.api.report import SolveReport
from repro.api.request import SolverConfig
from repro.coflow.instance import CoflowInstance
from repro.schedule.timegrid import relative_tol
from repro.utils.validation import check_positive

#: Event ordering at equal timestamps: arrivals are observed first (a
#: boundary-exact arrival belongs to the epoch *starting* at the boundary,
#: never the one closing), then epochs close, then drains dispatch waiting
#: batches.
_ARRIVAL, _CLOSE, _DRAIN = 0, 1, 2


def _boundary_tol(magnitude: float) -> float:
    """Relative epoch-boundary tolerance — the shared ``TimeGrid`` discipline."""
    return relative_tol(magnitude, 1e-12)


def _epoch_index(release_time: float, base: float) -> int:
    """Index of the geometric epoch ``[base^(k-1), base^k)`` containing *release_time*.

    Epoch 0 is ``[0, 1)`` so that jobs released at time zero are scheduled
    after one unit of waiting at most.

    Computed from ``log(release)/log(base)`` but corrected with a relative
    boundary tolerance: the log ratio of a release *exactly at* ``base**k``
    can round just below the integer (e.g. ``log(1000)/log(10) =
    2.9999999999999996``), which would land the coflow in the epoch
    *ending* at its release instead of the one starting there.
    """
    if release_time < 0.5:  # comfortably inside epoch 0 (log(0) is -inf)
        return 0
    k = int(np.floor(np.log(release_time) / np.log(base)))
    tol = _boundary_tol(release_time)
    # Release at (or within tolerance of) the upper boundary base**(k+1):
    # the log ratio rounded below the integer — it belongs to the epoch
    # starting there.
    while base ** (k + 1) <= release_time + tol:
        k += 1
    # Symmetric guard: the ratio rounded up past the integer (release just
    # below base**k reported as epoch k + 1).
    while base**k > release_time + tol:
        k -= 1
    # Sub-1 releases collapse into epoch 0 regardless of how negative the
    # log ratio was (epoch 0 covers all of [0, 1)).
    return max(k + 1, 0)


def _service_evidence(first_service: np.ndarray) -> List[Optional[float]]:
    """JSON-safe first-service list (``None`` = the coflow was never served)."""
    return [None if np.isnan(t) else float(t) for t in first_service]


def batching_schedule(
    instance: CoflowInstance,
    config: Optional[SolverConfig] = None,
    *,
    base: float = 2.0,
    offline_algorithm: str = "lp-heuristic",
    early_start: bool = False,
) -> SolveReport:
    """Geometric (doubling for ``base=2``) batching over an offline solver.

    Parameters
    ----------
    instance:
        The instance; its coflow release times are the arrivals, taken in
        release order with ties broken by coflow index.
    config:
        Solver configuration forwarded to the offline per-batch solves
        (``slot_length``, ``epsilon``, ``rng``, ``solver_method``,
        ``num_samples``, ``verify``).  Grid overrides (``grid`` /
        ``num_slots``) are *not* forwarded: batch sub-instances need their
        own automatically suggested horizons.
    base:
        Epoch growth factor (> 1); epoch ``k >= 1`` covers
        ``[base^(k-1), base^k)`` and epoch 0 covers ``[0, 1)``.
    offline_algorithm:
        Any registered algorithm supporting the instance's model; each batch
        is solved by it through :func:`repro.api.batch.solve` with release
        times reset to the batch start.
    early_start:
        Work-conserving variant: whenever the network is idle, everything
        already arrived is dispatched immediately instead of waiting for
        its epoch boundary (a heuristic: the constant-factor proof does not
        cover it).

    Returns
    -------
    SolveReport
        Completion times on the instance's own time axis, so the objective
        is directly comparable with offline schedules.  ``extras`` holds
        the policy parameters, ``num_epochs``, ``events``,
        ``first_service_times``, ``num_batches`` and, when any batch was
        dispatched, ``batches`` (one plain-JSON record per batch).
    """
    check_positive(base - 1.0, "base - 1")
    base = float(base)
    get_algorithm(offline_algorithm).check_supports(instance.model)
    cfg = config if config is not None else SolverConfig()
    offline_config = cfg.replace(grid=None, num_slots=None)
    name = f"online-batch[{offline_algorithm}]" + ("+wc" if early_start else "")

    release = instance.coflow_release_times()
    num = instance.num_coflows
    completion = np.zeros(num, dtype=float)
    first_service = np.full(num, np.nan)
    batches: List[Dict[str, object]] = []
    busy_until = 0.0
    num_events = 0
    # pending[epoch] = members arrived but not yet dispatched;
    # waiting = closed epochs queued behind the running batch (FIFO).
    pending: Dict[int, List[int]] = {}
    waiting: List[int] = []
    closing: set = set()

    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for j in np.lexsort((np.arange(num), release)):
        heapq.heappush(heap, (float(release[j]), _ARRIVAL, seq, int(j)))
        seq += 1

    def dispatch(members: List[int], start: float, epoch: int, epoch_end: float):
        nonlocal busy_until, seq
        coflows = []
        for j in members:
            coflow = instance.coflows[j]
            flows = [f.with_release_time(0.0) for f in coflow.flows]
            coflows.append(coflow.with_flows(flows).with_release_time(0.0))
        batch_instance = CoflowInstance(
            instance.graph,
            coflows,
            model=instance.model,
            name=f"{instance.name}-epoch{epoch}",
        )
        report = solve(batch_instance, offline_algorithm, config=offline_config)
        batch_times = report.coflow_completion_times
        for local_j, j in enumerate(members):
            completion[j] = start + float(batch_times[local_j])
            first_service[j] = start
        makespan = float(batch_times.max(initial=0.0))
        batches.append(
            {
                "epoch_index": int(epoch),
                "epoch_end": float(epoch_end),
                "start_time": float(start),
                "makespan": makespan,
                "coflow_indices": [int(j) for j in members],
                "offline_objective": float(report.objective),
                # None when the offline algorithm solves no LP.
                "lp_lower_bound": (
                    None if report.lower_bound is None else float(report.lower_bound)
                ),
            }
        )
        busy_until = start + makespan
        heapq.heappush(heap, (busy_until, _DRAIN, seq, -1))
        seq += 1

    while heap:
        # One *instant* at a time: every event within boundary tolerance
        # of the earliest pending timestamp is handled before any
        # work-conserving early dispatch, so a burst of simultaneous
        # arrivals is never split into singleton batches.  Within an
        # instant the heap yields arrivals, then closes, then drains.
        now = heap[0][0]
        tol = _boundary_tol(now)
        while heap and heap[0][0] <= now + tol:
            time, kind, _, payload = heapq.heappop(heap)
            num_events += 1
            idle = busy_until <= time + tol and not waiting
            if kind == _ARRIVAL:
                j = payload
                epoch = _epoch_index(float(release[j]), base)
                pending.setdefault(epoch, []).append(j)
                if epoch not in closing:
                    closing.add(epoch)
                    heapq.heappush(heap, (float(base**epoch), _CLOSE, seq, epoch))
                    seq += 1
            elif kind == _CLOSE:
                epoch = payload
                if not pending.get(epoch):
                    pending.pop(epoch, None)
                elif idle:
                    members = pending.pop(epoch)
                    dispatch(members, time, epoch, epoch_end=time)
                else:
                    waiting.append(epoch)
            else:  # _DRAIN
                if busy_until > time + tol:
                    continue  # superseded by a later dispatch
                while waiting and not pending.get(waiting[0]):
                    waiting.pop(0)  # emptied by an early-start dispatch
                if waiting:
                    epoch = waiting.pop(0)
                    members = pending.pop(epoch)
                    dispatch(members, time, epoch, epoch_end=float(base**epoch))
        if early_start and busy_until <= now + tol and not waiting and pending:
            # Work-conserving early start: batch everything arrived so far.
            # The batch closes at dispatch time rather than at its epoch
            # boundary; epoch_end records the actual close.
            members = [j for epoch in sorted(pending) for j in pending[epoch]]
            epoch = min(pending)
            pending.clear()
            dispatch(members, now, epoch, epoch_end=now)

    extras: Dict[str, object] = {
        "policy": name,
        "offline_algorithm": offline_algorithm,
        "base": base,
        "early_start": bool(early_start),
        "num_epochs": len({b["epoch_index"] for b in batches}),
        "events": num_events,
        "first_service_times": _service_evidence(first_service),
        "num_batches": len(batches),
    }
    if batches:
        extras["batches"] = batches
    return SolveReport(
        algorithm=name,
        instance=instance,
        objective=float(np.dot(instance.weights, completion)),
        coflow_completion_times=completion,
        extras=extras,
    )

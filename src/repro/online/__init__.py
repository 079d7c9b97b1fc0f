"""Online coflow scheduling (the paper's Section 7 outlook).

The paper's conclusion points to online scheduling as the next challenge and
cites Khuller et al. (LATIN 2018), whose framework turns any offline
approximation for weighted completion time into an online algorithm by
batching jobs over geometrically growing intervals.  This package implements
that framework — and two event-driven alternatives — on top of the offline
algorithms of :mod:`repro.core`:

* :mod:`~repro.online.stream` — :class:`ArrivalStream`: instances, scenario
  addresses and saved traces viewed as time-ordered arrival sequences;
* :mod:`~repro.online.engine` — :class:`OnlineEngine`: the event loop
  (arrivals, epoch closes, batch drains) that runs a policy over a stream
  and records first-service evidence for the verification invariants;
* :mod:`~repro.online.policies` — the policies behind one interface:
  generalized geometric batching (configurable base, optional
  work-conserving early start), the incremental re-solve policy
  (per-arrival re-prioritization via warm-started remaining-time LPs) and
  the non-clairvoyant WSJF baseline.  All four registry entries
  (``online-batch``, ``online-batch-wc``, ``online-resolve``,
  ``online-wsjf``) carry the ``online=True`` capability flag and flow
  through ``solve()``, ``repro sweep`` and ``repro verify``;
* :mod:`~repro.online.batch` — what the policies share: the result types
  and the epoch arithmetic.
"""

from repro.online.batch import BatchRecord, OnlineScheduleResult
from repro.online.engine import OnlineEngine
from repro.online.policies import (
    ONLINE_ALGORITHMS,
    GeometricBatchingPolicy,
    IncrementalResolvePolicy,
    OnlinePolicy,
    WSJFPolicy,
    run_online_policy,
)
from repro.online.stream import Arrival, ArrivalStream

__all__ = [
    "Arrival",
    "ArrivalStream",
    "BatchRecord",
    "GeometricBatchingPolicy",
    "IncrementalResolvePolicy",
    "ONLINE_ALGORITHMS",
    "OnlineEngine",
    "OnlinePolicy",
    "OnlineScheduleResult",
    "WSJFPolicy",
    "run_online_policy",
]

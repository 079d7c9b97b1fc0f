"""Online coflow scheduling (the paper's Section 7 outlook).

The paper's conclusion points to online scheduling as the next challenge and
cites Khuller et al. (LATIN 2018), whose framework turns any offline
approximation for weighted completion time into an online algorithm by
batching jobs over geometrically growing intervals.  This package implements
that framework — and two event-driven alternatives — on top of the offline
algorithms of :mod:`repro.core`.  Every algorithm reads an instance's
coflow release times as its arrivals and reveals a coflow only at its
release:

* :mod:`~repro.online.engine` — :func:`batching_schedule`: generalized
  geometric batching (configurable base and delegated offline algorithm,
  optional work-conserving early start) as an arrival/close/drain event
  loop that records first-service evidence for the verification
  invariants;
* :mod:`~repro.online.policies` — the registry entries ``online-batch``,
  ``online-batch-wc``, ``online-resolve`` and ``online-wsjf`` (all with the
  ``online=True`` capability flag, so they flow through ``solve()``,
  ``repro sweep`` and ``repro verify``), and :func:`resolve_priority`, the
  incremental re-solve priority (per-arrival re-prioritization via
  warm-started remaining-time LPs) run on the incremental simulator.
"""

from repro.online.engine import batching_schedule
from repro.online.policies import resolve_priority

__all__ = ["batching_schedule", "resolve_priority"]

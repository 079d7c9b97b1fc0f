"""Continuous-time, flow-level network simulator.

The paper's baselines (Terra's offline SRTF algorithm, and simple greedy
heuristics) do not work with a slotted LP schedule: they repeatedly allocate
*rates* to flows and advance continuous time to the next completion or
release event.  This package provides that substrate:

* :mod:`repro.sim.rate_allocation` — per-coflow fastest-completion rates on
  a residual network (``RateAllocator.coflow_allocation``: per-path
  bottleneck sharing for the single path model, a max-concurrent-flow LP
  for the free path model) and the standalone completion times built on
  them;
* :mod:`repro.sim.simulator` — the event loop: release events, completion
  events, a priority-ordered re-allocation at every event, and the
  resulting completion times.  A priority function is called as
  ``(time, remaining, instance)``.
"""

from repro.sim.rate_allocation import coflow_standalone_time
from repro.sim.simulator import (
    SimulationResult,
    TimelineEntry,
    simulate_priority_schedule,
)

__all__ = [
    "coflow_standalone_time",
    "SimulationResult",
    "TimelineEntry",
    "simulate_priority_schedule",
]

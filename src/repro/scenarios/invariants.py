"""Cross-checked invariants of the differential-verification harness.

Every invariant is a function ``(run: ScenarioRun) -> list[str]`` returning
human-readable violation messages (empty = the invariant holds).  They are
*differential*: each one checks an optimized implementation against an
independent oracle that is kept in the codebase for exactly this purpose —

====================      =====================================================
``lp-matrix``             vectorized LP assembly ≡ the loop-based reference
                          builder (:mod:`repro.core.timeindexed_reference`)
``incremental-sim``       incremental simulator ≡ full per-event re-allocation,
                          event-for-event
``schedule-feasibility``  every produced slot schedule passes
                          :func:`repro.schedule.feasibility.check_feasibility`
``lp-lower-bound``        slot-aligned objectives respect the LP lower bound
``baseline-ordering``     baseline priority orders match their paper-stated
                          rules (FIFO by release, Terra SRTF by standalone
                          time, weighted-SJF by standalone/weight, Sincronia
                          BSSI a permutation)
``report-consistency``    SolveReport internals agree with each other and with
                          the instance (finite times, release-time respect,
                          objective == w·C where that must hold)
``online-release-respect``  online policies never serve a coflow before its
                          release: the engine's first-service evidence and
                          every batch start are checked against releases
``online-lower-bound``    online objectives respect the *clairvoyant*
                          per-coflow LP bound ``C_j >= r_j + standalone_j``
                          (recomputed independently per coflow)
``horizon-certificate``   a default uniform LP solved on a certified grid
                          prefix has the optimum of the whole requested grid
====================      =====================================================

The checked implementations are referenced through module-level names so
tests can inject bugs by monkeypatching (e.g. replace
``build_time_indexed_lp`` with a wrapper that perturbs one coefficient) and
prove each violation type is actually catchable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.api.registry import get_algorithm
from repro.api.report import SolveReport
from repro.api.request import SolverConfig
from repro.baselines.greedy import sebf_priority_fn
from repro.baselines.terra import srtf_priority_fn, standalone_completion_times
from repro.coflow.instance import TransmissionModel
from repro.core.timeindexed import (
    CoflowLPSolution,
    build_time_indexed_lp,
    lp_request,
    resolve_grid,
    solve_time_indexed_lp,
)
from repro.core.timeindexed_reference import build_time_indexed_lp_reference
from repro.schedule.feasibility import check_feasibility
from repro.schedule.timegrid import TimeGrid, relative_tol
from repro.sim.simulator import fifo_priority, simulate_priority_schedule

from repro.scenarios.engine import Scenario

#: Tolerance for completion-time equality between simulator modes.  The
#:  allocation memo makes both modes hit identical LP vertices, so this is a
#:  float-roundoff tolerance, not a modelling one.
SIM_EQUALITY_TOL = 1e-9

#: Relative slack for the LP lower bound (HiGHS solves to ~1e-9 accuracy).
LOWER_BOUND_RTOL = 1e-6


@dataclass
class ScenarioRun:
    """Everything one scenario produced: the inputs invariants cross-check.

    ``errors`` maps algorithm names to the exception text of solves that
    crashed; a crash is itself reported as a violation by the harness, and
    invariants simply skip those algorithms.
    """

    scenario: Scenario
    config: SolverConfig
    lp_solution: Optional[CoflowLPSolution]
    reports: Dict[str, SolveReport] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    _standalone: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def instance(self):
        return self.scenario.instance

    def standalone_times(self) -> np.ndarray:
        """Independently recomputed per-coflow standalone completion times.

        Several invariants need this oracle (the simulator-equivalence
        priority and the baseline-ordering cross-check); each coflow costs
        one max-concurrent-flow LP solve, so the array is computed once per
        run and shared.  It is computed on a fresh copy of the instance:
        standalone times are memoized per instance object, and the
        baselines that recorded theirs ran on this one, so asking it would
        read back their memo instead of recomputing.
        """
        if self._standalone is None:
            fresh = self.instance.with_coflows(self.instance.coflows)
            self._standalone = standalone_completion_times(fresh)
        return self._standalone


InvariantFn = Callable[[ScenarioRun], List[str]]


@dataclass(frozen=True)
class InvariantInfo:
    name: str
    check: InvariantFn
    description: str = ""


_REGISTRY: Dict[str, InvariantInfo] = {}


def register_invariant(
    name: str, *, description: str = ""
) -> Callable[[InvariantFn], InvariantFn]:
    """Decorator registering an invariant under *name* (latest wins)."""

    def decorator(fn: InvariantFn) -> InvariantFn:
        _REGISTRY[name] = InvariantInfo(name=name, check=fn, description=description)
        return fn

    return decorator


def get_invariant(name: str) -> InvariantInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown invariant {name!r}; registered invariants: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def invariant_names() -> Tuple[str, ...]:
    """Sorted names of all registered invariants."""
    return tuple(sorted(_REGISTRY))


def check_invariants(
    run: ScenarioRun, *, invariants: Optional[Iterable[str]] = None
) -> Dict[str, List[str]]:
    """Run the chosen invariants (default: all) and collect violations."""
    chosen = tuple(invariants) if invariants is not None else invariant_names()
    results: Dict[str, List[str]] = {}
    for name in chosen:
        info = get_invariant(name)
        try:
            results[name] = list(info.check(run))
        # A buggy invariant must surface as a *violation*, never abort the
        # differential run — this is the one sanctioned catch-all.
        except Exception as exc:  # repro-lint: allow[R007]
            results[name] = [f"invariant raised {type(exc).__name__}: {exc}"]
    return results


# --------------------------------------------------------------------------- #
# 1. vectorized LP assembly ≡ loop-based reference builder
# --------------------------------------------------------------------------- #
def _canonical(matrix):
    if matrix is None:
        return None
    csr = matrix.tocsr().copy()
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


@register_invariant(
    "lp-matrix",
    description="vectorized LP matrices identical to the loop-built reference",
)
def check_lp_matrix_equivalence(run: ScenarioRun) -> List[str]:
    instance = run.instance
    grid = (
        run.lp_solution.grid
        if run.lp_solution is not None
        else resolve_grid(instance)
    )
    lp_vec, _bundle = build_time_indexed_lp(instance, grid)
    lp_ref, _ref_bundle = build_time_indexed_lp_reference(instance, grid)
    ref = lp_ref.build_matrices()
    vec = lp_vec.build_matrices()
    violations: List[str] = []
    if not np.array_equal(ref[0], vec[0]):
        violations.append("objective vectors differ between builders")
    for label, a, b in (("A_ub", ref[1], vec[1]), ("A_eq", ref[3], vec[3])):
        a, b = _canonical(a), _canonical(b)
        if (a is None) != (b is None):
            violations.append(f"{label}: one builder emitted the block, the other not")
            continue
        if a is None:
            continue
        if a.shape != b.shape:
            violations.append(f"{label}: shapes differ ({a.shape} vs {b.shape})")
        elif (
            a.nnz != b.nnz
            or not np.array_equal(a.indptr, b.indptr)
            or not np.array_equal(a.indices, b.indices)
            or not np.array_equal(a.data, b.data)
        ):
            violations.append(f"{label}: sparsity pattern or values differ")
    for label, a, b in (("b_ub", ref[2], vec[2]), ("b_eq", ref[4], vec[4])):
        if (a is None) != (b is None) or (
            a is not None and not np.array_equal(a, b)
        ):
            violations.append(f"{label}: right-hand sides differ")
    if not all(np.array_equal(a, b) for a, b in zip(ref[5], vec[5])):
        violations.append("variable bounds differ between builders")
    return violations


# --------------------------------------------------------------------------- #
# 2. incremental simulator ≡ full per-event re-allocation
# --------------------------------------------------------------------------- #
def _simulation_priority(instance, standalone: np.ndarray):
    """The priority the equivalence check drives both simulator modes with."""
    if instance.model is TransmissionModel.FREE_PATH:
        return srtf_priority_fn(instance, standalone)
    return sebf_priority_fn(instance, standalone)


@register_invariant(
    "incremental-sim",
    description="incremental allocation reuse equals full re-allocation, event-for-event",
)
def check_incremental_simulator(run: ScenarioRun) -> List[str]:
    instance = run.instance
    priority = _simulation_priority(instance, run.standalone_times())
    inc = simulate_priority_schedule(instance, priority, incremental=True)
    full = simulate_priority_schedule(instance, priority, incremental=False)
    violations: List[str] = []
    if inc.metadata.get("events") != full.metadata.get("events"):
        violations.append(
            f"event counts diverge: incremental={inc.metadata.get('events')} "
            f"full={full.metadata.get('events')}"
        )
    diff = np.abs(
        inc.coflow_completion_times - full.coflow_completion_times
    )
    worst = int(np.argmax(diff)) if diff.size else 0
    if diff.size and diff[worst] > SIM_EQUALITY_TOL:
        violations.append(
            f"completion times diverge (coflow {worst}: "
            f"incremental={inc.coflow_completion_times[worst]:.12g} "
            f"full={full.coflow_completion_times[worst]:.12g})"
        )
    return violations


# --------------------------------------------------------------------------- #
# 3. every produced schedule is feasible
# --------------------------------------------------------------------------- #
@register_invariant(
    "schedule-feasibility",
    description="every produced slot schedule passes the Section 3 constraint checker",
)
def check_schedule_feasibility(run: ScenarioRun) -> List[str]:
    violations: List[str] = []
    for name, report in run.reports.items():
        if report.schedule is None:
            continue
        feasibility = check_feasibility(report.schedule)
        if not feasibility.is_feasible:
            head = "; ".join(feasibility.violations[:3])
            violations.append(f"{name}: infeasible schedule ({head})")
    return violations


# --------------------------------------------------------------------------- #
# 4. slot-aligned objectives respect the LP lower bound
# --------------------------------------------------------------------------- #
@register_invariant(
    "lp-lower-bound",
    description="slot-aligned algorithm objectives are >= the LP lower bound",
)
def check_lp_lower_bound(run: ScenarioRun) -> List[str]:
    violations: List[str] = []
    for name, report in run.reports.items():
        if report.lower_bound is None:
            continue
        # Continuous-time baselines may legitimately beat the *slotted*
        # bound (see SolveReport.lower_bound); only slot-aligned algorithms
        # (the shared-LP consumers) are held to it.
        if not get_algorithm(name).uses_shared_lp:
            continue
        floor = report.lower_bound * (1.0 - LOWER_BOUND_RTOL) - 1e-9
        if report.objective < floor:
            violations.append(
                f"{name}: objective {report.objective:.9g} below LP lower "
                f"bound {report.lower_bound:.9g}"
            )
    return violations


# --------------------------------------------------------------------------- #
# 5. baseline orderings match their paper-stated rules
# --------------------------------------------------------------------------- #
def _monotone_along(order, values, tol) -> bool:
    arranged = np.asarray(values, dtype=float)[np.asarray(order, dtype=int)]
    return bool(np.all(np.diff(arranged) >= -tol))


@register_invariant(
    "baseline-ordering",
    description="FIFO/Terra/weighted-SJF/Sincronia orderings follow their stated rules",
)
def check_baseline_ordering(run: ScenarioRun) -> List[str]:
    instance = run.instance
    violations: List[str] = []

    if "fifo" in run.reports:
        order = list(fifo_priority(0.0, instance.demands(), instance))
        if sorted(order) != list(range(instance.num_coflows)):
            violations.append("fifo: priority order is not a permutation")
        elif not _monotone_along(order, instance.coflow_release_times(), 1e-12):
            violations.append(
                "fifo: priority order does not follow coflow release times"
            )

    for name in ("terra", "weighted-sjf", "sebf"):
        report = run.reports.get(name)
        if report is None:
            continue
        recorded = report.extras.get("standalone_times")
        if recorded is None:
            continue
        recorded = np.asarray(recorded, dtype=float)
        if recorded.shape != (instance.num_coflows,) or not np.allclose(
            recorded, run.standalone_times(), rtol=1e-6, atol=1e-8
        ):
            violations.append(
                f"{name}: recorded standalone times disagree with an "
                "independent recomputation"
            )
            continue
        if name == "terra":
            order = list(
                srtf_priority_fn(instance, recorded)(
                    0.0, instance.demands(), instance
                )
            )
            if not _monotone_along(order, recorded, 1e-9):
                violations.append(
                    "terra: initial SRTF order is not sorted by standalone time"
                )

    sincronia = run.reports.get("sincronia")
    if sincronia is not None:
        order = sincronia.extras.get("order")
        if order is None or sorted(order) != list(range(instance.num_coflows)):
            violations.append(
                "sincronia: BSSI order is missing or not a permutation of the coflows"
            )
    return violations


# --------------------------------------------------------------------------- #
# 6. SolveReport internal consistency
# --------------------------------------------------------------------------- #
@register_invariant(
    "report-consistency",
    description="completion times are finite, respect releases, and match the objective",
)
def check_report_consistency(run: ScenarioRun) -> List[str]:
    instance = run.instance
    release = instance.coflow_release_times()
    violations: List[str] = []
    for name, report in run.reports.items():
        times = report.coflow_completion_times
        if not np.all(np.isfinite(times)):
            violations.append(f"{name}: non-finite completion times")
            continue
        if np.any(times < -1e-12):
            violations.append(f"{name}: negative completion times")
        late = times - release
        if np.any(late < -1e-9):
            worst = int(np.argmin(late))
            violations.append(
                f"{name}: coflow {worst} completes at {times[worst]:.9g}, "
                f"before its release time {release[worst]:.9g}"
            )
        if get_algorithm(name).objective_is_wct:
            wct = float(np.dot(instance.weights, times))
            if not np.isclose(report.objective, wct, rtol=1e-9, atol=1e-9):
                violations.append(
                    f"{name}: objective {report.objective:.9g} != weighted "
                    f"completion time {wct:.9g} of the reported times"
                )
        if not report.is_feasible:
            violations.append(f"{name}: report flagged infeasible")
    return violations


# --------------------------------------------------------------------------- #
# 7. online policies never allocate before release
# --------------------------------------------------------------------------- #
def _online_reports(run: ScenarioRun):
    for name, report in run.reports.items():
        if get_algorithm(name).online:
            yield name, report


def _release_tol(release: float) -> float:
    """Relative boundary tolerance — the shared ``TimeGrid`` discipline."""
    return relative_tol(release, 1e-9)


@register_invariant(
    "online-release-respect",
    description="online policies never serve a coflow before its release time",
)
def check_online_release_respect(run: ScenarioRun) -> List[str]:
    """No allocation before release, checked against first-service evidence.

    Every online report carries the engine's evidence: the earliest time
    each coflow was allowed to transmit (``first_service_times``; batch
    start for batching policies, first positive simulator rate otherwise),
    plus per-batch records for batching policies.  Missing evidence is
    itself a violation — an online result the harness cannot audit has lost
    its contract.
    """
    instance = run.instance
    release = instance.coflow_release_times()
    violations: List[str] = []
    for name, report in _online_reports(run):
        first = report.extras.get("first_service_times")
        if first is None:
            violations.append(
                f"{name}: online report carries no first-service evidence"
            )
            continue
        if len(first) != instance.num_coflows:
            violations.append(
                f"{name}: first-service evidence has {len(first)} entries "
                f"for {instance.num_coflows} coflows"
            )
            continue
        for j, served_at in enumerate(first):
            if served_at is None:  # never served (e.g. zero demand)
                continue
            if float(served_at) < release[j] - _release_tol(release[j]):
                violations.append(
                    f"{name}: coflow {j} first served at {float(served_at):.9g}, "
                    f"before its release time {release[j]:.9g}"
                )
        for batch in report.extras.get("batches") or ():
            start = float(batch["start_time"])
            for j in batch["coflow_indices"]:
                if start < release[int(j)] - _release_tol(release[int(j)]):
                    violations.append(
                        f"{name}: batch (epoch {batch['epoch_index']}) starts "
                        f"at {start:.9g}, before member coflow {j}'s release "
                        f"time {release[int(j)]:.9g}"
                    )
    return violations


# --------------------------------------------------------------------------- #
# 8. online objectives respect the clairvoyant LP lower bound
# --------------------------------------------------------------------------- #
@register_invariant(
    "online-lower-bound",
    description="online objectives respect the clairvoyant per-coflow LP bound",
)
def check_online_lower_bound(run: ScenarioRun) -> List[str]:
    """Online results can never beat a clairvoyant per-coflow LP bound.

    Every feasible schedule — continuous-time or slotted, online or
    offline — satisfies ``C_j >= r_j + standalone_j``, where ``standalone_j``
    is the coflow's max-concurrent-flow LP completion time on the empty
    network (recomputed independently by :meth:`ScenarioRun.standalone_times`).
    Summed with the weights this is the clairvoyant lower bound online
    objectives are held to.  (The *slotted* time-indexed LP objective is
    deliberately not used here: it quantizes completions to slot ends, which
    continuous-time schedules may legitimately beat — see
    ``SolveReport.lower_bound``.)
    """
    instance = run.instance
    release = instance.coflow_release_times()
    standalone = run.standalone_times()
    floor_times = release + standalone
    clairvoyant = float(np.dot(instance.weights, floor_times))
    violations: List[str] = []
    for name, report in _online_reports(run):
        times = report.coflow_completion_times
        slack = times - floor_times
        tol = LOWER_BOUND_RTOL * np.maximum(1.0, np.abs(floor_times))
        if np.any(slack < -tol):
            worst = int(np.argmin(slack))
            violations.append(
                f"{name}: coflow {worst} completes at {times[worst]:.9g}, "
                f"below its clairvoyant floor release + standalone = "
                f"{floor_times[worst]:.9g}"
            )
        floor_objective = clairvoyant * (1.0 - LOWER_BOUND_RTOL) - 1e-9
        if report.objective < floor_objective:
            violations.append(
                f"{name}: objective {report.objective:.9g} below the "
                f"clairvoyant lower bound {clairvoyant:.9g}"
            )
    return violations


# --------------------------------------------------------------------------- #
# 9. the certified LP horizon holds the requested grid's optimum
# --------------------------------------------------------------------------- #
#: Relative tolerance between the certified-prefix objective and the
#: requested grid's: both are optima of LPs with one optimal value.
HORIZON_OBJECTIVE_RTOL = 1e-9


@register_invariant(
    "horizon-certificate",
    description="a default uniform LP solved on a grid prefix has the optimum "
    "of the whole requested grid, and the prefix ends on an empty slot",
)
def check_horizon_certificate(run: ScenarioRun) -> List[str]:
    """Re-solve a default uniform request on the whole requested grid.

    Applies to runs whose config asks for neither a grid, a slot count nor
    ε: their LP may be solved on a prefix of the requested grid, which must
    (a) keep the requested grid's digest as the request identity, (b) be a
    prefix of the requested grid, (c) send nothing in its last slot unless
    it is the whole requested grid, and (d) have the requested grid's
    objective.
    """
    solution, config = run.lp_solution, run.config
    if solution is None or config is None:
        return []
    if any(v is not None for v in (config.grid, config.num_slots, config.epsilon)):
        return []
    instance = run.instance
    requested = resolve_grid(instance, slot_length=config.slot_length)
    solved = solution.grid
    violations: List[str] = []
    if solution.metadata.get("request") != lp_request(
        requested, solver_method=config.solver_method
    ):
        violations.append("the LP does not record the requested grid as its request")
    if solved != TimeGrid(requested.boundaries[: solved.num_slots + 1]):
        violations.append(
            f"the solved grid ({solved!r}) is not a prefix of the requested "
            f"grid ({requested!r})"
        )
    elif solved.num_slots < requested.num_slots and np.any(
        solution.fractions[:, -1] > 0.0
    ):
        violations.append(
            f"the last solved slot ({solved.num_slots - 1}) carries x, but the "
            f"solved grid stops before the requested {requested.num_slots} slots"
        )
    reference = solve_time_indexed_lp(
        instance,
        num_slots=requested.num_slots,
        slot_length=config.slot_length,
        solver_method=config.solver_method,
    )
    if not np.isclose(
        solution.objective, reference.objective, rtol=HORIZON_OBJECTIVE_RTOL, atol=0
    ):
        violations.append(
            f"objective {solution.objective:.12g} on {solved.num_slots} slots "
            f"!= {reference.objective:.12g} on the requested "
            f"{requested.num_slots} slots"
        )
    return violations

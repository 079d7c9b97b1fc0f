"""The benchmark workloads: instance choice from a seed, set-up, one timed run.

Every workload goes through a public entry point of the library —
:func:`repro.api.solve_many` or :func:`repro.experiments.sweep.run_sweep` —
and yields :class:`UnitResult` records, one per (instance, algorithm[, ε])
unit, which :mod:`checks` verifies and scores afterwards.

A workload is split into three steps:

* ``choose(seed)`` picks the instances, as
  :class:`~repro.experiments.sweep.InstanceSpec` records.  ``run.py`` does
  this once per run; it is not part of any measured time.
* ``prepare(specs, seed)`` generates the instances and creates the result
  store; a repetition counts it in ``setup_s``.
* ``execute(inputs)`` is the timed solve sequence (``wall_s``).

``instances(inputs)`` regenerates the instances from their specs, so the
checks after the timed section read fresh copies, never the ones it used.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Scratch space of a run (result stores, temp files), inside the checkout;
#: ``run.py`` deletes it when the run ends.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench-work"

#: ``lp-single``: the single-path figure configs at 2x coflows, the profiles
#: of each (the profile's index into the config's workload tuple sets its
#: base seed, ``seed + 1000 * i``) and the instances drawn per pair.
LP_SINGLE_FIGURES = ("fig09", "fig10")
LP_SINGLE_PROFILES = ("TPC-DS", "FB")
LP_SINGLE_SCALE = 2
LP_SINGLE_DRAWS = 2
LP_SINGLE_ALGORITHMS = (
    "lp-heuristic",
    "stretch",
    "stretch-best",
    "stretch-average",
    "jahanjou",
)
#: ``sim``: FB instances per topology and transmission model.
SIM_COFLOWS = 100
SIM_DRAWS = 4
SIM_CASES = (
    ("swan", "free_path"),
    ("swan", "single_path"),
    ("gscale", "free_path"),
    ("gscale", "single_path"),
)
SIM_ALGORITHMS = (
    "terra",
    "sincronia",
    "fifo",
    "weighted-sjf",
    "sebf",
    "online-wsjf",
    "online-resolve",
)
#: ``paper-sweep``: both topologies, both transmission models, weighted and
#: unweighted, at paper scale with every profile of each config.
SWEEP_FIGURES = ("fig06", "fig10", "fig12")
SWEEP_EPSILONS: Tuple[Optional[float], ...] = (None, 0.2)
#: The paper's ten offline algorithms.
OFFLINE_ALGORITHMS = (
    "lp-heuristic",
    "stretch",
    "stretch-best",
    "stretch-average",
    "jahanjou",
    "terra",
    "sincronia",
    "fifo",
    "weighted-sjf",
    "sebf",
)
#: Units left out of ``paper-sweep`` because they fail on every seed tried:
#: Stretch-family schedules on ε=0.2 grids transmit before a release time
#: and ``check_feasibility`` rejects them.  ``run.py --known-failures``
#: re-runs exactly these units and prints each failure's signature.
KNOWN_FAILING_ALGORITHMS = ("stretch", "stretch-best", "stretch-average")
KNOWN_FAILING_EPSILON = 0.2

#: Instance choice.  An instance's cost varies a lot from seed to seed: over
#: 12 seeds of the fig09 FB config at 2x, the ``lp-heuristic`` solve time
#: had a coefficient of variation of 0.73; over 8 seeds of a 200-coflow
#: free-path instance, the simulator baselines' time had 0.42.  So a
#: workload draws ``CANDIDATES`` instances per config from the run seed and
#: keeps those whose size (:func:`lp_size` or :func:`sim_size`) is closest
#: to the config's typical size, the median over ``REFERENCE_DRAWS`` fixed
#: reference seeds.
CANDIDATES = 24
REFERENCE_DRAWS = 9


@dataclass
class UnitResult:
    """Outcome of one (instance, algorithm, ε) unit.

    ``objective``/``completion_times`` are ``None`` when the unit failed;
    ``error`` then holds ``"<ExceptionType>: <message>"``.  ``slotted``
    marks a report backed by a time-slotted schedule (the LP heuristic and
    the Stretch family) rather than continuous completion times.  ``grid``
    is that schedule's ``TimeGrid`` when the report carries one; reports a
    sweep rebuilds from its store do not, and :mod:`checks` re-derives it.
    ``isolate`` marks a unit whose instance's ``solve_many`` call raised,
    so its own outcome is not known until :func:`isolate_batch_failures`.
    """

    instance_index: int
    algorithm: str
    epsilon: Optional[float]
    objective: Optional[float] = None
    completion_times: Optional[np.ndarray] = None
    error: Optional[str] = None
    slotted: bool = False
    grid: object = None
    isolate: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------- #
# instance choice
# --------------------------------------------------------------------------- #
#: Max-flow values by (topology, source, sink), shared by all candidates.
_MAX_FLOW: Dict[Tuple[str, str, str], float] = {}


def lp_size(spec) -> float:
    """Cost measure of the instance's time-indexed LP and Stretch: ``F T^2 W``.

    It is computed from the instance alone, not from the LP code, so a
    change to how the LP is built cannot change which instances a seed
    picks.  ``F`` is the flow count and ``T`` the latest release time plus
    the serial transmission time (the default horizon in unit slots,
    without slack).  On single path ``W = 1``: Eq. 2's lower-triangular
    block has about ``F T^2 / 2`` entries, and on 12 fig09 FB instances at
    2x, LP nonzeros / ``F T^2`` varied by under 4%.  On free path ``W`` is
    the edge count ``E``: Stretch's ``einsum`` over per-edge fractions costs
    ``F E T^2 / lambda`` per draw.  Chosen on ``F E T`` instead,
    ``paper-sweep``'s Stretch time differed 2x between two seeds.
    """
    instance = spec.build()
    graph = instance.graph
    single_path = instance.model.value == "single_path"
    serial = 0.0
    for ref in instance.flow_refs():
        flow = ref.flow
        if single_path:
            rate = graph.path_bottleneck(flow.path)
        else:
            key = (spec.topology, flow.source, flow.sink)
            if key not in _MAX_FLOW:
                _MAX_FLOW[key] = graph.max_flow_value(flow.source, flow.sink)
            rate = _MAX_FLOW[key]
        serial += flow.demand / rate
    horizon = instance.max_release_time() + serial
    width = 1 if single_path else graph.num_edges
    return instance.num_flows * horizon**2 * width


def sim_size(spec) -> Tuple[float, int]:
    """Load and flow count: what a simulation and the instance's generation cost.

    Load is total demand per unit of arrival span, how congested a
    simulation gets.  On 8 seeds each of 200-coflow free-path SWAN and
    G-Scale instances, the four above the median load took on average 1.5x
    and 1.6x the simulator baselines' time of the four below.  Generation
    time (in ``setup_s``) grows with the flow count: it pins a shortest path
    per flow.  On 16 instances of three seeds it varied from 0.47 to 0.80 s.
    """
    instance = spec.build()
    return instance.total_demand() / instance.max_release_time(), instance.num_flows


def typical_specs(
    make: Callable[[int], object],
    size: Callable[[object], object],
    base_seed: int,
    offset: int,
    count: int,
) -> list:
    """*count* specs for run seed *offset* whose *size* is the typical one.

    *make* builds an ``InstanceSpec`` from an instance seed; candidate ``k``
    has seed ``base_seed + offset`` for ``k = 0`` and a seed derived from it
    otherwise.  *size* gives one number or a tuple of them; the typical size
    is their median over the reference seeds, and a candidate's distance is
    the sum of its relative deviations from it.  The specs come back
    closest first.
    """
    from repro.utils.rng import derive_seed

    target = np.median(
        [
            np.atleast_1d(size(make(derive_seed(base_seed, "perfbench-reference", r))))
            for r in range(REFERENCE_DRAWS)
        ],
        axis=0,
    )
    scored = []
    for k in range(CANDIDATES):
        seed = base_seed + offset if k == 0 else derive_seed(
            base_seed + offset, "perfbench-candidate", k
        )
        spec = make(seed)
        distance = float(np.abs(np.atleast_1d(size(spec)) / target - 1.0).sum())
        scored.append((distance, k, spec))
    return [spec for _, _, spec in sorted(scored, key=lambda s: s[:2])[:count]]


def _figure_specs(
    figures: Sequence[str],
    profiles: Optional[Sequence[str]],
    scale: int,
    draws: int,
    seed: int,
) -> list:
    """*draws* typical-size instances per figure config and profile.

    ``profiles=None`` takes every profile of the config.
    """
    from repro.experiments.figures import get_experiment
    from repro.experiments.sweep import InstanceSpec

    specs = []
    for figure in figures:
        config = get_experiment(figure)
        for profile in profiles or config.workloads:

            def make(instance_seed: int, config=config, profile=profile):
                return InstanceSpec(
                    topology=config.topology,
                    profile=profile,
                    num_coflows=config.num_coflows * scale,
                    model=config.model.value,
                    seed=instance_seed,
                    demand_scale=config.demand_scale,
                    weighted=config.weighted,
                    name=f"{config.experiment_id}-{profile}-x{scale}",
                )

            base = config.seed + 1000 * config.workloads.index(profile)
            specs.extend(typical_specs(make, lp_size, base, seed, draws))
    return specs


def _sim_specs(seed: int) -> list:
    from repro.experiments.sweep import InstanceSpec

    specs = []
    for i, (topology, model) in enumerate(SIM_CASES):

        def make(instance_seed: int, topology=topology, model=model):
            return InstanceSpec(
                topology=topology,
                profile="FB",
                num_coflows=SIM_COFLOWS,
                model=model,
                seed=instance_seed,
                demand_scale=1.5,
                weighted=True,
                name=f"sim-{topology}-{model}",
            )

        specs.extend(typical_specs(make, sim_size, 2019 + 1000 * i, seed, SIM_DRAWS))
    return specs


# --------------------------------------------------------------------------- #
# solve_many workloads
# --------------------------------------------------------------------------- #
@dataclass
class BatchInputs:
    """Instances plus the algorithm list one ``solve_many`` call runs per instance."""

    specs: list
    algorithms: Tuple[str, ...]
    rng_seed: int
    instances: list


def _report_unit(index: int, report) -> UnitResult:
    schedule = report.schedule
    return UnitResult(
        index,
        report.algorithm,
        None,
        objective=float(report.objective),
        completion_times=np.asarray(report.coflow_completion_times),
        slotted=schedule is not None,
        grid=None if schedule is None else schedule.grid,
    )


def _execute_batch(inputs: BatchInputs) -> List[UnitResult]:
    """One ``solve_many`` call per instance.

    An exception never aborts the run: it marks every unit of that instance
    for :func:`isolate_batch_failures`, which runs after the timed section.
    """
    from repro.api import SolverConfig, get_algorithm, solve_many

    results: List[UnitResult] = []
    for index, instance in enumerate(inputs.instances):
        algorithms = [
            name
            for name in inputs.algorithms
            if get_algorithm(name).supports(instance.model)
        ]
        config = SolverConfig(rng=inputs.rng_seed + index)
        try:
            reports = solve_many([instance], algorithms, config=config)
        except Exception as exc:  # a failed solve is counted, never fatal
            results.extend(
                UnitResult(index, name, None, error=_describe(exc), isolate=True)
                for name in algorithms
            )
            continue
        results.extend(_report_unit(index, report) for report in reports)
    return results


def isolate_batch_failures(units: List[UnitResult], inputs: BatchInputs) -> List[UnitResult]:
    """Re-solve, one algorithm at a time, the units of instances whose batch raised.

    ``solve_many`` fails as a whole when one algorithm raises; each unit
    marked ``isolate`` is solved again alone with ``repro.api.solve``, so only
    the algorithms that really fail count as failed units.
    """
    from repro.api import SolverConfig, solve

    settled = []
    for unit in units:
        if not unit.isolate:
            settled.append(unit)
            continue
        index = unit.instance_index
        config = SolverConfig(rng=inputs.rng_seed + index)
        try:
            report = solve(inputs.instances[index], unit.algorithm, config=config)
        except Exception as exc:
            settled.append(UnitResult(index, unit.algorithm, None, error=_describe(exc)))
            continue
        settled.append(_report_unit(index, report))
    return settled


def _batch(algorithms: Tuple[str, ...]) -> Callable[[list, int], BatchInputs]:
    def prepare(specs: list, seed: int) -> BatchInputs:
        return BatchInputs(
            specs=specs,
            algorithms=algorithms,
            rng_seed=seed,
            instances=[spec.build() for spec in specs],
        )

    return prepare


def _batch_instances(inputs: BatchInputs) -> list:
    return [spec.build() for spec in inputs.specs]


# --------------------------------------------------------------------------- #
# paper-sweep
# --------------------------------------------------------------------------- #
@dataclass
class SweepInputs:
    """The sweep specs (one per ε) and a fresh, empty result store."""

    specs: list
    store: object
    store_dir: Path

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


def sweep_specs(
    instances: Sequence, seed: int, *, known_failures: bool = False
) -> list:
    """The ``SweepSpec`` list of ``paper-sweep`` over *instances*, one spec per ε.

    The two ε values need separate specs because they run different
    algorithm sets.  ``known_failures=True`` gives instead the units left
    out of the workload: the Stretch family on ε=0.2 grids.
    """
    from repro.experiments.sweep import SweepSpec

    if known_failures:
        axes = [(KNOWN_FAILING_EPSILON, KNOWN_FAILING_ALGORITHMS)]
    else:
        axes = [
            (
                epsilon,
                tuple(
                    name
                    for name in OFFLINE_ALGORITHMS
                    if epsilon != KNOWN_FAILING_EPSILON
                    or name not in KNOWN_FAILING_ALGORITHMS
                ),
            )
            for epsilon in SWEEP_EPSILONS
        ]
    return [
        SweepSpec(
            name=f"perfbench-paper-sweep-eps{epsilon}",
            instances=tuple(instances),
            algorithms=algorithms,
            epsilons=(epsilon,),
            seed=seed,
        )
        for epsilon, algorithms in axes
    ]


def prepare_sweep(
    instances: list, seed: int, *, known_failures: bool = False
) -> SweepInputs:
    from repro.store import ResultStore

    WORK_DIR.mkdir(exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="paper-sweep-", dir=WORK_DIR))
    return SweepInputs(
        specs=sweep_specs(instances, seed, known_failures=known_failures),
        store=ResultStore(store_dir),
        store_dir=store_dir,
    )


def _sweep_results(result, store) -> List[UnitResult]:
    out = []
    for unit in result.units:
        payload = result.reports.get(unit.key)
        if payload is None:
            record = store.get_failure(unit.key) or {}
            error = f"{record.get('error', 'Unsolved')}: {record.get('message', unit.status)}"
            out.append(
                UnitResult(unit.instance_index, unit.algorithm, unit.epsilon, error=error)
            )
            continue
        out.append(
            UnitResult(
                unit.instance_index,
                unit.algorithm,
                unit.epsilon,
                objective=float(payload["objective"]),
                completion_times=np.asarray(
                    payload["coflow_completion_times"], dtype=float
                ),
                slotted=bool(payload["had_schedule"]),
            )
        )
    return out


def execute_sweep(inputs: SweepInputs) -> List[UnitResult]:
    """A cold ``run_sweep`` per ε into the fresh store, then a warm re-run.

    The warm pass must return the cold pass's objectives from the store; a
    unit whose warm result differs is reported as failed.
    """
    from repro.experiments.sweep import run_sweep

    results: List[UnitResult] = []
    for spec in inputs.specs:
        cold = _sweep_results(run_sweep(spec, inputs.store), inputs.store)
        warm = _sweep_results(run_sweep(spec, inputs.store), inputs.store)
        for before, after in zip(cold, warm):
            if not before.failed and (
                after.failed or after.objective != before.objective
            ):
                before.error = "warm re-run disagrees with the cold pass"
        results.extend(cold)
    return results


def sweep_failures(inputs: SweepInputs) -> List[UnitResult]:
    """Run the units of *inputs* once each, without retries.

    Used on the known-failing units; each failed unit's ``error`` is the
    exception type and message the sweep recorded for it.
    """
    from repro.experiments.sweep import run_sweep
    from repro.utils.retry import Backoff

    results: List[UnitResult] = []
    for spec in inputs.specs:
        result = run_sweep(spec, inputs.store, backoff=Backoff(retries=0))
        results.extend(_sweep_results(result, inputs.store))
    return results


def _sweep_instances(inputs: SweepInputs) -> list:
    return [ispec.build() for ispec in inputs.specs[0].instances]


def choose_sweep(seed: int) -> list:
    return _figure_specs(SWEEP_FIGURES, None, 1, 1, seed)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    name: str
    choose: Callable[[int], list]
    prepare: Callable[[list, int], object]
    execute: Callable[[object], List[UnitResult]]
    instances: Callable[[object], list]
    #: Untimed step after ``execute`` that settles units it left undecided.
    settle: Callable[[List[UnitResult], object], List[UnitResult]] = lambda units, _: units


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lp-single",
            lambda seed: _figure_specs(
                LP_SINGLE_FIGURES, LP_SINGLE_PROFILES, LP_SINGLE_SCALE, LP_SINGLE_DRAWS, seed
            ),
            _batch(LP_SINGLE_ALGORITHMS),
            _execute_batch,
            _batch_instances,
            isolate_batch_failures,
        ),
        Workload(
            "sim",
            _sim_specs,
            _batch(SIM_ALGORITHMS),
            _execute_batch,
            _batch_instances,
            isolate_batch_failures,
        ),
        Workload(
            "paper-sweep",
            choose_sweep,
            prepare_sweep,
            execute_sweep,
            _sweep_instances,
        ),
    )
}

"""Resumable parameter sweeps over the result store.

The paper's evaluation is a large cross product — instances × algorithms ×
grid/ε settings.  :func:`run_sweep` walks it one *(instance, ε) group* at a
time, the units that share one time-indexed LP, and writes each group's
results into a :class:`~repro.store.ResultStore` as soon as the group
returns:

* **kill-and-resume**: an interrupted sweep loses at most the group in
  flight (with N worker processes, the N groups in flight); re-running it
  skips every stored unit and recomputes only the rest — to a result set
  *byte-identical* to an uninterrupted run;
* **one LP per group**: each group's shared LP is solved once per run,
  however the units are laid out;
* **warm re-run**: re-running a completed sweep performs **zero** new LP
  solves (every unit is a store hit — asserted by the test suite via the
  store's hit counters);
* **layout independence**: every unit's randomness is a statelessly derived
  child stream (:func:`repro.utils.rng.derive_seed` keyed on the unit's
  *address*, never on execution order), so the number of workers and the
  set of units skipped on resume can change without changing a single
  result byte.  This is also why the orchestrator does not funnel groups
  through :func:`repro.api.solve_many`: its per-batch RNG spawning keys
  streams on batch *composition*, which a resume, by construction,
  changes.  Both share the worker pool, :func:`repro.api.batch.parallel_map`.

A sweep is described by a :class:`SweepSpec` (JSON-serializable, so the
``repro sweep`` CLI takes a spec file).

Failure discipline: every solve attempt runs under the bounded,
deterministically jittered retry policy of :mod:`repro.utils.retry`
(retry delays derive from the unit's *address*, like its seed, so they
too are layout-independent).  A unit that still fails after the policy's
budget becomes a ``failed`` unit: the sweep records the exception under
``runs/failures/<key>.json`` (poison-unit quarantine) and keeps going —
one pathological LP can mark a sweep incomplete, but can never wedge it.
A later successful solve of the same unit clears its record.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
import traceback
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import SolverConfig, solve
from repro.api.batch import parallel_map
from repro.api.registry import get_algorithm
from repro.coflow.instance import CoflowInstance
from repro.core.scheduler import lp_solution_for
from repro.network.topologies import named_topology
from repro.store import (
    ResultStore,
    instance_fingerprint,
    report_to_dict,
    result_key,
)
from repro.utils.io import atomic_write_json
from repro.utils.retry import SOLVER_FAILURES, Backoff, retry_call
from repro.utils.rng import derive_seed
from repro.utils.timing import report_stamp
from repro.workloads.generator import WorkloadSpec, generate_instance
from repro.workloads.traces import load_instance

logger = logging.getLogger(__name__)

SWEEP_SCHEMA = 1


# --------------------------------------------------------------------------- #
# sweep specification
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class InstanceSpec:
    """One workload of a sweep: either generated or replayed from a trace.

    Generated instances are addressed by their generation parameters (the
    usual :class:`~repro.workloads.generator.WorkloadSpec` knobs); trace
    instances by an instance file, read by
    :func:`~repro.workloads.traces.load_instance` (what ``repro generate``,
    :meth:`CoflowInstance.save_json` and
    :func:`~repro.workloads.traces.save_trace` write).  Either way the
    *store key* is derived from the built instance's content, so provenance
    never splits cache entries.
    """

    topology: str = "swan"
    profile: str = "FB"
    num_coflows: int = 4
    model: str = "free_path"
    seed: int = 0
    demand_scale: float = 1.0
    weighted: bool = True
    name: Optional[str] = None
    trace: Optional[str] = None

    def build(self) -> CoflowInstance:
        if self.trace is not None:
            return load_instance(self.trace)
        graph = named_topology(self.topology)
        spec = WorkloadSpec(
            profile=self.profile,
            num_coflows=self.num_coflows,
            weighted=self.weighted,
            demand_scale=self.demand_scale,
            seed=self.seed,
            name=self.name,
        )
        return generate_instance(graph, spec, model=self.model, rng=self.seed)

    def label(self) -> str:
        if self.trace is not None:
            return Path(self.trace).stem
        return self.name or (
            f"{self.profile}/{self.topology}/{self.model}"
            f"/n{self.num_coflows}/s{self.seed}"
        )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "InstanceSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown InstanceSpec fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)


#: SolverConfig fields a sweep spec may set (the ε axis and per-unit rng are
#: managed by the orchestrator itself).
_SPEC_CONFIG_FIELDS = (
    "num_slots",
    "slot_length",
    "num_samples",
    "solver_method",
    "compact",
    "verify",
)


@dataclass(frozen=True)
class SweepSpec:
    """The full description of one sweep (JSON-round-trippable).

    Attributes
    ----------
    name:
        Human label (``repro sweep --status`` prints it).
    instances:
        The workload axis.
    algorithms:
        The algorithm axis (validated against the registry up front).
    epsilons:
        The grid axis: each entry is an ``epsilon`` for the geometric
        interval grid, or ``None`` for the default uniform grid.
    config:
        Base solver configuration.  Its ``rng`` must be ``None``: every
        unit receives its own statelessly derived seed (see module
        docstring), keyed on ``seed``.
    seed:
        Root seed of the per-unit stream derivation.
    """

    name: str
    instances: Tuple[InstanceSpec, ...]
    algorithms: Tuple[str, ...]
    epsilons: Tuple[Optional[float], ...] = (None,)
    config: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("a sweep needs at least one instance")
        if not self.algorithms:
            raise ValueError("a sweep needs at least one algorithm")
        if not self.epsilons:
            raise ValueError("epsilons must not be empty (use (None,))")
        if self.config.rng is not None:
            raise ValueError(
                "SweepSpec.config.rng must be None; per-unit seeds are "
                "derived from SweepSpec.seed so execution order cannot "
                "change results"
            )

    def to_dict(self) -> Dict:
        return {
            "schema": SWEEP_SCHEMA,
            "name": self.name,
            "instances": [spec.to_dict() for spec in self.instances],
            "algorithms": list(self.algorithms),
            "epsilons": list(self.epsilons),
            "config": {
                key: getattr(self.config, key) for key in _SPEC_CONFIG_FIELDS
            },
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepSpec":
        """Inverse of :meth:`to_dict`; any field it does not write is an error.

        A misspelt axis (``"epsilon"``) or seed (``"sed"``) would otherwise
        run the default silently.
        """
        known = {f.name for f in dataclasses.fields(cls)} | {"schema"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown sweep spec fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        missing = [name for name in ("instances", "algorithms") if name not in data]
        if missing:
            raise ValueError(f"a sweep spec needs the fields {missing}")
        config_data = dict(data.get("config") or {})
        unknown = set(config_data) - set(_SPEC_CONFIG_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown sweep config fields {sorted(unknown)}; "
                f"expected a subset of {sorted(_SPEC_CONFIG_FIELDS)}"
            )
        return cls(
            name=str(data.get("name", "sweep")),
            instances=tuple(
                InstanceSpec.from_dict(entry) for entry in data["instances"]
            ),
            algorithms=tuple(data["algorithms"]),
            epsilons=tuple(data.get("epsilons") or [None]),
            config=SolverConfig(**config_data),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def load_json(cls, path: str | Path) -> "SweepSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save_json(self, path: str | Path) -> None:
        atomic_write_json(path, self.to_dict())


# --------------------------------------------------------------------------- #
# units
# --------------------------------------------------------------------------- #
@dataclass
class SweepUnit:
    """One cell of the cross product, with its derived seed and store key."""

    index: int
    instance_index: int
    algorithm: str
    epsilon: Optional[float]
    rng_seed: Optional[int]
    key: str
    status: str = "pending"  # pending | hit | solved | failed
    objective: Optional[float] = None


def _unit_config(spec: SweepSpec, unit_seed: Optional[int], epsilon) -> SolverConfig:
    return spec.config.replace(epsilon=epsilon, rng=unit_seed)


def enumerate_units(
    spec: SweepSpec, instances: Sequence[CoflowInstance]
) -> List[SweepUnit]:
    """The sweep's unit list, in canonical (ε, instance, algorithm) order.

    Randomized algorithms get a seed derived statelessly from the unit's
    *address* ``(spec.seed, "sweep-unit", instance-content-fingerprint,
    algorithm, ε)`` — never from execution order, and never from the
    instance's position in the spec (inserting or reordering instances
    must not orphan previously solved randomized units).  Deterministic
    algorithms get ``None`` so that sweeps with different root seeds still
    share their cache entries.
    """
    units: List[SweepUnit] = []
    fingerprints = [instance_fingerprint(instance) for instance in instances]
    for epsilon in spec.epsilons:
        eps_label = "none" if epsilon is None else repr(float(epsilon))
        for i, (ispec, instance) in enumerate(zip(spec.instances, instances)):
            for algorithm in spec.algorithms:
                info = get_algorithm(algorithm)
                if not info.supports(instance.model):
                    continue
                unit_seed = (
                    derive_seed(
                        spec.seed,
                        "sweep-unit",
                        fingerprints[i],
                        algorithm,
                        eps_label,
                    )
                    if info.randomized
                    else None
                )
                cfg = _unit_config(spec, unit_seed, epsilon)
                units.append(
                    SweepUnit(
                        index=len(units),
                        instance_index=i,
                        algorithm=algorithm,
                        epsilon=epsilon,
                        rng_seed=unit_seed,
                        key=result_key(instance, algorithm, cfg),
                    )
                )
    if not units:
        raise ValueError(
            "the sweep cross product is empty: no requested algorithm "
            "supports any instance's transmission model"
        )
    return units


# --------------------------------------------------------------------------- #
# group execution
# --------------------------------------------------------------------------- #
def _failure_record(key: str, algorithm: str, exc: BaseException, attempts: int) -> Dict:
    """The ``runs/failures/`` quarantine record for a poison unit.

    Stamps and tracebacks live here, outside the content-addressed object
    space, so recording a failure never perturbs the byte-identity of
    results.
    """
    return {
        "schema": SWEEP_SCHEMA,
        "key": key,
        "algorithm": algorithm,
        "error": type(exc).__name__,
        "message": str(exc),
        "attempts": attempts,
        "traceback": traceback.format_exc(),
        "created": report_stamp(),
    }


def _solve_unit_tasks(
    instance: CoflowInstance,
    unit_tasks: List[Tuple[str, str, SolverConfig]],
    backoff: Optional[Backoff],
) -> List[Tuple[str, Optional[Dict], Optional[Dict]]]:
    """Solve one instance's units, sharing one time-indexed LP.

    Mirrors :func:`repro.api.batch._solve_instance_batch`: one shared LP
    (the one the first unit's config asks for) for every ``uses_shared_lp``
    algorithm — but each unit carries its *own* config (its derived seed),
    and the shared solution is handed *only* to ``uses_shared_lp``
    algorithms.
    Both choices serve the same invariant: a unit's inputs (and therefore
    its stored bytes) depend on its address alone, never on which other
    units happen to share its group.  This is also why
    ``online=True`` units never receive the shared clairvoyant LP here
    (their stored ``lower_bound`` is ``None``), although ``solve_many``
    attaches it: whether a group happens to contain a shared-LP consumer
    changes across resumes, and a bound that appears or disappears with
    group composition would break byte-identical resume.

    Every attempt runs under *backoff* (the default policy when ``None``);
    transient :data:`SOLVER_FAILURES` are retried with delays derived from
    the unit's address.  Each element of the returned list is
    ``(key, payload, failure)`` with exactly one of payload/failure set.
    If the shared LP itself fails terminally, its consumers fall back to
    solving their own LP (same grid, same deterministic solver, same
    bytes) rather than failing wholesale.
    """
    policy = backoff if backoff is not None else Backoff()
    results: List[Tuple[str, Optional[Dict], Optional[Dict]]] = []
    shared = None
    if any(
        get_algorithm(algorithm).uses_shared_lp
        for _, algorithm, _ in unit_tasks
    ):
        first_key, _, first_cfg = unit_tasks[0]
        lp_kwargs = first_cfg.lp_kwargs()
        try:
            shared = retry_call(
                lambda attempt: lp_solution_for(instance, **lp_kwargs),
                backoff=policy,
                path=("sweep-shared-lp", first_key),
            )
        except SOLVER_FAILURES:
            shared = None  # consumers fall back to their own LP below
    for key, algorithm, cfg in unit_tasks:

        def unit_attempt(
            attempt: int, key=key, algorithm=algorithm, cfg=cfg
        ) -> Dict:
            lp = shared if get_algorithm(algorithm).uses_shared_lp else None
            report = solve(instance, algorithm, config=cfg, lp_solution=lp)
            return report_to_dict(report)

        try:
            payload = retry_call(
                unit_attempt, backoff=policy, path=("sweep-unit", key)
            )
            results.append((key, payload, None))
        except SOLVER_FAILURES as exc:
            results.append(
                (key, None, _failure_record(key, algorithm, exc, policy.retries + 1))
            )
    return results


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` invocation."""

    spec: SweepSpec
    units: List[SweepUnit]
    reports: Dict[str, Dict]  # key -> serialized report surface
    hits: int = 0
    solved: int = 0
    failed: int = 0
    seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return self.failed == 0

    def summary(self) -> Dict:
        return {
            "schema": SWEEP_SCHEMA,
            "sweep": self.spec.name,
            "units": len(self.units),
            "hits": self.hits,
            "solved": self.solved,
            "failed": self.failed,
            "complete": self.complete,
            "seconds": self.seconds,
        }


def run_sweep(
    spec: SweepSpec,
    store: ResultStore,
    *,
    parallel: Optional[int] = None,
    backoff: Optional[Backoff] = None,
) -> SweepResult:
    """Run (or resume) *spec* against *store*.

    Parameters
    ----------
    spec:
        The sweep description.
    store:
        The persistent result store; every stored unit is skipped, and each
        (instance, ε) group's results are written here as soon as the group
        returns, in canonical unit order.
    parallel:
        Worker processes, one group each; ``None``/``1`` runs in-process.
    backoff:
        Retry policy for transient solver failures (default
        :class:`~repro.utils.retry.Backoff`); units still failing after
        its budget are quarantined as failure records, not raised.
    """
    started = time.perf_counter()
    for algorithm in spec.algorithms:
        get_algorithm(algorithm)  # fail fast on typos
    instances = [ispec.build() for ispec in spec.instances]
    units = enumerate_units(spec, instances)
    result = SweepResult(spec=spec, units=units, reports={})

    # Resume pass: everything already in the store is a hit, never
    # recomputed.  Only the remainder becomes solver work, grouped by the
    # LP its units share.
    groups: Dict[Tuple[int, Optional[float]], List[SweepUnit]] = {}
    for unit in units:
        payload = store.get(unit.key)
        if payload is None:
            groups.setdefault((unit.instance_index, unit.epsilon), []).append(unit)
            continue
        unit.status = "hit"
        unit.objective = payload.get("objective")
        result.reports[unit.key] = payload
        result.hits += 1
    tasks = [
        (
            instances[instance_index],
            [
                (unit.key, unit.algorithm, _unit_config(spec, unit.rng_seed, epsilon))
                for unit in group
            ],
            backoff,
        )
        for (instance_index, epsilon), group in groups.items()
    ]
    outcomes = parallel_map(
        _solve_unit_tasks, tasks, parallel=parallel, algorithms=spec.algorithms
    )
    with closing(outcomes):
        for group, outcome in zip(groups.values(), outcomes):
            # Group checkpoint: a group's units are stored as soon as it
            # returns, so a kill loses only the (at most `parallel`) groups
            # still in flight.
            for unit, (_, payload, failure) in zip(group, outcome):
                if failure is not None:
                    store.put_failure(unit.key, failure)
                    unit.status = "failed"
                    result.failed += 1
                    continue
                store.put(unit.key, payload, kind="solve-report")
                store.clear_failure(unit.key)
                unit.status = "solved"
                unit.objective = payload.get("objective")
                result.reports[unit.key] = payload
                result.solved += 1
            logger.info(
                "sweep %s: stored group %s, eps %s",
                spec.name,
                spec.instances[group[0].instance_index].label(),
                group[0].epsilon,
            )

    result.seconds = time.perf_counter() - started
    return result


def sweep_status(spec: SweepSpec, store: ResultStore) -> Dict:
    """Coverage of *spec* in *store* without solving anything.

    Counts per-unit presence directly against the store's objects, so it is
    correct even for a store populated by a different sweep that happened
    to share units.
    """
    instances = [ispec.build() for ispec in spec.instances]
    units = enumerate_units(spec, instances)
    stored = sum(1 for unit in units if store.contains(unit.key))
    failed = sum(
        1
        for unit in units
        if not store.contains(unit.key) and store.get_failure(unit.key) is not None
    )
    return {
        "sweep": spec.name,
        "units": len(units),
        "stored": stored,
        "pending": len(units) - stored,
        "failed": failed,
        "quarantined": len(store.quarantined()),
        "complete": stored == len(units),
    }

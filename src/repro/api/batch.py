"""The unified entry points: :func:`solve` and the batch runner :func:`solve_many`.

``solve`` dispatches one instance to one registered algorithm and returns a
:class:`~repro.api.report.SolveReport`.  ``solve_many`` fans a batch of
instances across a set of algorithms — optionally over worker processes
(:func:`parallel_map`, which the sweep shares) — solving the shared
time-indexed LP at most once per instance and handing it to every algorithm
that consumes it (exactly the reuse the paper's own evaluation performs when
comparing the LP heuristic against the λ-sampling series).

The shared LP is the one the config asks for
(:meth:`~repro.api.request.SolverConfig.lp_kwargs`: grid and solver method),
and :func:`~repro.core.scheduler.lp_solution_for` reuses it only for
algorithms whose request it answers, logging a debug line when reuse is
skipped.  Any other LP an algorithm needs (Jahanjou's interval LP, a
mismatched-grid re-solve) is solved afresh.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from typing import (
    Callable,
    Deque,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.coflow.instance import CoflowInstance
from repro.core.scheduler import lp_solution_for
from repro.core.timeindexed import CoflowLPSolution

from repro.api.algorithms import BUILTIN_ALGORITHMS
from repro.api.registry import get_algorithm
from repro.api.report import SolveReport
from repro.api.request import SolverConfig

T = TypeVar("T")


def solve(
    instance: CoflowInstance,
    algorithm: str = "lp-heuristic",
    *,
    config: Optional[SolverConfig] = None,
    lp_solution: Optional[CoflowLPSolution] = None,
    **overrides: object,
) -> SolveReport:
    """Solve *instance* with a registered *algorithm*.

    Parameters
    ----------
    instance:
        The coflow scheduling instance.
    algorithm:
        A name from :func:`repro.api.available_algorithms`.
    config:
        Solver configuration; defaults to :class:`SolverConfig()`.
    lp_solution:
        A previously solved time-indexed LP solution for *instance*,
        reused by algorithms with the ``uses_shared_lp`` capability when it
        answers their config's request (and attached as the lower bound to
        LP-free baselines).
    overrides:
        Individual :class:`SolverConfig` fields overriding *config*, e.g.
        ``solve(inst, "stretch-best", num_samples=20, rng=7)``.
    """
    cfg = config if config is not None else SolverConfig()
    if overrides:
        cfg = cfg.replace(**overrides)
    info = get_algorithm(algorithm)
    info.check_supports(instance.model)
    start = time.perf_counter()
    report = info.solver(instance, cfg, lp_solution)
    report.algorithm = info.name
    # None is the "not measured" sentinel; a measured 0.0 (coarse clock) is a
    # real value and must survive.
    if report.solve_seconds is None:
        report.solve_seconds = time.perf_counter() - start
    return report


# --------------------------------------------------------------------------- #
# batch runner
# --------------------------------------------------------------------------- #
def _effective_start_method() -> str:
    """The start method worker processes *would* use, without resolving it.

    ``multiprocessing.get_start_method()`` irreversibly pins the global start
    method as a side effect (a later ``set_start_method()`` without
    ``force=True`` then raises), so merely *asking* must not resolve it.
    When the method is still unresolved, the platform default is inferred
    from ``get_all_start_methods()``, which lists the default first and does
    not touch the global context.
    """
    method = multiprocessing.get_start_method(allow_none=True)
    if method is not None:
        return method
    return multiprocessing.get_all_start_methods()[0]


def parallel_map(
    function: Callable[..., T],
    tasks: Sequence[tuple],
    *,
    parallel: Optional[int],
    algorithms: Iterable[str],
) -> Iterator[T]:
    """Yield ``function(*task)`` for every task, in task order.

    With *parallel* > 1 and more than one task, the tasks run on one pool of
    worker processes (so *function* and the tasks must pickle); otherwise
    in-process, as the consumer asks for them.  The pool runs at most
    *parallel* tasks ahead of the consumer: the next task is submitted only
    once the oldest result has been taken.  So a consumer that checkpoints
    each result loses at most *parallel* of them when it is interrupted,
    and one that stops early waits only for the tasks in flight.  The price
    is that a slow task idles the other workers until it returns.

    Workers rebuild the registry by re-importing the built-in module, so
    user-registered *algorithms* survive only in forked children; otherwise
    the tasks run in-process, with a ``RuntimeWarning``.  The warning names
    the caller of the function that iterates this generator, so iterate it
    in that function's own frame.
    """
    workers = min(parallel or 1, len(tasks))
    custom = [name for name in algorithms if name not in BUILTIN_ALGORITHMS]
    if workers > 1 and custom and _effective_start_method() != "fork":
        warnings.warn(
            f"custom algorithms {custom} are not importable in "
            f"{_effective_start_method()!r}-started worker processes; "
            "running serially",
            RuntimeWarning,
            stacklevel=3,
        )
        workers = 1
    if workers <= 1:
        for task in tasks:
            yield function(*task)
        return
    executor = ProcessPoolExecutor(max_workers=workers)
    try:
        window: Deque[Future] = deque()
        for task in tasks:
            if len(window) == workers:
                yield window.popleft().result()
            window.append(executor.submit(function, *task))
        while window:
            yield window.popleft().result()
    finally:
        executor.shutdown()


def _solve_instance_batch(
    instance: CoflowInstance, algorithms: Tuple[str, ...], config: SolverConfig
) -> List[SolveReport]:
    """Worker: run every algorithm on one instance, sharing one LP solve."""
    infos = [get_algorithm(name) for name in algorithms]
    shared: Optional[CoflowLPSolution] = None
    if any(info.uses_shared_lp for info in infos):
        shared = lp_solution_for(instance, **config.lp_kwargs())
    return [
        solve(instance, info.name, config=config, lp_solution=shared)
        for info in infos
    ]


def solve_many(
    instances: Iterable[CoflowInstance],
    algorithms: Union[str, Sequence[str]],
    *,
    config: Optional[SolverConfig] = None,
    parallel: Optional[int] = None,
) -> List[SolveReport]:
    """Solve every instance with every algorithm; return reports instance-major.

    The result list holds ``len(instances) * len(algorithms)`` reports,
    ordered by instance first and algorithm second (matching the input
    orders), regardless of how the work was scheduled.

    Parameters
    ----------
    instances:
        The batch of instances.
    algorithms:
        One algorithm name or a sequence of names; all are validated against
        the registry (and each instance's transmission model) up front, so a
        typo fails fast instead of deep inside a worker process.
    config:
        One :class:`SolverConfig` applied to every request.  Its random
        source is split into per-instance child generators, so results are
        identical whether the batch runs serially or in parallel.
    parallel:
        Number of worker processes; ``None`` or ``1`` runs in-process.
    """
    names: Tuple[str, ...] = (
        (algorithms,) if isinstance(algorithms, str) else tuple(algorithms)
    )
    if not names:
        raise ValueError("algorithms must name at least one registered algorithm")
    infos = [get_algorithm(name) for name in names]
    batch = list(instances)
    for instance in batch:
        for info in infos:
            info.check_supports(instance.model)

    cfg = config if config is not None else SolverConfig()
    rngs = cfg.spawn_rngs(len(batch))
    tasks = [
        (instance, names, cfg.replace(rng=rng))
        for instance, rng in zip(batch, rngs)
    ]
    reports: List[SolveReport] = []
    for group in parallel_map(
        _solve_instance_batch, tasks, parallel=parallel, algorithms=names
    ):
        reports.extend(group)
    return reports

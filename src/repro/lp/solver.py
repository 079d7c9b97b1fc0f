"""Program-level LP solving: caching, error policy, result shaping.

The paper used Gurobi; HiGHS (bundled with scipy) solves the exact same LPs
to optimality, just more slowly.  :func:`solve_lp` reduces a program to an
:class:`~repro.lp.backends.base.LPSpec` and solves it once, cold, through
:func:`~repro.lp.backends.linprog.solve_spec`; this module owns caching and
the ``require_optimal`` contract, never a solver engine.

Solution reuse
--------------
scipy's ``linprog`` interface exposes neither basis injection nor a primal
starting point for HiGHS, so reuse here is **exact solution reuse**.  A
:class:`LPSolveCache` fingerprints every solved program (objective,
constraint matrices, bounds, method) and returns the cached optimal solution
when an identical program is solved again — which happens constantly in the
batch runner (the shared uniform-grid LP requested by several algorithms),
in the λ-sampling evaluation (every draw reuses one LP), and in repeated
sweep units.  The only warm-started solves in the repository are the
simulator's delta re-solves on resident
:class:`~repro.lp.backends.highs.PersistentHighsLP` models.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, Optional

import numpy as np

from repro.lp.backends.base import DEFAULT_METHOD, LPSpec
from repro.lp.backends.linprog import solve_spec
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult


class LPSolverError(RuntimeError):
    """Raised when an LP cannot be solved to optimality and the caller required it."""


def _fingerprint(parts: Iterator[bytes]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _program_key(spec: LPSpec, method: str) -> str:
    """Stable fingerprint of an assembled program + solver method."""

    def parts() -> Iterator[bytes]:
        yield method.encode()
        yield spec.c.tobytes()
        yield spec.col_lower.tobytes()
        yield spec.col_upper.tobytes()
        for matrix, rhs, tag in (
            (spec.a_ub, spec.b_ub, b"ub"),
            (spec.a_eq, spec.b_eq, b"eq"),
        ):
            yield tag
            if matrix is None:
                continue
            yield np.asarray(matrix.shape, dtype=np.int64).tobytes()
            yield matrix.indptr.tobytes()
            yield matrix.indices.tobytes()
            yield matrix.data.tobytes()
            yield rhs.tobytes()

    return _fingerprint(parts())


class LPSolveCache:
    """LRU cache of solved programs, keyed by exact program fingerprint.

    It stores finished :class:`LPResult` objects.  Only **optimal** results
    are admitted — caching a failure would replay a transient solver hiccup
    as a permanent one for the rest of the process.

    Cached entries are returned as shallow copies with a fresh ``metadata``
    dict (tagged ``warm_start: "reused"``), so callers may annotate results
    without corrupting the cache.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, LPResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Optional[LPResult]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        # Fresh copies of the mutable fields: a caller mutating the returned
        # solution (or its metadata) must not corrupt later cache hits.
        return replace(
            entry,
            x=entry.x.copy(),
            metadata={**entry.metadata, "warm_start": "reused"},
        )

    def store(self, key: str, result: LPResult) -> None:
        if not result.is_optimal:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


#: Process-wide cache installed by :func:`solver_cache`; ``None`` disables
#: implicit reuse (every solve_lp call without an explicit cache hits HiGHS).
_ACTIVE_CACHE: Optional[LPSolveCache] = None


@contextmanager
def solver_cache(cache: Optional[LPSolveCache] = None):
    """Install an :class:`LPSolveCache` for every solve inside the block.

    Nested blocks stack (the innermost cache wins); the previous cache is
    restored on exit.  Yields the active cache so callers can read its
    hit/miss statistics afterwards.
    """
    global _ACTIVE_CACHE
    active = cache if cache is not None else LPSolveCache()
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = active
    try:
        yield active
    finally:
        _ACTIVE_CACHE = previous


def active_solver_cache() -> Optional[LPSolveCache]:
    """The cache currently installed by :func:`solver_cache`, if any."""
    return _ACTIVE_CACHE


def solve_lp(
    program: LinearProgram,
    *,
    method: str = DEFAULT_METHOD,
    require_optimal: bool = False,
    cache: Optional[LPSolveCache] = None,
) -> LPResult:
    """Solve *program* and return an :class:`~repro.lp.result.LPResult`.

    Parameters
    ----------
    program:
        The assembled linear program.
    method:
        Any method accepted by :func:`scipy.optimize.linprog`; defaults to
        HiGHS.
    require_optimal:
        When true, raise :class:`LPSolverError` unless the status is optimal.
    cache:
        Solution-reuse cache; defaults to the cache installed by
        :func:`solver_cache` (or no caching when none is installed).
        Non-optimal results are never cached (a transient failure must not
        become permanent).
    """
    spec = LPSpec.from_program(program)
    active = cache if cache is not None else _ACTIVE_CACHE
    key = None if active is None else _program_key(spec, method)
    result = None if active is None else active.lookup(key)
    if result is None:
        result = solve_spec(spec, method=method)
        result.metadata = program.size_summary()
        if active is not None:
            active.store(key, result)

    if require_optimal and not result.is_optimal:
        raise LPSolverError(
            f"LP {program.name!r} failed to solve: {result.status.value} "
            f"({result.message})"
        )
    return result

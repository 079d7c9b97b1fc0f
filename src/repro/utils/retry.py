"""The failure-discipline layer: bounded retries with deterministic backoff.

PR 3's verification harness established *which* exceptions count as a
solver failure (the :data:`SOLVER_FAILURES` tuple — the failure modes an
LP backend or baseline can plausibly raise, deliberately not a broad
``except Exception``).  This module makes that tuple the canonical,
shared definition and adds the *policy* for surviving transient members
of it: a :class:`Backoff` schedule with **seeded jitter** — the jitter is
derived statelessly via :func:`repro.utils.rng.derive_seed` from the
policy's seed and the caller's retry path, never from raw entropy, so a
retried run sleeps the same amounts in any process (R001-clean).

This module is also the library's **only sanctioned sleep site** (lint
rule R009): ad-hoc ``time.sleep`` calls and hand-rolled retry loops
elsewhere in ``src/`` are findings.  Anything that needs to pause goes
through :meth:`Backoff.sleep`, so every delay in the library is bounded,
enumerable and deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar, Union

from repro.utils.rng import derive_rng

T = TypeVar("T")

#: What counts as an algorithm/LP *failure* during scenario or sweep
#: execution: the failure modes a solver or baseline can plausibly raise.
#: Callers record or retry these instead of aborting the whole run.
#: Deliberately a tuple, not a broad ``except Exception`` — a
#: ``KeyboardInterrupt``, assertion failure or typo-level ``NameError``
#: must still abort.  (Canonical home of the tuple PR 3 introduced in
#: ``scenarios/verify.py``, which now re-exports it.)
SOLVER_FAILURES: Tuple[Type[BaseException], ...] = (
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    ArithmeticError,
    RuntimeError,
    NotImplementedError,
    MemoryError,
    OSError,
)


@dataclass(frozen=True)
class Backoff:
    """A deterministic truncated-exponential backoff schedule.

    ``delay(attempt)`` grows as ``base * factor**attempt`` capped at
    ``max_delay``; a symmetric ``jitter`` fraction is applied on top, drawn
    from a stream derived statelessly from ``(seed, "backoff", *path,
    attempt)`` — the same attempt of the same retry path always sleeps the
    same amount, in any process (no raw entropy, lint rule R001).

    Attributes
    ----------
    retries:
        Additional attempts after the first (``retries=2`` → at most three
        calls).  ``0`` disables retrying.
    base:
        First retry delay in seconds (``0.0`` → no sleeping, useful in
        tests).
    factor:
        Exponential growth factor between attempts.
    max_delay:
        Upper bound on any single delay, pre-jitter.
    jitter:
        Relative jitter amplitude in ``[0, 1)``: the delay is scaled by a
        factor uniform in ``[1 - jitter, 1 + jitter]``.
    seed:
        Root seed of the jitter stream.
    """

    retries: int = 2
    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base < 0 or self.max_delay < 0:
            raise ValueError("base and max_delay must be non-negative")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, *path: Union[str, int]) -> float:
        """Seconds to wait after failed *attempt* (0-based), jittered.

        The jitter stream is addressed by ``(seed, "backoff", *path,
        attempt)`` so two units retrying concurrently (different *path*)
        de-synchronize, while the same unit re-run sleeps identically.
        """
        raw = min(self.base * self.factor**attempt, self.max_delay)
        if raw <= 0.0:
            return 0.0
        if self.jitter <= 0.0:
            return raw
        u = float(derive_rng(self.seed, "backoff", *path, attempt).random())
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))

    def sleep(self, attempt: int, *path: Union[str, int]) -> float:
        """Sleep for :meth:`delay` seconds and return the amount slept.

        The library's single sanctioned ``time.sleep`` call site (lint
        rule R009), so every pause is bounded and derived from a declared
        policy.
        """
        seconds = self.delay(attempt, *path)
        if seconds > 0.0:
            time.sleep(seconds)
        return seconds


def retry_call(
    fn: Callable[[int], T],
    *,
    exceptions: Tuple[Type[BaseException], ...] = SOLVER_FAILURES,
    backoff: Optional[Backoff] = None,
    path: Tuple[Union[str, int], ...] = (),
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
) -> T:
    """Call ``fn(attempt)`` with bounded, deterministically-jittered retries.

    Parameters
    ----------
    fn:
        The operation; receives the 0-based attempt index so callers can
        make behavior attempt-dependent.
    exceptions:
        Exception types considered transient (default
        :data:`SOLVER_FAILURES`).  Anything else propagates immediately.
    backoff:
        Retry schedule (default ``Backoff()``).  ``retries=0`` means a
        single attempt.
    path:
        Address of this retry site in the jitter stream (e.g. the unit's
        store key), so concurrent retries de-synchronize deterministically.
    on_retry:
        Optional observer called with ``(attempt, exception)`` before each
        sleep — used by the sweep to log retried units.

    Returns
    -------
    The first successful result; re-raises the last exception once
    ``backoff.retries`` is exhausted (the caller decides whether that is a
    poison unit to quarantine or a crash to surface).
    """
    policy = backoff if backoff is not None else Backoff()
    attempt = 0
    while True:
        try:
            return fn(attempt)
        except exceptions as exc:
            if attempt >= policy.retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            policy.sleep(attempt, *path)
            attempt += 1

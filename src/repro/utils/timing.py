"""Lightweight wall-clock instrumentation.

The experiment harness reports LP build and solve times (the paper's
Section 6.1 discusses the LP-size / solution-quality trade-off), so the
library carries a tiny, dependency-free stopwatch rather than pulling in a
profiling framework.

This module is also the library's **only sanctioned wall-clock site**
(lint rule R002): report writers stamp their artifacts through
:func:`report_stamp` / :func:`file_stamp` instead of calling
``datetime.now()`` themselves, so results never depend on the clock
anywhere an algorithm could observe it.  Durations measured with
``time.perf_counter`` (the stopwatch below) are monotonic measurement
metadata, not wall-clock, and are fine anywhere.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Dict, Iterator, TypeVar

T = TypeVar("T")


def report_stamp() -> str:
    """The current wall-clock time as an ISO stamp (``2026-08-07T12:34:56``).

    The single place the library reads the wall clock for *content* — the
    ``created`` field of VERIFY / LINT reports, sweep summaries and store
    envelopes.
    Everything else must treat time as an input (release times, seeds) or a
    measurement (``perf_counter`` durations), never as hidden state.
    """
    return datetime.now().isoformat(timespec="seconds")


def file_stamp() -> str:
    """A filename-safe rendering of :func:`report_stamp` (``20260807-123456``).

    Used for the ``VERIFY_<stamp>.json`` / ``LINT_<stamp>.json``
    report-family filenames and the store's quarantine names.  Derived from
    :func:`report_stamp` so there is exactly one wall-clock read path.
    """
    return report_stamp().replace("-", "").replace(":", "").replace("T", "-")


@dataclass
class Stopwatch:
    """Accumulates named wall-clock durations.

    Example
    -------
    >>> watch = Stopwatch()
    >>> with watch.measure("solve"):
    ...     _ = sum(range(1000))
    >>> watch.total("solve") >= 0.0
    True
    """

    durations: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager that adds the elapsed time to bucket *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.durations[name] = self.durations.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        """Total seconds accumulated under *name* (0.0 if never measured)."""
        return self.durations.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of times *name* was measured."""
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, float]:
        """Copy of the accumulated durations."""
        return dict(self.durations)

    def merge(self, other: "Stopwatch") -> None:
        """Fold another stopwatch's buckets into this one."""
        for name, duration in other.durations.items():
            self.durations[name] = self.durations.get(name, 0.0) + duration
        for name, count in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + count


def timed(fn: Callable[..., T]) -> Callable[..., tuple[T, float]]:
    """Wrap *fn* so it returns ``(result, elapsed_seconds)``."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    wrapper.__name__ = getattr(fn, "__name__", "timed")
    wrapper.__doc__ = fn.__doc__
    return wrapper

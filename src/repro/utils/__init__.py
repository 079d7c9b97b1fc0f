"""Shared utilities for the coflow-scheduling reproduction.

This package holds small, dependency-free helpers used throughout the
library: seeded random-number management (:mod:`repro.utils.rng`),
wall-clock timing and report stamping (:mod:`repro.utils.timing`), atomic
file writing (:mod:`repro.utils.io`), bounded deterministic retrying
(:mod:`repro.utils.retry`), and argument validation
(:mod:`repro.utils.validation`).
"""

from repro.utils.io import (
    atomic_write_json,
    atomic_write_text,
    atomic_writer,
    exclusive_write_json,
    normalize_json,
)
from repro.utils.retry import SOLVER_FAILURES, Backoff, retry_call
from repro.utils.rng import RandomSource, derive_rng, derive_seed, spawn_rng
from repro.utils.timing import Stopwatch, file_stamp, report_stamp, timed
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)

__all__ = [
    "RandomSource",
    "derive_rng",
    "derive_seed",
    "spawn_rng",
    "Stopwatch",
    "timed",
    "report_stamp",
    "file_stamp",
    "atomic_writer",
    "atomic_write_text",
    "atomic_write_json",
    "exclusive_write_json",
    "normalize_json",
    "Backoff",
    "SOLVER_FAILURES",
    "retry_call",
    "check_finite",
    "check_in_range",
    "check_nonnegative",
    "check_positive",
    "check_probability",
]

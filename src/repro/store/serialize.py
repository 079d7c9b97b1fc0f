"""The serialized *surface* of a :class:`~repro.api.report.SolveReport`.

The store does not persist the full in-memory report: LP solutions and slot
schedules are large, numpy-shaped and cheap to regenerate when actually
needed, while the sweep reads only the report surface — objective,
completion times, bound, timing, the feasibility verdict and JSON-safe
extras.  Of ``schedule`` and ``lp_solution`` the surface keeps only
whether the report had one.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from repro.api.report import SolveReport

#: Version of the serialized report surface, stored in every entry.  A
#: surface change also bumps the store's ``FINGERPRINT_SCHEMA``, so an entry
#: of another version is never looked up.
REPORT_SCHEMA = 1


def _json_safe(value: object) -> bool:
    """Whether *value* serializes to JSON without custom encoding."""
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


def _clean_extras(extras: Dict[str, object]) -> Dict[str, object]:
    """JSON-serializable subset of *extras* (numpy scalars coerced).

    Non-serializable values (evaluation objects, schedules, ...) are
    dropped; their keys are recorded under ``"_dropped"`` so a reader can
    tell that information was elided rather than absent.
    """
    cleaned: Dict[str, object] = {}
    dropped: List[str] = []
    for key, value in extras.items():
        if isinstance(value, (np.integer, np.floating, np.bool_)):
            value = value.item()
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        if _json_safe(value):
            cleaned[key] = value
        else:
            dropped.append(key)
    if dropped:
        cleaned["_dropped"] = sorted(dropped)
    return cleaned


def report_to_dict(report: SolveReport) -> Dict:
    """The JSON-ready surface of *report* (see the module docstring)."""
    return {
        "report_schema": REPORT_SCHEMA,
        "algorithm": report.algorithm,
        "instance_name": report.instance.name,
        "num_coflows": int(report.instance.num_coflows),
        "num_flows": int(report.instance.num_flows),
        "model": report.instance.model.value,
        "objective": float(report.objective),
        "coflow_completion_times": [
            float(t) for t in report.coflow_completion_times
        ],
        "lower_bound": (
            None if report.lower_bound is None else float(report.lower_bound)
        ),
        "solve_seconds": (
            None if report.solve_seconds is None else float(report.solve_seconds)
        ),
        "feasible": bool(report.is_feasible),
        "had_schedule": report.schedule is not None,
        "had_lp_solution": report.lp_solution is not None,
        "extras": _clean_extras(report.extras),
    }


#: Fields that record *how the run went*, not *what the result is* — they
#: legitimately differ between an interrupted-and-resumed run and an
#: uninterrupted one and are excluded from result-identity comparison.
MEASUREMENT_FIELDS = ("solve_seconds",)


def canonical_payload_bytes(payload: Dict, *, ignore_timing: bool = True) -> bytes:
    """Deterministic byte rendering of a payload (sorted keys, no spaces).

    What the resume tests compare: two result sets are *byte-identical*
    exactly when every entry's canonical payload bytes match.  By default
    the wall-clock :data:`MEASUREMENT_FIELDS` are dropped first — timing is
    measurement metadata, not result content.
    """
    if ignore_timing:
        payload = {
            key: value
            for key, value in payload.items()
            if key not in MEASUREMENT_FIELDS
        }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )

"""repro.store — persistent, content-addressed result store.

The durable-computation layer under the sweep orchestrator
(:mod:`repro.experiments.sweep`), its one consumer: every solved
``(instance, algorithm, config)`` triple is keyed by a stable BLAKE2b
fingerprint (the keying discipline of :func:`repro.utils.rng.derive_seed`)
and written atomically to disk, so

* an interrupted run resumes to a byte-identical result set — completed
  work is never recomputed, pending work recomputes to the same bytes; and
* a completed run re-executed against the same store performs **zero** new
  LP solves (every unit is a store hit).

Components
----------
* :mod:`~repro.store.fingerprint` — stable keys
  (:func:`instance_fingerprint`, :func:`config_fingerprint`,
  :func:`result_key`).
* :mod:`~repro.store.serialize` — the JSON report surface
  (:func:`report_to_dict`).
* :mod:`~repro.store.store` — :class:`ResultStore`: atomic writes,
  corruption quarantine, failure records, hit/miss accounting.
"""

from repro.store.fingerprint import (
    FINGERPRINT_SCHEMA,
    FingerprintError,
    canonical_json,
    config_fingerprint,
    grid_fingerprint,
    instance_fingerprint,
    result_key,
)
from repro.store.serialize import (
    MEASUREMENT_FIELDS,
    REPORT_SCHEMA,
    canonical_payload_bytes,
    report_to_dict,
)
from repro.store.store import STORE_SCHEMA, ResultStore

__all__ = [
    "FINGERPRINT_SCHEMA",
    "FingerprintError",
    "MEASUREMENT_FIELDS",
    "REPORT_SCHEMA",
    "STORE_SCHEMA",
    "ResultStore",
    "canonical_json",
    "canonical_payload_bytes",
    "config_fingerprint",
    "grid_fingerprint",
    "instance_fingerprint",
    "report_to_dict",
    "result_key",
]

"""Stable content fingerprints for the result store.

Every cached result is addressed by a BLAKE2b fingerprint of
``(CoflowInstance, algorithm, SolverConfig)`` — the same keying discipline
as :func:`repro.utils.rng.derive_seed` (stateless, length-prefixed
components, endianness- and process-independent) and the LP program
fingerprint of :mod:`repro.lp.solver`.  The guarantees:

* the same logical inputs always produce the same key, in any process, on
  any platform — a store written by a sweep shard on one worker is readable
  by every other worker and by every later resume;
* any change to an input that can change the result changes the key.

What is *excluded* from the instance fingerprint is the instance ``name``:
two structurally identical instances that differ only in their label solve
identically, so they share one cache entry.

Randomness
----------
A :class:`~repro.api.request.SolverConfig` whose ``rng`` is a live
``numpy.random.Generator`` (or ``SeedSequence``) has no stable textual
identity — its future draws depend on hidden mutable state.  Such configs
raise :class:`FingerprintError`; callers that want caching must pin an
integer seed (or ``None``, which the cache layer refuses separately for
randomized algorithms — see :func:`repro.store.cache.cached_solve`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional

from repro.api.request import SolverConfig
from repro.coflow.instance import CoflowInstance
from repro.schedule.timegrid import TimeGrid

#: Bump when the fingerprint scheme (or the serialized report surface it
#: addresses) changes incompatibly; old entries then simply miss.  Schema 2
#: covers every LP argument of the config.
#: Schema 3 marks the prefix-sum form of the time-indexed LP's Eq. 2: its
#: optimum is unchanged, but a degenerate LP may now return a different
#: optimal vertex, so LP-heuristic and Stretch results can move.
#: Schema 4: the config fingerprint no longer carries the removed staged-solve
#: and solver-backend selectors.
#: Schema 5 marks the certified horizon of the default uniform-grid LP: its
#: optimum is unchanged, but the shorter LP can return a different optimal
#: vertex, so LP-heuristic and Stretch results on default grids can move.
#: Schema 6 marks the free path LP's one commodity per source node: its
#: optimum is unchanged, but it can return a different optimal vertex and
#: routes edge fractions by path decomposition, so free path LP-heuristic
#: and Stretch results can move.
#: Schema 7 marks the simulator's shared HiGHS engine: every max-concurrent-
#: flow LP restarts from its template's kept basis instead of a resident
#: model, so alpha is unchanged but another optimal routing vertex can come
#: back, and free path simulator baselines can move.
FINGERPRINT_SCHEMA = 7


class FingerprintError(ValueError):
    """Raised when an input has no stable fingerprint (e.g. a live RNG)."""


def _digest(parts: Iterable[bytes]) -> str:
    """Length-prefixed BLAKE2b over *parts* (unambiguous concatenation)."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(str(len(part)).encode("ascii") + b":" + part)
    return digest.hexdigest()


def canonical_json(payload: object) -> str:
    """The canonical JSON text of *payload*: sorted keys, no whitespace.

    Every fingerprint in the repository hashes this exact form; callers
    that need a stable textual identity (e.g. sweep ids) must use it too,
    so two serializations of the same document can never diverge.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def instance_fingerprint(instance: CoflowInstance) -> str:
    """Stable hex fingerprint of an instance's solver-visible content.

    Covers the transmission model, the graph (nodes, edges, capacities) and
    every coflow (weights, release times, flows with demands and pinned
    paths) via the canonical JSON serialization — everything an algorithm
    can observe.  The human-facing ``name`` is excluded so renamed copies
    share cache entries.
    """
    payload = instance.to_dict()
    payload.pop("name", None)
    payload["graph"].pop("name", None)
    return _digest([b"instance", canonical_json(payload).encode("utf-8")])


def grid_fingerprint(grid: Optional[TimeGrid]) -> str:
    """Fingerprint of an explicit grid (``"none"`` when unset)."""
    if grid is None:
        return "none"
    return grid.boundary_digest()


def config_fingerprint(config: SolverConfig) -> str:
    """Stable hex fingerprint of every result-affecting config field.

    The LP part is :meth:`SolverConfig.lp_kwargs` itself, so every argument
    that selects the time-indexed LP is covered by construction.

    Raises
    ------
    FingerprintError
        If ``config.rng`` is a live generator / seed sequence (no stable
        identity).  Integer seeds and ``None`` are fingerprintable.
    """
    if config.rng is not None and not isinstance(config.rng, int):
        raise FingerprintError(
            "SolverConfig.rng must be None or an integer seed to be "
            f"fingerprinted, got {type(config.rng).__name__}; pass a seed "
            "so cached results are reproducible"
        )
    fields = {
        **config.lp_kwargs(),
        "grid": grid_fingerprint(config.grid),
        "rng": config.rng,
        "num_samples": config.num_samples,
        "compact": config.compact,
        "verify": config.verify,
    }
    return _digest([b"config", canonical_json(fields).encode("utf-8")])


def result_key(
    instance: CoflowInstance, algorithm: str, config: SolverConfig
) -> str:
    """The store address of ``solve(instance, algorithm, config=config)``."""
    return _digest(
        [
            b"repro-store",
            str(FINGERPRINT_SCHEMA).encode("ascii"),
            instance_fingerprint(instance).encode("ascii"),
            algorithm.encode("utf-8"),
            config_fingerprint(config).encode("ascii"),
        ]
    )


def text_key(*parts: str) -> str:
    """A store key for free-form addresses (scenario blocks, manifests).

    Components are length-prefixed like every other fingerprint here, so
    ``("ab", "c")`` and ``("a", "bc")`` address different entries.
    """
    return _digest(
        [b"repro-store-text", str(FINGERPRINT_SCHEMA).encode("ascii")]
        + [part.encode("utf-8") for part in parts]
    )

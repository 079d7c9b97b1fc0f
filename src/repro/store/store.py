"""On-disk, content-addressed result store.

Layout (all JSON, all human-inspectable)::

    <root>/
      store.json                   # store-level metadata (schema version)
      objects/<k0k1>/<key>.json    # content-addressed entries (fan-out dir)
      runs/failures/<key>.json     # terminal unit failures (quarantine)

Every object entry is an envelope ``{schema, key, kind, created, payload}``;
``payload`` is the caller's JSON document (e.g. the serialized
:class:`~repro.api.report.SolveReport` surface).  Writes are atomic (temp
file + ``os.replace`` in the same directory), so a killed sweep never leaves
a half-written entry: the entry either exists completely or not at all —
which is exactly what makes kill-and-resume safe.

Corrupted entries (truncated file, foreign JSON, wrong schema) are treated
as misses, counted, and quarantined by renaming to a unique
``<name>.corrupt-<stamp>-<pid>`` so the next write can recompute and
replace them cleanly — and so that no two quarantines ever clobber each
other's evidence.

Concurrent writers (two sweeps over one store, say) are first-write-wins:
:meth:`ResultStore.put` creates entries with an exclusive link so exactly
one of two racing writers lands; the loser is counted under ``races`` and
the stored bytes never flap.  Terminal unit failures are recorded under
``runs/failures/<key>.json`` so a poison unit is quarantined evidence, not
an invisible gap.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.utils.io import atomic_write_json, exclusive_write_json
from repro.utils.timing import file_stamp, report_stamp

#: Version of the on-disk envelope; entries with a different version are
#: misses (and are left untouched — a newer store format is not "corrupt").
STORE_SCHEMA = 1


class ResultStore:
    """A content-addressed JSON store with hit/miss/corruption accounting.

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).

    Notes
    -----
    Counters (``hits``/``misses``/``writes``/``corrupted``) accumulate per
    store *object*, not per directory — two stores opened on the same root
    count independently.  The sweep tests use them to assert "zero new
    solves on a warm re-run".
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupted = 0
        self.races = 0
        self._ensure_layout()

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    def _ensure_layout(self) -> None:
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        meta = self.root / "store.json"
        if not meta.exists():
            self._atomic_write(meta, {"schema": STORE_SCHEMA, "kind": "repro-store"})

    def object_path(self, key: str) -> Path:
        """Path of the entry addressed by *key* (two-hex-char fan-out)."""
        if len(key) < 3:
            raise ValueError(f"store keys must be hex digests, got {key!r}")
        return self.root / "objects" / key[:2] / f"{key}.json"

    @staticmethod
    def _atomic_write(path: Path, document: Dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, document, sort_keys=True)

    # ------------------------------------------------------------------ #
    # content-addressed objects
    # ------------------------------------------------------------------ #
    def contains(self, key: str) -> bool:
        """Whether a *valid* entry exists, without counting hit/miss.

        Validates the full envelope (readable JSON, matching key, supported
        schema) exactly like :meth:`get`, so a status probe can never call
        an entry "stored" that an actual run would treat as a miss.  Unlike
        :meth:`get` it neither touches the counters nor quarantines.
        """
        payload, _corrupt = self._load(key)
        return payload is not None

    def _load(self, key: str) -> tuple:
        """``(payload, corrupt)`` for *key*; counters and files untouched."""
        path = self.object_path(key)
        try:
            envelope = json.loads(path.read_text())
        except FileNotFoundError:
            return None, False
        except (OSError, json.JSONDecodeError):
            return None, True
        if (
            not isinstance(envelope, dict)
            or envelope.get("key") != key
            or "payload" not in envelope
        ):
            return None, True
        if envelope.get("schema") != STORE_SCHEMA:
            # A different (likely newer) format: miss, but not corruption.
            return None, False
        return envelope["payload"], False

    def get(self, key: str) -> Optional[Dict]:
        """The payload stored under *key*, or ``None`` (miss).

        A corrupted entry — unreadable, non-JSON, or not a store envelope —
        counts as a miss, increments ``corrupted`` and is quarantined by
        renaming to ``.corrupt`` so it is never consulted again.
        """
        payload, corrupt = self._load(key)
        if corrupt:
            self._quarantine(self.object_path(key))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict, *, kind: str = "result") -> bool:
        """Store *payload* under *key*; ``True`` iff this write landed first.

        Entries are created with an exclusive atomic link, so when two
        writers race on the same key exactly one creation succeeds.  The
        loser's payload is discarded (content addressing makes it
        equivalent — a redundant solve is a benign duplicate, never a
        divergent result), the stored bytes never flap, and the race is
        counted under ``races`` so sweep accounting stays honest about
        duplicated work.  A corrupt or foreign-schema entry occupying the
        slot is quarantined/overwritten rather than treated as a winner.
        """
        path = self.object_path(key)
        envelope = {
            "schema": STORE_SCHEMA,
            "key": key,
            "kind": kind,
            "created": report_stamp(),
            "payload": payload,
        }
        if exclusive_write_json(path, envelope):
            self.writes += 1
            return True
        existing, corrupt = self._load(key)
        if existing is not None:
            # A valid entry beat us to the slot: first write wins.
            self.races += 1
            return False
        if corrupt:
            self._quarantine(path)
        # Corrupt or foreign-schema occupant: replace it outright (the
        # foreign entry was a miss anyway; ours is authoritative here).
        self._atomic_write(path, envelope)
        self.writes += 1
        return True

    def _quarantine(self, path: Path) -> None:
        """Move *path* aside under a unique ``.corrupt-*`` name.

        The suffix embeds a wall stamp and the pid (plus a counter for
        same-second repeats), so two quarantines — of the same key over
        time, or of keys whose object paths would collide after a naive
        ``with_suffix(".corrupt")`` — never silently overwrite each
        other's evidence.  :meth:`quarantined` lists what accumulated.
        """
        self.corrupted += 1
        base = f".corrupt-{file_stamp()}-{os.getpid()}"
        target = path.with_suffix(base)
        counter = 0
        while target.exists():
            counter += 1
            target = path.with_suffix(f"{base}-{counter}")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - already gone / unwritable
            pass

    def quarantined(self) -> List[Path]:
        """Every quarantined object file (sorted) — corruption evidence."""
        return sorted(
            p
            for p in (self.root / "objects").glob("*/*")
            if p.is_file() and ".corrupt" in p.suffix
        )

    def keys(self) -> List[str]:
        """All object keys currently stored (sorted)."""
        return sorted(
            p.stem for p in (self.root / "objects").glob("*/*.json")
        )

    # ------------------------------------------------------------------ #
    # failure records (poison-unit quarantine)
    # ------------------------------------------------------------------ #
    def failure_path(self, key: str) -> Path:
        """Path of the failure record for the unit addressed by *key*."""
        if len(key) < 3:
            raise ValueError(f"store keys must be hex digests, got {key!r}")
        return self.root / "runs" / "failures" / f"{key}.json"

    def put_failure(self, key: str, record: Dict) -> Path:
        """Atomically record a terminal unit failure under *key*.

        One record per unit (latest failure wins): the sweep treats a
        recorded failure as *quarantined* — a ``failed`` unit in its
        summary and in ``repro sweep --status`` — so one pathological LP
        can never wedge a whole sweep.  A later successful solve clears it
        via :meth:`clear_failure`.
        """
        path = self.failure_path(key)
        self._atomic_write(path, record)
        return path

    def get_failure(self, key: str) -> Optional[Dict]:
        """The failure record for *key*, or ``None`` (absent / unreadable)."""
        try:
            return json.loads(self.failure_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def clear_failure(self, key: str) -> None:
        """Drop the failure record for *key* (no-op when absent)."""
        try:
            os.unlink(self.failure_path(key))
        except OSError:
            pass

    def failure_keys(self) -> List[str]:
        """Keys of every unit with a recorded terminal failure (sorted)."""
        directory = self.root / "runs" / "failures"
        if not directory.is_dir():
            return []
        return sorted(p.stem for p in directory.glob("*.json"))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self.keys()),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "races": self.races,
            "corrupted": self.corrupted,
            "quarantined": len(self.quarantined()),
            "failures": len(self.failure_keys()),
        }

    def reset_counters(self) -> None:
        """Zero the hit/miss/write/race/corruption counters (entries untouched)."""
        self.hits = self.misses = self.writes = self.corrupted = self.races = 0

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r}, {self.stats()})"

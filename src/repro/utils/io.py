"""Atomic file writing — the single sanctioned output path.

PR 4's result store established the repository's write discipline: every
output file is produced by writing a temp file *in the destination
directory* and ``os.replace``-ing it over the target, so a killed process
never leaves a half-written file — the file either exists completely or not
at all.  That property is what makes kill-and-resume (sweeps, verify
checkpoints) safe.

This module extracts that logic so *every* writer in the library (result
store, experiment exports, trace/instance serialization, verify / lint
reports) shares one implementation.  ``repro lint`` rule R004 enforces
the discipline mechanically: direct ``open(..., "w")`` / ``write_text``
calls and the raw write primitives (``mkstemp``, ``os.link``,
``shutil.copy*``) anywhere else in ``src/`` are findings.

JSON payloads additionally pass through :func:`normalize_json`, which
converts numpy scalars and arrays to plain Python values — the library's
"plain JSON at the boundary" rule (lint rule R005): a numpy ``float64``
must never decide how a stored document is rendered.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Mapping, Optional

import numpy as np


def normalize_json(value: object) -> object:
    """Recursively convert *value* into plain JSON-serializable Python.

    numpy scalars become ``int``/``float``/``bool``, numpy arrays become
    (nested) lists, tuples become lists, and mapping keys are coerced to
    ``str`` only when they are numpy scalars (plain non-string keys are left
    for ``json.dump`` to handle).  Anything already JSON-native is returned
    unchanged, so normalizing a normalized document is the identity.
    """
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [normalize_json(item) for item in value.tolist()]
    if isinstance(value, Mapping):
        return {
            (
                normalize_json(key)
                if isinstance(key, (np.integer, np.floating, np.bool_))
                else key
            ): normalize_json(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [normalize_json(item) for item in value]
    return value


@contextmanager
def atomic_writer(
    path: str | Path, *, newline: Optional[str] = None
) -> Iterator[IO[str]]:
    """Context manager yielding a text handle that lands atomically.

    The handle writes to a temp file in ``path``'s directory; on clean exit
    the temp file replaces *path* in one ``os.replace`` step (atomic on
    POSIX within a filesystem).  On any exception the temp file is removed
    and *path* is untouched.

    Example
    -------
    >>> import tempfile, pathlib
    >>> target = pathlib.Path(tempfile.mkdtemp()) / "out.txt"
    >>> with atomic_writer(target) as handle:
    ...     _ = handle.write("complete or absent")
    >>> target.read_text()
    'complete or absent'
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:  # clean up the temp file on *any* interruption
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def scratch_path(*, suffix: str = "", prefix: str = "repro-") -> Iterator[Path]:
    """A throwaway temp-file path, removed on exit no matter what.

    The save→load round-trip helpers (e.g. the trace-replay scenario
    family) need a real filesystem path to exercise serialization; this is
    the sanctioned way to get one.  Keeping the ``tempfile`` primitive here
    rather than at the call sites preserves lint rule R004's invariant:
    raw write primitives appear only inside ``utils/io.py``.
    """
    fd, tmp = tempfile.mkstemp(suffix=suffix, prefix=prefix)
    os.close(fd)
    try:
        yield Path(tmp)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically write *text* to *path* (temp file + rename)."""
    path = Path(path)
    with atomic_writer(path) as handle:
        handle.write(text)
    return path


def exclusive_write_json(path: str | Path, payload: object) -> bool:
    """Atomically create *path* with *payload* iff it does not already exist.

    The first-write-wins create under :meth:`repro.store.ResultStore.put`:
    the payload is written completely to a temp file in the destination
    directory, then ``os.link``-ed to *path* — link fails with
    ``FileExistsError`` if another writer created it first, so exactly one
    writer lands and the file is never observable half-written.

    Returns ``True`` if this call created the file, ``False`` if it
    already existed (another write landed first).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(normalize_json(payload), handle, indent=2)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        return True
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def atomic_write_json(
    path: str | Path,
    payload: object,
    *,
    indent: Optional[int] = 2,
    sort_keys: bool = False,
) -> Path:
    """Atomically write *payload* as JSON, numpy-normalized first.

    The payload is passed through :func:`normalize_json`, so numpy scalars
    and arrays never reach the encoder — every document this function writes
    is plain JSON that any reader can load without custom hooks.
    """
    path = Path(path)
    document = normalize_json(payload)
    with atomic_writer(path) as handle:
        json.dump(document, handle, indent=indent, sort_keys=sort_keys)
    return path

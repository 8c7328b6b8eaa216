"""Crash-safe file writes: temp file + ``os.replace`` + fsync.

Every JSON artifact this repository produces (bench payloads, trace
exports, run metric dumps) and the trial archives are consumed by later
tooling — a truncated file from an interrupted run is worse than no file,
because it parses as corruption instead of absence.  The helpers here make
every write atomic at the filesystem level:

1. the payload is written to a temporary file *in the target directory*
   (same filesystem, so the final rename cannot degrade to a copy),
2. the temp file is flushed and ``fsync``-ed, so the bytes are durable
   before the name is,
3. ``os.replace`` atomically installs it under the final name (POSIX
   rename semantics: readers see either the old complete file or the new
   complete file, never a prefix),
4. on POSIX the containing directory is ``fsync``-ed, so the rename
   itself is durable once the call returns.

On any failure the temp file is removed and the previous file — if one
existed — is untouched.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable

__all__ = [
    "fsync_directory",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_via",
]


def fsync_directory(path: str) -> None:
    """Make the entries of directory ``path`` (creates, renames) durable.

    POSIX only: elsewhere a directory cannot be opened for ``fsync`` and
    this does nothing.
    """
    if os.name != "posix":
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_via(path: str, write: Callable[[Any], None], mode: str = "w") -> None:
    """Run ``write(handle)`` against a temp file, then atomically install it.

    ``write`` receives an open file handle (text or binary per ``mode``);
    if it raises, the temp file is deleted and ``path`` is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, mode) as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Atomically write ``data`` to ``path``."""
    atomic_write_via(path, lambda handle: handle.write(data), mode="wb")


def atomic_write_text(path: str, text: str) -> None:
    """Atomically write ``text`` to ``path``."""
    atomic_write_via(path, lambda handle: handle.write(text))


def atomic_write_json(
    path: str, payload: Any, indent: int = 2, sort_keys: bool = True
) -> None:
    """Atomically write ``payload`` as JSON (trailing newline included).

    The payload is serialized *before* the temp file is created, so an
    unserializable object can never leave a partial artifact behind.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)

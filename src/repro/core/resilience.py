"""Fault tolerance: checksums, crash-safe run journal, checkpoint/resume.

The optimized schedule's value proposition is *exactness* — thousands of
reordered Monte-Carlo trials still produce bit-identical results.  This
module keeps that guarantee intact when things fail:

* :func:`payload_checksum` — CRC32 over the raw complex128 bytes of a
  statevector.  A spilled snapshot is checksummed when it is written and
  re-verified when it is reloaded, so silent corruption is detected
  instead of folded into the counts.
* :class:`RunJournal` — an append-only, group-committed journal of
  finish payloads at trial granularity.  Like the ``.npz`` trial archives
  (:mod:`repro.core.persistence`) the format is flat binary — never
  pickled — so a journal written by a crashed run is safe to load.  Each
  record reaches the OS as it is appended; ``fsync`` runs once per group
  of :data:`GROUP_RECORDS` records or :data:`GROUP_SECONDS`, and on
  close.  A record only counts once its commit marker and CRCs verify; a
  truncated tail (the crash frontier) is detected and discarded, never
  misparsed.
* :func:`run_journaled` — execute (or *resume*) a trial set against a
  journal: finishes already committed are replayed from disk in their
  original order, and only the remaining trials are executed — zero
  completed trials are recomputed.

Why resume is exact
-------------------
The journal records finishes in the plan's finish order, so the committed
records form an exact *prefix* of the serial finish stream.  The plan
builder orders trie children by event value — independent of trial
insertion order — so a fresh plan over the *remaining* trials finishes
them in the same relative order, with the same deduplication grouping, as
the original plan did.  Replayed prefix + recomputed suffix is therefore
byte-identical to the uninterrupted ``on_finish`` stream, and a seeded
measurement RNG downstream produces the same counts.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..sim.statevector import Statevector
from .cache import CacheStats, CorruptionError, payload_checksum
from .events import Trial
from .executor import ExecutionOutcome, FinishCallback
from .options import execute, validate
from .packed import pack_trial
from .schedule import check_trial_events

__all__ = [
    "payload_checksum",
    "CorruptionError",
    "JournalError",
    "GROUP_RECORDS",
    "GROUP_SECONDS",
    "journal_fingerprint",
    "RunJournal",
    "JournalReplay",
    "load_journal",
    "JournalSummary",
    "run_journaled",
]


class JournalError(ValueError):
    """A run journal is unreadable, inconsistent, or does not match its run."""


def journal_fingerprint(layered: LayeredCircuit, trials: Sequence[Trial]) -> int:
    """A CRC32 identity of (circuit shape, full trial set).

    A journal may only be resumed against the exact run that produced it:
    same circuit dimensions and the same trials in the same sampling order
    (global trial indices must mean the same thing).  The packed 5-byte
    event encoding plus the measurement-flip lists capture exactly that.
    """
    digest = zlib.crc32(
        struct.pack(
            "<IIIQ",
            layered.num_qubits,
            layered.num_layers,
            layered.num_gates,
            len(trials),
        )
    )
    for trial in trials:
        digest = zlib.crc32(pack_trial(trial), digest)
        flips = tuple(trial.meas_flips)
        digest = zlib.crc32(struct.pack(f"<I{len(flips)}q", len(flips), *flips), digest)
    return digest & 0xFFFFFFFF


# -- journal binary format ------------------------------------------------------
#
# header : magic "RPJL" | version u32 | num_qubits u32 | num_trials u64
#          | fingerprint u32 | header_crc u32
# record : seq u32 | num_indices u32 | payload_len u64 | indices_crc u32
#          | payload_crc u32 | indices (num_indices * u64) | payload bytes
#          | commit marker "RCMT"
#
# A record is committed iff its commit marker is present and both CRCs
# verify; everything after the first non-verifying byte is the crash
# frontier and is discarded on load (``truncated=True``).

_MAGIC = b"RPJL"
_COMMIT = b"RCMT"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQII")
_RECORD = struct.Struct("<IIQII")


#: A group of pending records is fsynced once it holds this many...
GROUP_RECORDS = 64
#: ...or once this many seconds have passed since its oldest record,
#: checked at each append.  Both were read from served-job replays
#: (docs/architecture.md §12, "Group commit").
GROUP_SECONDS = 0.05


class RunJournal:
    """Append-only journal writer with group-committed durability.

    Each :meth:`record` call appends one finish record and flushes it to
    the OS, so a killed process loses no record it wrote.  ``fsync`` runs
    when :data:`GROUP_RECORDS` records are pending or the oldest pending
    one is :data:`GROUP_SECONDS` old, and on :meth:`close`, so an OS
    crash loses at most the open group.  Either way a crash leaves
    committed records plus a detectably truncated tail, never a silently
    wrong one.
    """

    #: The clock that ages the open group (a test may hold it still).
    clock = staticmethod(time.monotonic)

    def __init__(
        self,
        path: str,
        num_qubits: int,
        num_trials: int,
        fingerprint: int,
        _resume_seq: Optional[int] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.num_qubits = num_qubits
        self.num_trials = num_trials
        self.fingerprint = fingerprint
        self.next_seq = 0
        # Records written since the last fsync, and when the first was.
        self._pending = 0
        self._group_start = 0.0
        if _resume_seq is None:
            self._file = open(self.path, "wb")
            header = _HEADER.pack(
                _MAGIC, _VERSION, num_qubits, num_trials, fingerprint, 0
            )
            crc = zlib.crc32(header[:-4]) & 0xFFFFFFFF
            self._file.write(header[:-4] + struct.pack("<I", crc))
            self._file.flush()
            self._sync()
        else:
            # Resuming: truncate the crash frontier (any partial tail
            # record), then append after the last committed record.
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
            self.next_seq = _resume_seq

    @classmethod
    def create(
        cls,
        path: str,
        layered: LayeredCircuit,
        trials: Sequence[Trial],
    ) -> "RunJournal":
        return cls(
            path,
            layered.num_qubits,
            len(trials),
            journal_fingerprint(layered, trials),
        )

    @classmethod
    def resume(cls, path: str, replay: "JournalReplay") -> "RunJournal":
        """Reopen an existing journal for appending after ``replay``.

        The file is truncated to the end of the last committed record
        (dropping a crash-truncated tail) so new records append cleanly.
        """
        journal = cls(
            path,
            replay.num_qubits,
            replay.num_trials,
            replay.fingerprint,
            _resume_seq=len(replay.finishes),
        )
        journal._file.seek(replay.committed_bytes)
        journal._file.truncate()
        return journal

    def _sync(self) -> None:
        os.fsync(self._file.fileno())
        self._pending = 0

    def record(self, payload: Any, trial_indices: Sequence[int]) -> None:
        """Append one finish (payload amplitudes + its global trial indices).

        The record is flushed to the OS before this returns; it is
        fsynced with the rest of its group.
        """
        vector = getattr(payload, "vector", payload)
        if vector is None:
            raise JournalError(
                "journaling requires statevector payloads "
                "(the counting backend has none)"
            )
        data = np.asarray(vector).tobytes()
        indices = np.asarray(tuple(trial_indices), dtype=np.uint64).tobytes()
        header = _RECORD.pack(
            self.next_seq,
            len(tuple(trial_indices)),
            len(data),
            zlib.crc32(indices) & 0xFFFFFFFF,
            zlib.crc32(data) & 0xFFFFFFFF,
        )
        self._file.write(header)
        self._file.write(indices)
        self._file.write(data)
        self._file.write(_COMMIT)
        self._file.flush()
        self.next_seq += 1
        now = self.clock()
        if not self._pending:
            self._group_start = now
        self._pending += 1
        if self._pending >= GROUP_RECORDS or now - self._group_start >= GROUP_SECONDS:
            self._sync()

    def close(self) -> None:
        """Fsync the open group, if any, and close the file."""
        if not self._file.closed:
            if self._pending:
                self._sync()
            self._file.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class JournalReplay:
    """A loaded journal: header identity plus every committed finish."""

    def __init__(
        self,
        path: str,
        num_qubits: int,
        num_trials: int,
        fingerprint: int,
        finishes: List[Tuple[np.ndarray, Tuple[int, ...]]],
        truncated: bool,
        committed_bytes: int,
    ) -> None:
        self.path = path
        self.num_qubits = num_qubits
        self.num_trials = num_trials
        self.fingerprint = fingerprint
        #: Committed finishes in journal (== plan finish) order.
        self.finishes = finishes
        #: True when a partial tail record (the crash frontier) was dropped.
        self.truncated = truncated
        #: File offset just past the last committed record.
        self.committed_bytes = committed_bytes

    @property
    def completed_trials(self) -> frozenset:
        return frozenset(
            index for _, indices in self.finishes for index in indices
        )

    def __repr__(self) -> str:
        return (
            f"JournalReplay(finishes={len(self.finishes)}, "
            f"trials={len(self.completed_trials)}/{self.num_trials}, "
            f"truncated={self.truncated})"
        )


def load_journal(path: str) -> JournalReplay:
    """Read every committed record of a journal, tolerating a torn tail.

    Raises :class:`JournalError` if the file is not a journal (bad magic,
    unsupported version, corrupt header).  A record that fails to parse or
    verify marks the crash frontier: it and everything after it are
    discarded and ``truncated`` is set — committed records are never lost.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER.size:
        raise JournalError(f"{path!r} is too short to be a run journal")
    magic, version, num_qubits, num_trials, fingerprint, header_crc = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != _MAGIC:
        raise JournalError(f"{path!r} is not a run journal (bad magic)")
    if zlib.crc32(blob[: _HEADER.size - 4]) & 0xFFFFFFFF != header_crc:
        raise JournalError(f"{path!r} has a corrupt journal header")
    if version != _VERSION:
        raise JournalError(
            f"journal version {version} unsupported (expected {_VERSION})"
        )

    state_bytes = 16 * (1 << num_qubits)
    finishes: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    truncated = False
    offset = _HEADER.size
    committed = offset
    expected_seq = 0
    while offset < len(blob):
        if offset + _RECORD.size > len(blob):
            truncated = True
            break
        seq, num_indices, payload_len, indices_crc, payload_crc = (
            _RECORD.unpack_from(blob, offset)
        )
        cursor = offset + _RECORD.size
        end = cursor + num_indices * 8 + payload_len + len(_COMMIT)
        if (
            seq != expected_seq
            or payload_len != state_bytes
            or num_indices == 0
            or end > len(blob)
        ):
            truncated = True
            break
        indices_raw = blob[cursor : cursor + num_indices * 8]
        cursor += num_indices * 8
        payload_raw = blob[cursor : cursor + payload_len]
        cursor += payload_len
        marker = blob[cursor : cursor + len(_COMMIT)]
        if (
            marker != _COMMIT
            or zlib.crc32(indices_raw) & 0xFFFFFFFF != indices_crc
            or zlib.crc32(payload_raw) & 0xFFFFFFFF != payload_crc
        ):
            truncated = True
            break
        vector = np.frombuffer(payload_raw, dtype=np.complex128).copy()
        indices = tuple(
            int(i) for i in np.frombuffer(indices_raw, dtype=np.uint64)
        )
        finishes.append((vector, indices))
        offset = end
        committed = end
        expected_seq += 1
    return JournalReplay(
        path=os.fspath(path),
        num_qubits=num_qubits,
        num_trials=num_trials,
        fingerprint=fingerprint,
        finishes=finishes,
        truncated=truncated,
        committed_bytes=committed,
    )


class JournalSummary(NamedTuple):
    """What the journal contributed to (and recorded about) one run."""

    path: str
    resumed: bool
    replayed_finishes: int
    replayed_trials: int
    recorded_finishes: int
    truncated_tail: bool


def run_journaled(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend_factory: Callable[[], Any],
    on_finish: Optional[FinishCallback],
    journal_path: str,
    **options: Any,
) -> Tuple[ExecutionOutcome, JournalSummary]:
    """Execute ``trials`` with a crash-safe journal, resuming if one exists.

    With no journal at ``journal_path`` this is
    :func:`~repro.core.options.execute` plus a journal tee: every finish
    is written to the journal and flushed to the OS before the user's
    ``on_finish`` sees it, and fsynced with its group (so a streamed
    finish that an OS crash loses is recomputed to the same bits).  With an
    existing journal, its committed finishes are first validated (lint
    rule ``P019``), replayed through ``on_finish`` in their original
    order, and only the remaining trials are executed — the returned
    outcome's ``ops_applied`` covers exactly the remaining work, which is
    how tests assert zero recompute.

    ``options`` are the execution options of that remaining-trials run
    (``check``, ``recorder``, ``max_cache_bytes``, ``shared``, ``stop``,
    ...), checked against the table in
    :mod:`repro.core.options`; the remaining trials run on serial DFS.  A stop raises
    :class:`~repro.core.executor.RunInterrupted` *after* the journal's
    open group is fsynced and the file closed — the journal stays a valid
    resume point.  Completion and errors close it the same way.
    """
    validate(journal=journal_path, **options)
    check_trial_events(layered, trials)
    replay: Optional[JournalReplay] = None
    if os.path.exists(journal_path) and os.path.getsize(journal_path) > 0:
        replay = load_journal(journal_path)
        from ..lint.journal_rules import lint_journal

        audit = lint_journal(replay, layered=layered, trials=trials)
        if not audit.ok:
            raise JournalError(
                "journal failed consistency lint (P019): "
                + "; ".join(str(d) for d in audit.errors)
            )

    num_qubits = layered.num_qubits
    replayed_finishes = 0
    replayed_trials = 0
    if replay is not None:
        recorder = options.get("recorder")
        if recorder:
            recorder.instant(
                "journal.replay",
                cat="journal",
                finishes=len(replay.finishes),
                trials=len(replay.completed_trials),
                truncated=replay.truncated,
            )
        journal = RunJournal.resume(journal_path, replay)
        if on_finish is not None:
            for vector, indices in replay.finishes:
                on_finish(Statevector.from_buffer(vector, num_qubits), indices)
        replayed_finishes = len(replay.finishes)
        replayed_trials = len(replay.completed_trials)
        completed = replay.completed_trials
        remaining = [i for i in range(len(trials)) if i not in completed]
    else:
        journal = RunJournal.create(journal_path, layered, trials)
        remaining = list(range(len(trials)))

    try:
        if not remaining:
            outcome = ExecutionOutcome(
                ops_applied=0,
                num_trials=0,
                cache_stats=CacheStats(0, 0, 0, 0),
                finish_calls=0,
            )
        else:
            subset = [trials[g] for g in remaining]

            def tee(payload: Any, local_indices: Tuple[int, ...]) -> None:
                global_indices = tuple(remaining[i] for i in local_indices)
                journal.record(payload, global_indices)
                if on_finish is not None:
                    on_finish(payload, global_indices)

            # The journal executor walks the plan serially: the default
            # pick must not move the remaining trials to hybrid, which
            # excludes journal.
            outcome = execute(
                layered, subset, backend_factory, tee, **{**options, "hybrid": False}
            )
    finally:
        recorded = journal.next_seq - replayed_finishes
        journal.close()

    summary = JournalSummary(
        path=os.fspath(journal_path),
        resumed=replay is not None,
        replayed_finishes=replayed_finishes,
        replayed_trials=replayed_trials,
        recorded_finishes=recorded,
        truncated_tail=replay.truncated if replay is not None else False,
    )
    return outcome, summary

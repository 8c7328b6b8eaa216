"""Cross-job prefix-state sharing: the paper's redundancy elimination
lifted from *intra*-job to *inter*-job.

A single optimized run already shares prefix states between trials of one
trial set (the trie).  A long-lived service sees many jobs over the same
circuit family — often with literally identical prefixes — and a naive
server recomputes those prefixes once per job.  :class:`SharedPrefixStore`
is a process-wide, thread-safe cache of prefix statevectors keyed by the
*exact computation that produced them*, so any job whose plan is about to
recompute a published prefix can adopt the cached amplitudes instead.

Why sharing is bit-exact
------------------------
Floating-point gate application is deterministic but, above
:data:`~repro.sim.kernels.LAYER_PRODUCT_MAX_QUBITS`, **boundary
sensitive**: the compiled backend fuses single-qubit runs per
``apply_layers`` segment, so advancing ``0→5`` in one call and ``0→3,
3→5`` in two calls may round differently.  (At or below that width a
segment applies one product per layer, so the split does not change
the rounding; the key below is kept for every width.)  A cached state
is therefore only reusable when the consumer would have issued *the
same call sequence*.  The store's key captures exactly that: the
circuit's identity fingerprint plus the ordered tuple of steps —
``("A", start, end)`` for each ``apply_layers`` segment and ``("I",
layer, qubit, pauli)`` for each injected error — that produced the state
from ``|0...0>``.  Equal keys mean equal call sequences mean
bit-identical amplitudes, so a shared hit is indistinguishable
(``np.array_equal``) from recomputing, and per-job results stay
bit-identical to isolated runs.

Operations accounting stays honest: the executor counts gates it *skips*
via a hit into ``ExecutionOutcome.ops_shared`` (never into
``ops_applied``), preserving the conservation law
``ops_applied + ops_shared == plan.planned_operations(...)``.

Eviction reuses the :class:`~repro.core.cache.CacheBudget` policy from the
memory-budget work: when resident bytes exceed ``budget.max_bytes`` the
least-recently-used entries are **spilled** to CRC-checked files (reloaded
and verified on fetch) or **dropped** outright (future lookups miss and
jobs simply recompute).  Corrupted spill files are discarded, never
served.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import threading
import zlib
from collections import OrderedDict
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from .cache import CacheBudget

__all__ = [
    "SharedPrefixStore",
    "SharedStoreStats",
    "circuit_fingerprint",
    "advance_step",
    "inject_step",
]

#: Step descriptors forming the provenance key (see module docstring).
StepKey = Tuple[Any, ...]


def advance_step(start_layer: int, end_layer: int) -> Tuple[str, int, int]:
    """Key fragment for one ``apply_layers(start, end)`` segment."""
    return ("A", int(start_layer), int(end_layer))


def inject_step(event: Any) -> Tuple[str, int, int, str]:
    """Key fragment for one injected error operator."""
    return ("I", int(event.layer), int(event.qubit), str(event.pauli))


def circuit_fingerprint(layered: LayeredCircuit) -> int:
    """CRC32 identity of a layered circuit's full gate structure.

    Two circuits share a fingerprint only if every layer applies the same
    gates (name, parameters, rounded matrix bytes — ``Gate._key``) to the
    same qubits in the same order, and the measurement map matches.  This
    is the "circuit family" identity under which prefix states may be
    shared across jobs.
    """
    digest = zlib.crc32(
        struct.pack("<III", layered.num_qubits, layered.num_layers,
                    layered.num_gates)
    )
    for layer in layered.layers:
        for op in layer:
            digest = zlib.crc32(repr(op.gate._key).encode(), digest)
            digest = zlib.crc32(
                struct.pack(f"<{len(op.qubits)}i", *op.qubits), digest
            )
        digest = zlib.crc32(b"|", digest)
    for measurement in layered.measurements:
        digest = zlib.crc32(
            struct.pack("<ii", measurement.qubit, measurement.clbit), digest
        )
    return digest & 0xFFFFFFFF


class SharedStoreStats(NamedTuple):
    """Consistent counter snapshot of a :class:`SharedPrefixStore`."""

    entries: int
    resident_entries: int
    resident_bytes: int
    hits: int
    misses: int
    publishes: int
    spills: int
    spill_loads: int
    drops: int
    ops_saved: int

    def as_dict(self) -> Dict[str, int]:
        return dict(self._asdict())


class _Entry:
    """One cached prefix state: resident bytes or a spill-file stub."""

    __slots__ = ("data", "path", "checksum", "nbytes", "layer")

    def __init__(self, data: bytes, layer: int) -> None:
        self.data: Optional[bytes] = data
        self.path: Optional[str] = None
        self.checksum = zlib.crc32(data) & 0xFFFFFFFF
        self.nbytes = len(data)
        self.layer = layer

    @property
    def resident(self) -> bool:
        return self.data is not None


class SharedPrefixStore:
    """Thread-safe cross-job cache of provenance-keyed prefix states.

    Parameters
    ----------
    budget:
        Optional :class:`~repro.core.cache.CacheBudget` bounding the
        resident bytes.  ``mode="spill"`` moves LRU-cold entries to
        CRC-checked files under ``spill_dir`` (a private temp directory
        when unset); ``mode="drop"`` discards them.  Without a budget the
        store grows unboundedly — only appropriate for tests.

    The store never hands out its own buffers: :meth:`publish` copies the
    amplitudes in, :meth:`fetch` copies them out, so concurrent jobs can
    never scribble on each other's states.
    """

    def __init__(self, budget: Optional[CacheBudget] = None) -> None:
        self.budget = budget
        self._lock = threading.Lock()
        #: LRU order: oldest first; keyed by (fingerprint, steps).
        self._entries: "OrderedDict[Tuple[int, StepKey], _Entry]" = (
            OrderedDict()
        )
        self._resident_bytes = 0
        self._spill_dir: Optional[str] = budget.spill_dir if budget else None
        self._spill_created = False
        self._spill_serial = 0
        self._hits = 0
        self._misses = 0
        self._publishes = 0
        self._spills = 0
        self._spill_loads = 0
        self._drops = 0
        self._ops_saved = 0

    # -- publication / lookup ------------------------------------------------

    def publish(
        self, fingerprint: int, steps: StepKey, vector: Any, layer: int
    ) -> bool:
        """Copy a prefix state into the store under its provenance key.

        Returns ``False`` (and refreshes the entry's LRU position) when the
        key is already present — concurrent identical jobs publish the
        same bytes, there is nothing to add.  Publication may trigger
        budget eviction of *other* entries; the newly published entry is
        resident on return.
        """
        key = (int(fingerprint), tuple(steps))
        data = np.ascontiguousarray(
            np.asarray(vector, dtype=np.complex128)
        ).tobytes()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return False
            entry = _Entry(data, layer)
            self._entries[key] = entry
            self._resident_bytes += entry.nbytes
            self._publishes += 1
            self._enforce_budget_locked(keep=key)
            return True

    def fetch(self, fingerprint: int, steps: StepKey) -> Optional[np.ndarray]:
        """Return a private copy of the state for ``steps``, or ``None``.

        Spilled entries are reloaded and CRC-verified; a spill file that
        is missing or fails its checksum is discarded (the caller just
        recomputes) rather than trusted.
        """
        key = (int(fingerprint), tuple(steps))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            if entry.resident:
                self._entries.move_to_end(key)
                self._hits += 1
                assert entry.data is not None
                return np.frombuffer(entry.data, dtype=np.complex128).copy()
            # Spilled: reload outside nothing — file I/O under the lock is
            # acceptable here (spill files are small relative to compute),
            # and it keeps eviction/fetch races impossible.
            path = entry.path
            try:
                assert path is not None
                data = np.fromfile(path, dtype=np.complex128)
            except (OSError, AssertionError):
                data = None
            if (
                data is None
                or data.nbytes != entry.nbytes
                or (zlib.crc32(data.tobytes()) & 0xFFFFFFFF) != entry.checksum
            ):
                # Never serve bytes that fail verification.
                self._discard_locked(key, entry)
                self._misses += 1
                return None
            entry.data = data.tobytes()
            entry.path = None
            self._resident_bytes += entry.nbytes
            self._spill_loads += 1
            self._entries.move_to_end(key)
            self._hits += 1
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._enforce_budget_locked(keep=key)
            return data.copy()

    def note_saved(self, ops: int) -> None:
        """Record operations a consumer skipped thanks to a hit."""
        with self._lock:
            self._ops_saved += int(ops)

    # -- eviction -----------------------------------------------------------

    def _spill_path_locked(self, layer: int) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-shared-")
            self._spill_created = True
        elif not os.path.isdir(self._spill_dir):
            os.makedirs(self._spill_dir, exist_ok=True)
        self._spill_serial += 1
        return os.path.join(
            self._spill_dir, f"shared-{self._spill_serial:06d}-l{layer}.c128"
        )

    def _discard_locked(
        self, key: Tuple[int, StepKey], entry: _Entry
    ) -> None:
        if entry.resident:
            self._resident_bytes -= entry.nbytes
        elif entry.path is not None:
            try:
                os.unlink(entry.path)
            except OSError:
                pass
        self._entries.pop(key, None)

    def _enforce_budget_locked(self, keep: Tuple[int, StepKey]) -> None:
        budget = self.budget
        if budget is None:
            return
        while self._resident_bytes > budget.max_bytes:
            victim_key = None
            for candidate, entry in self._entries.items():
                if candidate != keep and entry.resident:
                    victim_key = candidate
                    break
            if victim_key is None:
                break  # only the protected entry remains resident
            entry = self._entries[victim_key]
            if budget.mode == "spill":
                path = self._spill_path_locked(entry.layer)
                assert entry.data is not None
                with open(path, "wb") as handle:
                    handle.write(entry.data)
                entry.path = path
                entry.data = None
                self._resident_bytes -= entry.nbytes
                self._spills += 1
            elif budget.mode == "drop":
                self._discard_locked(victim_key, entry)
                self._drops += 1
            else:
                raise ValueError(
                    f"unknown shared-store eviction mode {budget.mode!r} "
                    "(expected 'spill' or 'drop')"
                )

    # -- introspection / lifecycle -------------------------------------------

    def stats(self) -> SharedStoreStats:
        with self._lock:
            resident = sum(
                1 for entry in self._entries.values() if entry.resident
            )
            return SharedStoreStats(
                entries=len(self._entries),
                resident_entries=resident,
                resident_bytes=self._resident_bytes,
                hits=self._hits,
                misses=self._misses,
                publishes=self._publishes,
                spills=self._spills,
                spill_loads=self._spill_loads,
                drops=self._drops,
                ops_saved=self._ops_saved,
            )

    def clear(self) -> None:
        """Drop every entry and remove spill files."""
        with self._lock:
            for key in list(self._entries):
                self._discard_locked(key, self._entries[key])
            self._resident_bytes = 0

    def close(self) -> None:
        """Release everything, including a temp spill dir we created."""
        self.clear()
        with self._lock:
            if self._spill_created and self._spill_dir is not None:
                shutil.rmtree(self._spill_dir, ignore_errors=True)
                self._spill_created = False

    def __enter__(self) -> "SharedPrefixStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SharedPrefixStore(entries={stats.entries}, "
            f"resident_bytes={stats.resident_bytes}, hits={stats.hits}, "
            f"ops_saved={stats.ops_saved})"
        )

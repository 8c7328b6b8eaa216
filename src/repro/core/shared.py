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

When the stored bytes exceed ``max_bytes`` the least-recently-used
entries are **evicted** outright.  An entry is optional: a later lookup
misses and the job recomputes the same bits, so eviction bounds both the
store's memory and its index, and the store never touches the disk.
(A run's snapshot cache spills instead, because its plan will restore
every snapshot it stores; see :mod:`repro.core.cache`.)
"""

from __future__ import annotations

import struct
import threading
import zlib
from collections import OrderedDict
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit

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
    resident_bytes: int
    hits: int
    misses: int
    publishes: int
    drops: int
    ops_saved: int

    def as_dict(self) -> Dict[str, int]:
        return dict(self._asdict())


class SharedPrefixStore:
    """Thread-safe cross-job cache of provenance-keyed prefix states.

    Parameters
    ----------
    max_bytes:
        Optional cap on the stored bytes.  Publishing past it evicts the
        least-recently-used entries (never the one just published)
        until the store fits, so the entry count is bounded too.
        Without a cap the store grows unboundedly — only appropriate for
        tests.

    The store never hands out its own buffers: :meth:`publish` copies the
    amplitudes in, :meth:`fetch` copies them out, so concurrent jobs can
    never scribble on each other's states.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: LRU order: oldest first; keyed by (fingerprint, steps).
        self._entries: "OrderedDict[Tuple[int, StepKey], bytes]" = OrderedDict()
        self._resident_bytes = 0
        self._hits = 0
        self._misses = 0
        self._publishes = 0
        self._drops = 0
        self._ops_saved = 0

    # -- publication / lookup ------------------------------------------------

    def publish(self, fingerprint: int, steps: StepKey, vector: Any) -> bool:
        """Copy a prefix state into the store under its provenance key.

        Returns ``False`` (and refreshes the entry's LRU position) when the
        key is already present — concurrent identical jobs publish the
        same bytes, there is nothing to add, and ``vector`` is not read.
        Publication may evict *other* entries to meet ``max_bytes``; the
        newly published entry is stored on return.
        """
        key = (int(fingerprint), tuple(steps))
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            data = np.ascontiguousarray(
                np.asarray(vector, dtype=np.complex128)
            ).tobytes()
            self._entries[key] = data
            self._resident_bytes += len(data)
            self._publishes += 1
            self._evict_locked()
            return True

    def fetch(self, fingerprint: int, steps: StepKey) -> Optional[np.ndarray]:
        """Return a private copy of the state for ``steps``, or ``None``."""
        key = (int(fingerprint), tuple(steps))
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return np.frombuffer(data, dtype=np.complex128).copy()

    def note_saved(self, ops: int) -> None:
        """Record operations a consumer skipped thanks to a hit."""
        with self._lock:
            self._ops_saved += int(ops)

    # -- eviction -----------------------------------------------------------

    def _evict_locked(self) -> None:
        """Evict least-recently-used entries until the store fits; the
        newest entry, the one just published, always stays."""
        if self.max_bytes is None:
            return
        while self._resident_bytes > self.max_bytes and len(self._entries) > 1:
            _, data = self._entries.popitem(last=False)
            self._resident_bytes -= len(data)
            self._drops += 1

    # -- introspection / lifecycle -------------------------------------------

    def stats(self) -> SharedStoreStats:
        with self._lock:
            return SharedStoreStats(
                entries=len(self._entries),
                resident_bytes=self._resident_bytes,
                hits=self._hits,
                misses=self._misses,
                publishes=self._publishes,
                drops=self._drops,
                ops_saved=self._ops_saved,
            )

    def close(self) -> None:
        """Release every entry."""
        with self._lock:
            self._entries.clear()
            self._resident_bytes = 0

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

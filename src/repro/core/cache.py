"""Intermediate-state cache with drop-on-last-use accounting.

The paper's memory metric is the number of **Maintained State Vectors
(MSVs)**: how many intermediate statevectors exist simultaneously during the
optimized simulation.  :class:`StateCache` owns every state the executor
creates — the single *working* state plus the stack of stored prefix
snapshots — releases each snapshot the moment its last consumer has used it,
and records the peak.

Two peaks are tracked:

* ``peak_msv`` — peak count of all live statevectors, working state
  included.  This is the number we report for Figs. 6 and 8.
* ``peak_stored`` — peak count of stored snapshots only (excludes the
  working state), i.e. the memory *overhead* relative to the baseline,
  which always keeps exactly one working state.

Memory-budgeted spilling
------------------------
With a :class:`CacheBudget` attached, the executor keeps the *resident*
(in-RAM) footprint within ``max(1, max_bytes // state_bytes)`` states.
Before a snapshot is copied it **spills** the coldest stored snapshots
to disk until the copy fits beside the working state; when the working
state alone fills the budget, the snapshot is written straight from the
working state to its spill file and the cache stores the stub.  The
amplitudes are reloaded, checksum-verified, on restore.  Spilling trades
disk I/O for memory, never operations, and never changes results: the
plan restores every snapshot it stores, so a snapshot dropped instead
would be recomputed from ``|0...0>``, the very prefix the trie shares.

The *nominal* peaks above are deliberately untouched by spilling: they
mirror the plan's demand, so lint's static peak-MSV bound stays an exact
cross-check.  The actually-resident peaks are reported separately
(``peak_resident_msv`` / ``peak_resident_stored``).

The cache's snapshot stack is restored newest-first (the plan's slots
follow the trie DFS), so the *coldest* snapshot — the one restored last —
is always the lowest-numbered resident slot.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "StateCache",
    "CacheStats",
    "CacheBudget",
    "SpilledSnapshot",
    "payload_checksum",
    "CorruptionError",
]


class CorruptionError(RuntimeError):
    """A checksum over statevector bytes (journal record, spilled
    snapshot) did not verify — the data must not be trusted."""


def payload_checksum(array: Any) -> int:
    """CRC32 over the raw bytes of an amplitude array.

    The integrity primitive for every statevector that leaves RAM custody:
    journal records (:mod:`.resilience`) and spilled snapshots carry this
    checksum and are verified on the way back in.
    """
    return zlib.crc32(np.asarray(array).tobytes()) & 0xFFFFFFFF


class CacheBudget(NamedTuple):
    """Byte budget for resident (working + stored) statevectors.

    At most ``max(1, max_bytes // state_bytes)`` states stay resident.
    A snapshot that would not fit first sends the coldest resident
    snapshots to CRC-checked files in ``spill_dir`` (a temporary
    directory when ``None``); with none left to spill it goes to its own
    file straight from the working state.  Spilled snapshots are
    reloaded on restore.  The working state itself is never spilled, so
    the floor is one statevector.
    """

    max_bytes: int
    spill_dir: Optional[str] = None


class SpilledSnapshot(NamedTuple):
    """Slot stub: the snapshot's amplitudes live on disk, checksummed."""

    path: str
    checksum: int


class CacheStats:
    """Peak / cumulative counters of a finished run."""

    def __init__(
        self,
        peak_msv: int,
        peak_stored: int,
        snapshots_taken: int,
        snapshots_released: int,
        spills: int = 0,
        spill_loads: int = 0,
        peak_resident_msv: Optional[int] = None,
        peak_resident_stored: Optional[int] = None,
    ) -> None:
        self.peak_msv = peak_msv
        self.peak_stored = peak_stored
        self.snapshots_taken = snapshots_taken
        self.snapshots_released = snapshots_released
        #: Spill counters (both zero without a :class:`CacheBudget`).
        self.spills = spills
        self.spill_loads = spill_loads
        #: Actually-resident peaks; equal the nominal peaks when nothing
        #: was spilled.
        self.peak_resident_msv = (
            peak_msv if peak_resident_msv is None else peak_resident_msv
        )
        self.peak_resident_stored = (
            peak_stored if peak_resident_stored is None else peak_resident_stored
        )

    @property
    def degraded(self) -> bool:
        """Whether any snapshot was spilled during the run."""
        return bool(self.spills)

    def __repr__(self) -> str:
        extra = ""
        if self.degraded:
            extra = (
                f", resident={self.peak_resident_msv}, "
                f"spills={self.spills}"
            )
        return (
            f"CacheStats(peak_msv={self.peak_msv}, "
            f"peak_stored={self.peak_stored}, "
            f"snapshots={self.snapshots_taken}{extra})"
        )


class StateCache:
    """Slot store for prefix snapshots, with live-state peak tracking.

    When a :class:`~repro.obs.recorder.TraceRecorder` is attached, the
    live-MSV level (and the stored-snapshot level) is sampled as a gauge
    at **every** cache event — creation/destruction of the working state,
    snapshot store, snapshot take — so the recorded ``msv.live`` timeline
    peaks at exactly ``CacheStats.peak_msv``.  With a budget attached the
    resident level is additionally sampled as ``msv.resident``.

    The cache itself never does I/O; it tracks which slots are resident
    vs. spilled (stub entries) and accounts both views.  The executor
    performs the actual spill and load, and names every slot: slot ids
    are the plan's ``Snapshot.slot``.
    """

    def __init__(
        self,
        recorder: Optional[Any] = None,
        budget: Optional[CacheBudget] = None,
        state_bytes: int = 0,
    ) -> None:
        self._slots: Dict[int, Tuple[Any, int]] = {}
        self._working_live = 0
        self._resident_stored = 0
        self._peak_msv = 0
        self._peak_stored = 0
        self._peak_resident_msv = 0
        self._peak_resident_stored = 0
        self._snapshots_taken = 0
        self._snapshots_released = 0
        self._spills = 0
        self._spill_loads = 0
        self._recorder = recorder
        self.budget = budget
        #: Bytes per resident state (0 for stateless backends, which makes
        #: any budget a no-op: there is nothing to evict).
        self.state_bytes = state_bytes

    def _sample(self) -> None:
        """Emit the live/stored levels to the attached recorder, if any."""
        recorder = self._recorder
        if recorder:
            recorder.gauge("msv.live", self.num_live)
            recorder.gauge("msv.stored", len(self._slots))
            if self.budget is not None:
                recorder.gauge("msv.resident", self.num_resident)

    # -- working-state lifecycle (called by the executor) ----------------------

    def working_created(self) -> None:
        """A working state came alive (initial state or restored snapshot)."""
        self._working_live += 1
        self._update_peaks()
        self._sample()

    def working_destroyed(self) -> None:
        """The current working state was discarded or consumed."""
        if self._working_live <= 0:
            raise RuntimeError("working_destroyed without a live working state")
        self._working_live -= 1
        self._sample()

    # -- snapshot slots -----------------------------------------------------------

    def store(self, state: Any, layer: int, slot: int) -> None:
        """Store a snapshot (a state advanced to ``layer``) in ``slot``.

        ``slot`` is the plan's ``Snapshot.slot``; storing into an occupied
        slot raises.  A :class:`SpilledSnapshot` stub (a snapshot written
        straight to disk) counts as a spill, not as a resident state.
        """
        if slot in self._slots:
            raise RuntimeError(f"cache slot {slot} is already occupied")
        self._slots[slot] = (state, layer)
        if isinstance(state, SpilledSnapshot):
            self._spills += 1
        else:
            self._resident_stored += 1
        self._snapshots_taken += 1
        self._update_peaks()
        self._sample()

    def take(self, slot: int) -> Tuple[Any, int]:
        """Remove and return ``(state, layer)`` — the slot's last use.

        The state is the resident one, or a :class:`SpilledSnapshot` stub
        when the slot was spilled — the executor reloads stubs.
        """
        try:
            entry, layer = self._slots.pop(slot)
        except KeyError:
            raise KeyError(f"cache slot {slot} is empty or already taken") from None
        if not isinstance(entry, SpilledSnapshot):
            self._resident_stored -= 1
        self._snapshots_released += 1
        self._sample()
        return entry, layer

    def peek(self, slot: int) -> Tuple[Any, int]:
        """Return ``(state, layer)`` without releasing the slot."""
        try:
            return self._slots[slot]
        except KeyError:
            raise KeyError(f"cache slot {slot} is empty") from None

    # -- budgeted spilling ----------------------------------------------------------

    @property
    def full(self) -> bool:
        """Whether one more resident state would exceed the budget."""
        return (
            self.budget is not None
            and self.state_bytes > 0
            and (self.num_resident + 1) * self.state_bytes > self.budget.max_bytes
        )

    def coldest_resident_slot(self) -> Optional[int]:
        """The resident snapshot restored furthest in the future.

        Slots are restored newest-first (stack discipline of the trie
        DFS), so the coldest resident snapshot is the lowest slot id.
        """
        resident = [
            slot
            for slot, (entry, _) in self._slots.items()
            if not isinstance(entry, SpilledSnapshot)
        ]
        return min(resident) if resident else None

    def mark_spilled(self, slot: int, stub: SpilledSnapshot) -> None:
        """Replace a resident slot with its :class:`SpilledSnapshot` stub
        (the amplitudes must already be safely on disk)."""
        _, layer = self.peek(slot)
        self._slots[slot] = (stub, layer)
        self._resident_stored -= 1
        self._spills += 1
        self._sample()

    def note_spill_load(self) -> None:
        self._spill_loads += 1

    # -- accounting ---------------------------------------------------------------

    @property
    def num_stored(self) -> int:
        return len(self._slots)

    @property
    def num_live(self) -> int:
        return len(self._slots) + self._working_live

    @property
    def num_resident(self) -> int:
        """In-RAM states only: working states plus unspilled snapshots."""
        return self._resident_stored + self._working_live

    def _update_peaks(self) -> None:
        self._peak_msv = max(self._peak_msv, self.num_live)
        self._peak_stored = max(self._peak_stored, len(self._slots))
        self._peak_resident_msv = max(self._peak_resident_msv, self.num_resident)
        self._peak_resident_stored = max(
            self._peak_resident_stored, self._resident_stored
        )

    def stats(self) -> CacheStats:
        return CacheStats(
            peak_msv=self._peak_msv,
            peak_stored=self._peak_stored,
            snapshots_taken=self._snapshots_taken,
            snapshots_released=self._snapshots_released,
            spills=self._spills,
            spill_loads=self._spill_loads,
            peak_resident_msv=self._peak_resident_msv,
            peak_resident_stored=self._peak_resident_stored,
        )

    def assert_drained(self) -> None:
        """Raise unless every snapshot was consumed (no leaked states)."""
        if self._slots:
            raise RuntimeError(
                f"{len(self._slots)} cached state(s) were never consumed: "
                f"slots {sorted(self._slots)}"
            )
        if self._working_live:
            raise RuntimeError(
                f"{self._working_live} working state(s) still live at drain"
            )

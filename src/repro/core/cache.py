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

Memory-budgeted degradation
---------------------------
With a :class:`CacheBudget` attached, the executor keeps the *resident*
(in-RAM) footprint under ``max_bytes`` by degrading the coldest stored
snapshot whenever a store pushes the cache over budget: either **spilling**
its amplitudes to disk (reloaded, checksum-verified, on restore) or
**dropping** it outright and recomputing it from its recorded provenance
(the instructions applied since ``|0...0>``) when restored.
Degradation trades operations (or disk I/O) for memory and never changes
results.

The *nominal* peaks above are deliberately untouched by degradation: they
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
    "DroppedSnapshot",
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

    ``mode`` selects what happens to the coldest snapshot when the budget
    is exceeded: ``"spill"`` writes its amplitudes to ``spill_dir`` (a
    temporary directory when ``None``) and reloads them on restore;
    ``"drop"`` frees it and recomputes it from its provenance on
    restore.  The working state is never degraded, so the effective floor
    is one statevector.
    """

    max_bytes: int
    mode: str = "spill"
    spill_dir: Optional[str] = None


class SpilledSnapshot(NamedTuple):
    """Slot stub: the snapshot's amplitudes live on disk, checksummed."""

    path: str
    checksum: int


class DroppedSnapshot(NamedTuple):
    """Slot stub: the snapshot was freed; ``provenance`` (the ``Advance``
    and ``Inject`` instructions applied since ``|0...0>``, in order)
    replays it exactly."""

    provenance: Tuple[Any, ...]


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
        drops: int = 0,
        recomputes: int = 0,
        peak_resident_msv: Optional[int] = None,
        peak_resident_stored: Optional[int] = None,
    ) -> None:
        self.peak_msv = peak_msv
        self.peak_stored = peak_stored
        self.snapshots_taken = snapshots_taken
        self.snapshots_released = snapshots_released
        #: Degradation counters (all zero without a :class:`CacheBudget`).
        self.spills = spills
        self.spill_loads = spill_loads
        self.drops = drops
        self.recomputes = recomputes
        #: Actually-resident peaks; equal the nominal peaks when nothing
        #: was degraded.
        self.peak_resident_msv = (
            peak_msv if peak_resident_msv is None else peak_resident_msv
        )
        self.peak_resident_stored = (
            peak_stored if peak_resident_stored is None else peak_resident_stored
        )

    @property
    def degraded(self) -> bool:
        """Whether any snapshot was spilled or dropped during the run."""
        return bool(self.spills or self.drops)

    def __repr__(self) -> str:
        extra = ""
        if self.degraded:
            extra = (
                f", resident={self.peak_resident_msv}, "
                f"spills={self.spills}, drops={self.drops}"
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

    The cache itself never does I/O or recomputation; it tracks which
    slots are resident vs. degraded (stub entries) and accounts both
    views.  The executor performs the actual spill/load/recompute.
    """

    def __init__(
        self,
        recorder: Optional[Any] = None,
        budget: Optional[CacheBudget] = None,
        state_bytes: int = 0,
    ) -> None:
        self._slots: Dict[int, Tuple[Any, int]] = {}
        self._provenance: Dict[int, Tuple[Any, ...]] = {}
        self._next_slot = 0
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
        self._drops = 0
        self._recomputes = 0
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

    def store(
        self,
        state: Any,
        layer: int,
        slot: Optional[int] = None,
        provenance: Optional[Tuple[Any, ...]] = None,
    ) -> int:
        """Store a snapshot (a state advanced to ``layer``); returns its slot.

        With ``slot`` given, the snapshot is stored under exactly that id —
        the executor passes the plan's ``Snapshot.slot`` so cache ids and
        plan ids can never drift apart.  Storing into an occupied slot
        raises; auto-assignment (``slot=None``) keeps handing out fresh ids.
        ``provenance`` (what recomputes the snapshot) is retained for
        drop-mode degradation and returned by :meth:`take_full`.
        """
        if slot is None:
            slot = self._next_slot
            self._next_slot += 1
        else:
            slot = int(slot)
            if slot in self._slots:
                raise RuntimeError(f"cache slot {slot} is already occupied")
            self._next_slot = max(self._next_slot, slot + 1)
        self._slots[slot] = (state, layer)
        if provenance is not None:
            self._provenance[slot] = provenance
        self._resident_stored += 1
        self._snapshots_taken += 1
        self._update_peaks()
        self._sample()
        return slot

    def take(self, slot: int) -> Tuple[Any, int]:
        """Remove and return ``(state, layer)`` — the slot's last use."""
        state, layer, _ = self.take_full(slot)
        return state, layer

    def take_full(self, slot: int) -> Tuple[Any, int, Optional[Tuple[Any, ...]]]:
        """Like :meth:`take` but also yields the snapshot's provenance.

        The returned first element is the resident state, or a
        :class:`SpilledSnapshot` / :class:`DroppedSnapshot` stub when the
        slot was degraded — the executor rehydrates stubs.
        """
        try:
            entry, layer = self._slots.pop(slot)
        except KeyError:
            raise KeyError(f"cache slot {slot} is empty or already taken") from None
        if not isinstance(entry, (SpilledSnapshot, DroppedSnapshot)):
            self._resident_stored -= 1
        provenance = self._provenance.pop(slot, None)
        self._snapshots_released += 1
        self._sample()
        return entry, layer, provenance

    def peek(self, slot: int) -> Tuple[Any, int]:
        """Return ``(state, layer)`` without releasing the slot."""
        try:
            return self._slots[slot]
        except KeyError:
            raise KeyError(f"cache slot {slot} is empty") from None

    # -- budgeted degradation -----------------------------------------------------

    @property
    def over_budget(self) -> bool:
        """Whether a resident snapshot must be degraded to meet the budget."""
        return (
            self.budget is not None
            and self.state_bytes > 0
            and self._resident_stored > 0
            and self.num_resident * self.state_bytes > self.budget.max_bytes
        )

    def coldest_resident_slot(self) -> Optional[int]:
        """The resident snapshot restored furthest in the future.

        Slots are restored newest-first (stack discipline of the trie
        DFS), so the coldest resident snapshot is the lowest slot id.
        """
        resident = [
            slot
            for slot, (entry, _) in self._slots.items()
            if not isinstance(entry, (SpilledSnapshot, DroppedSnapshot))
        ]
        return min(resident) if resident else None

    def mark_spilled(self, slot: int, path: str, checksum: int) -> Tuple[Any, int]:
        """Replace a resident slot with a :class:`SpilledSnapshot` stub.

        Returns the evicted ``(state, layer)`` so the executor can release
        it (the amplitudes must already be safely on disk).
        """
        state, layer = self.peek(slot)
        self._slots[slot] = (SpilledSnapshot(path, checksum), layer)
        self._resident_stored -= 1
        self._spills += 1
        self._sample()
        return state, layer

    def mark_dropped(self, slot: int) -> Tuple[Any, int]:
        """Replace a resident slot with a :class:`DroppedSnapshot` stub."""
        state, layer = self.peek(slot)
        provenance = self._provenance.get(slot)
        if provenance is None:
            raise RuntimeError(
                f"cannot drop slot {slot}: no provenance was recorded"
            )
        self._slots[slot] = (DroppedSnapshot(provenance), layer)
        self._resident_stored -= 1
        self._drops += 1
        self._sample()
        return state, layer

    def note_spill_load(self) -> None:
        self._spill_loads += 1

    def note_recompute(self) -> None:
        self._recomputes += 1

    # -- accounting ---------------------------------------------------------------

    @property
    def num_stored(self) -> int:
        return len(self._slots)

    @property
    def num_live(self) -> int:
        return len(self._slots) + self._working_live

    @property
    def num_resident(self) -> int:
        """In-RAM states only: working states plus non-degraded snapshots."""
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
            drops=self._drops,
            recomputes=self._recomputes,
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

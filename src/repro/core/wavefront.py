"""Trial-batched wavefront execution: vectorize kernels across trials.

The serial executor (:func:`~repro.core.executor.run_optimized`) walks the
prefix trie depth-first, advancing **one** statevector at a time — the
paper's redundancy elimination leaves thousands of small kernel calls on
the table.  This module restructures the same plan into **breadth-wise
wavefronts**: sibling subtree states that face the *same upcoming layer
segment* are gathered into one batch-last ``(2,)*n + (B,)`` ndarray and a
single batched kernel call (:meth:`Kernel.apply_batch`) advances all of
them at once.

Everything is derived from the serial :class:`ExecutionPlan` — the
wavefront planner is a *plan transformation*, not a new scheduler:

* The plan's walk (:class:`~repro.core.schedule.PlanWalk`) is folded
  into **lanes** — one lane per trie-node trajectory.  ``Advance``
  appends a layer hop to the current lane, ``Snapshot``+``Inject`` forks
  a child lane (the parent row survives and is copied on divergence), a
  bare ``Inject`` is a steal (the parent row *moves* into the child),
  ``Restore`` resumes the parent lane, ``Finish`` ends a lane with its
  serial finish rank.
* Lane hops reproduce the serial plan's exact ``[start, end)`` segment
  boundaries, so the memoized compiled segments — and therefore fusion
  boundaries and float rounding — are identical to the serial path.
  Batch columns only ever group lanes with an **identical pending
  segment** (lint rule P024 re-proves this from the emitted schedule).
* Because the batch axis is a free index in every batched kernel, the
  per-column arithmetic equals the serial arithmetic bit for bit; the
  whole run is ``np.array_equal``-identical to serial DFS at every batch
  width, including ``B == 1``.

Divergence points split batches naturally: an injected error starts a new
lane (its column is assembled next to its siblings and receives its own
operator application over a column range), and a finish retires a column
into a buffered payload.  Finishes are delivered *after* execution in
serial-rank order, so a stateful ``on_finish`` (the measurement RNG)
observes exactly the serial stream.

Operation accounting is invariant: a batched advance charges
``gates * B`` (one basic operation per gate per trial) and every injection
charges one, so ``ops_applied`` equals the serial plan's
``planned_operations`` — the P020 certificate cross-check holds unchanged
against wavefront traces (``advance`` spans carry a ``batch`` argument the
profile extractor weights by).

Memory: the wavefront trades peak state count for throughput — many rows
are live at once (parked rows awaiting consumers plus the in-flight
batch plus buffered finish payloads), all resident.  Its memory is its
parked rows, reported as the run's peaks; no cache budget applies (the
options table rejects ``batch_size`` with ``max_cache_bytes``).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..sim.statevector import Statevector
from .cache import CacheStats
from .events import ErrorEvent, Trial
from .executor import ExecutionOutcome, FinishCallback, RunInterrupted, _record_run_meta
from .schedule import (
    Advance,
    ExecutionPlan,
    Finish,
    Inject,
    PlanWalk,
    Restore,
    ScheduleError,
    Snapshot,
    build_plan,
)

__all__ = [
    "WavefrontLane",
    "WavefrontRow",
    "WavefrontStep",
    "WavefrontPlan",
    "plan_wavefronts",
    "run_wavefront",
]


class WavefrontLane:
    """One trie-node trajectory through the layer axis.

    ``stations`` are the lane's pending segments in order — exactly the
    serial plan's ``Advance`` hops for this node (a leading zero-length
    ``(b, b)`` station is inserted when the lane forks children or
    finishes at its birth layer, so those actions have an arrival to
    attach to).  ``spawns`` maps a station index to the children spawned
    at that station's *arrival*; ``finish`` fires at the last station's
    arrival.
    """

    __slots__ = (
        "lane_id",
        "parent",
        "event",
        "snapshot",
        "slot",
        "birth_layer",
        "stations",
        "spawns",
        "finish",
        "src",
    )

    def __init__(
        self,
        lane_id: int,
        parent: Optional[int],
        event: Optional[ErrorEvent],
        snapshot: bool,
        slot: Optional[int],
        birth_layer: int,
    ) -> None:
        self.lane_id = lane_id
        self.parent = parent
        self.event = event
        #: True when the serial plan snapshotted before this fork (the
        #: parent row survives and is copied); False for root and steals.
        self.snapshot = snapshot
        #: The serial Snapshot slot backing a snapshot fork (trace args).
        self.slot = slot
        self.birth_layer = birth_layer
        self.stations: Tuple[Tuple[int, int], ...] = ()
        #: station index -> tuple of (child_lane_id, steal) in serial order
        self.spawns: Dict[int, Tuple[Tuple[int, bool], ...]] = {}
        #: (serial_rank, trial_indices) fired at the last station arrival
        self.finish: Optional[Tuple[int, Tuple[int, ...]]] = None
        #: (parent_lane_id, parent_station) this lane's birth copies from
        self.src: Optional[Tuple[int, int]] = None

    def __repr__(self) -> str:
        return (
            f"WavefrontLane({self.lane_id}, event={self.event}, "
            f"stations={list(self.stations)})"
        )


class WavefrontRow(NamedTuple):
    """One batch column: a lane at a station, plus how it materializes."""

    lane: int
    station: int
    #: "root" (fresh |0..0> / entry state), "carry" (own previous row),
    #: "fork" (copy of parent row), "steal" (move of parent row)
    kind: str
    #: (lane, station) of the source row; None for "root"
    src: Optional[Tuple[int, int]]


class WavefrontStep(NamedTuple):
    """One batched step: assemble ``rows``, inject newborns, advance."""

    start: int
    end: int
    rows: Tuple[WavefrontRow, ...]


class WavefrontPlan:
    """A serial plan re-scheduled into batched wavefront steps."""

    def __init__(
        self,
        lanes: Sequence[WavefrontLane],
        steps: Sequence[WavefrontStep],
        batch_size: int,
        num_layers: int,
        num_trials: int,
        entry_layer: int,
        entry_events: Tuple[ErrorEvent, ...],
    ) -> None:
        self.lanes = tuple(lanes)
        self.steps = tuple(steps)
        self.batch_size = batch_size
        self.num_layers = num_layers
        self.num_trials = num_trials
        self.entry_layer = entry_layer
        self.entry_events = tuple(entry_events)
        #: (lane, station) -> number of later consumers (children
        #: materializations and the lane's own carry); a finish consumes
        #: its row immediately at arrival and is not counted.
        self.consumers: Dict[Tuple[int, int], int] = {
            (lane.lane_id, station): len(lane.spawns.get(station, ()))
            + int(station + 1 < len(lane.stations))
            for lane in self.lanes
            for station in range(len(lane.stations))
        }
        #: finishes sorted by serial rank: (rank, lane_id, trial_indices)
        finishes = [
            (lane.finish[0], lane.lane_id, lane.finish[1])
            for lane in self.lanes
            if lane.finish is not None
        ]
        self.finishes: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = tuple(
            sorted(finishes)
        )
        self.num_snapshots = sum(1 for lane in self.lanes if lane.snapshot)
        self.num_injects = sum(
            1 for lane in self.lanes if lane.event is not None
        )
        self.peak_rows, self.peak_stored_rows = self._simulate_occupancy()

    def _simulate_occupancy(self) -> Tuple[int, int]:
        """Static peak live/parked row counts (the executor's nominal peaks)."""
        refs = dict(self.consumers)
        parked = 0
        payloads = 0
        peak_live = 0
        peak_stored = 0
        for step in self.steps:
            width = len(step.rows)
            for row in step.rows:
                if row.src is not None:
                    refs[row.src] -= 1
                    if refs[row.src] == 0:
                        parked -= 1
            peak_live = max(peak_live, parked + payloads + width)
            for row in step.rows:
                lane = self.lanes[row.lane]
                finishing = (
                    lane.finish is not None
                    and row.station == len(lane.stations) - 1
                )
                if finishing:
                    payloads += 1
                if not finishing or refs[(row.lane, row.station)] > 0:
                    parked += 1
                else:
                    refs.pop((row.lane, row.station), None)
            peak_stored = max(peak_stored, parked + payloads)
            peak_live = max(peak_live, parked + payloads)
        return peak_live, peak_stored

    def planned_operations(self, layered: LayeredCircuit) -> int:
        """Total basic operations of the schedule (== the serial plan's)."""
        ops = self.num_injects
        for step in self.steps:
            if step.end > step.start:
                ops += (
                    layered.gates_between(step.start, step.end)
                    * len(step.rows)
                )
        return ops

    def profile(self) -> Dict[str, Any]:
        """Static shape summary (batched call counts, widths, peaks)."""
        advancing = [s for s in self.steps if s.end > s.start]
        widths = [len(s.rows) for s in advancing]
        serial_advances = sum(widths)
        return {
            "batch_size": self.batch_size,
            "num_lanes": len(self.lanes),
            "num_steps": len(self.steps),
            "batched_calls": len(advancing),
            "serial_advances": serial_advances,
            "max_width": max(widths, default=0),
            "mean_width": (
                serial_advances / len(advancing) if advancing else 0.0
            ),
            "injects": self.num_injects,
            "snapshots": self.num_snapshots,
            "finishes": len(self.finishes),
            "peak_rows": self.peak_rows,
            "peak_stored_rows": self.peak_stored_rows,
        }

    def __repr__(self) -> str:
        return (
            f"WavefrontPlan(lanes={len(self.lanes)}, steps={len(self.steps)}, "
            f"batch={self.batch_size})"
        )


def _parse_lanes(
    plan: ExecutionPlan, entry_layer: int
) -> List[WavefrontLane]:
    """Fold the serial plan's walk into lane trajectories.

    The walk pairs each ``Restore`` with its ``Snapshot``; the fold keeps
    only each state's lane id, keyed by the slot the walk reports, and
    raises on the first structural fault.
    """
    lanes: List[WavefrontLane] = []
    hops: List[List[Tuple[int, int]]] = []
    spawn_bounds: List[List[Tuple[int, int, bool]]] = []

    def new_lane(parent, event, snapshot, slot, birth_layer) -> int:
        lane_id = len(lanes)
        lanes.append(
            WavefrontLane(lane_id, parent, event, snapshot, slot, birth_layer)
        )
        hops.append([])
        spawn_bounds.append([])
        return lane_id

    # The working state's lane; None once a Finish retired it.
    current: Optional[int] = new_lane(None, None, False, None, entry_layer)
    slot_lanes: Dict[int, int] = {}
    pending_slot: Optional[int] = None
    rank = 0
    walk = PlanWalk(plan.instructions, plan.num_layers, entry_layer)
    for step in walk:
        instr = step.instr
        if step.fault:
            raise step.error()
        if isinstance(instr, Restore):
            current = slot_lanes.pop(instr.slot)
            pending_slot = None
            continue
        if current is None:
            raise ScheduleError(
                f"plan[{step.index}] {instr!r} with no working lane"
            )
        if isinstance(instr, Advance):
            if instr.end_layer > instr.start_layer:
                hops[current].append((instr.start_layer, instr.end_layer))
            pending_slot = None
        elif isinstance(instr, Snapshot):
            slot_lanes[instr.slot] = current
            pending_slot = instr.slot
        elif isinstance(instr, Inject):
            snapshot = pending_slot is not None
            child = new_lane(
                current, instr.event, snapshot, pending_slot, step.layer
            )
            spawn_bounds[current].append(
                (len(hops[current]), child, not snapshot)
            )
            current = child
            pending_slot = None
        elif isinstance(instr, Finish):
            lanes[current].finish = (rank, tuple(instr.trial_indices))
            rank += 1
            current = None
            pending_slot = None
        else:
            raise ScheduleError(f"unknown plan instruction {instr!r}")
    if walk.slots:
        raise ScheduleError(
            f"{len(walk.slots)} snapshot(s) never restored — plan is "
            "unbalanced"
        )

    # Convert hops + spawn boundaries into stations.  Boundary ``b`` is
    # "after the first b hops"; a boundary-0 spawn (or a hop-less lane)
    # needs a zero-length leading station to attach to.
    for lane in lanes:
        lane_hops = hops[lane.lane_id]
        bounds = spawn_bounds[lane.lane_id]
        needs_zero = not lane_hops or any(b == 0 for b, _, _ in bounds)
        if needs_zero:
            stations = [(lane.birth_layer, lane.birth_layer)] + lane_hops
            offset = 0
        else:
            stations = list(lane_hops)
            offset = -1
        lane.stations = tuple(stations)
        spawn_map: Dict[int, List[Tuple[int, bool]]] = {}
        for boundary, child, steal in bounds:
            station = boundary + offset
            spawn_map.setdefault(station, []).append((child, steal))
        lane.spawns = {
            station: tuple(children)
            for station, children in spawn_map.items()
        }
        for station, children in lane.spawns.items():
            for child_id, steal in children:
                lanes[child_id].src = (lane.lane_id, station)
    return lanes


def _row_sort_key(lanes: Sequence[WavefrontLane], entry) -> tuple:
    """Deterministic column order: carries first, then newborns grouped
    by event so equal-event injections form contiguous column ranges."""
    lane_id, _station, kind = entry
    if kind in ("root", "carry"):
        return (0, -1, -1, "", lane_id)
    event = lanes[lane_id].event
    return (1, event.layer, event.qubit, event.pauli, lane_id)


def plan_wavefronts(
    plan: ExecutionPlan,
    batch_size: int,
    entry_layer: int = 0,
    entry_events: Tuple[ErrorEvent, ...] = (),
) -> WavefrontPlan:
    """Re-schedule a serial plan into batched wavefront steps.

    A priority queue keyed by the exact ``(start, end)`` pending segment
    gathers every lane facing that segment; the gathered columns are
    sorted deterministically and chunked to at most ``batch_size``.
    Arrival processing spawns children (enqueued as newborn columns with
    their own pending segment) and re-enqueues the lane's next station as
    a carry — so divergence points split batches and convergent siblings
    re-merge, with no segment ever grouped across different boundaries.
    """
    if batch_size < 1:
        raise ScheduleError(f"batch size must be >= 1, got {batch_size}")
    lanes = _parse_lanes(plan, entry_layer)

    heap: List[Tuple[int, int]] = []
    ready: Dict[Tuple[int, int], List[Tuple[int, int, str]]] = {}

    def enqueue(lane_id: int, station: int, kind: str) -> None:
        key = lanes[lane_id].stations[station]
        if key not in ready:
            ready[key] = []
            heapq.heappush(heap, key)
        ready[key].append((lane_id, station, kind))

    enqueue(0, 0, "root")
    steps: List[WavefrontStep] = []
    while heap:
        key = heapq.heappop(heap)
        entries = ready.pop(key, [])
        if not entries:
            continue
        entries.sort(key=lambda entry: _row_sort_key(lanes, entry))
        for base in range(0, len(entries), batch_size):
            chunk = entries[base : base + batch_size]
            rows = []
            for lane_id, station, kind in chunk:
                lane = lanes[lane_id]
                if kind in ("fork", "steal"):
                    src = lane.src
                elif kind == "carry":
                    src = (lane_id, station - 1)
                else:
                    src = None
                rows.append(WavefrontRow(lane_id, station, kind, src))
            steps.append(WavefrontStep(key[0], key[1], tuple(rows)))
            # Arrivals: spawn children, re-enqueue carries.  New items may
            # share this key; they join a later step of the same segment.
            for lane_id, station, _kind in chunk:
                lane = lanes[lane_id]
                for child_id, steal in lane.spawns.get(station, ()):
                    enqueue(child_id, 0, "steal" if steal else "fork")
                if station + 1 < len(lane.stations):
                    enqueue(lane_id, station + 1, "carry")

    return WavefrontPlan(
        lanes,
        steps,
        batch_size,
        plan.num_layers,
        plan.num_trials,
        entry_layer,
        tuple(entry_events),
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class _Row:
    """A parked wavefront row: one lane's column awaiting its consumers."""

    __slots__ = ("buffer", "col", "refs")

    def __init__(self, buffer: np.ndarray, col: int, refs: int) -> None:
        self.buffer = buffer  # the batch array holding the column
        self.col = col
        self.refs = refs


def run_wavefront(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend,
    on_finish: Optional[FinishCallback] = None,
    plan: Optional[ExecutionPlan] = None,
    batch_size: int = 64,
    check: bool = False,
    recorder=None,
    entry_state=None,
    entry_layer: int = 0,
    entry_events: Tuple[ErrorEvent, ...] = (),
    stop=None,
) -> ExecutionOutcome:
    """Execute ``trials`` with prefix reuse *and* trial-axis batching.

    Drop-in alternative to :func:`~repro.core.executor.run_optimized` for
    compiled statevector backends: same signature surface, same
    ``on_finish`` payload/index stream in the same (serial) order, same
    ``ops_applied`` total, bit-identical payload amplitudes — but sibling
    subtrees advance through shared layer segments in batches of up to
    ``batch_size`` columns.  ``batch_size=1`` degenerates to one column
    per kernel call and reproduces today's serial results exactly.

    Finishes are buffered and delivered after the last step in serial
    rank order; payload copies are included in the live/stored row
    accounting (the memory cost of batching is not hidden).  Every row
    stays resident: the wavefront takes no cache budget.

    ``stop`` (a ``threading.Event``) is polled before every step and
    every delivered finish; once set, the run raises
    :class:`~repro.core.executor.RunInterrupted` counting the trials
    delivered so far (none before the last step: finishes are buffered).
    """
    if batch_size < 1:
        raise ScheduleError(f"batch size must be >= 1, got {batch_size}")
    apply_batch = getattr(backend, "apply_layers_batch", None)
    if apply_batch is None:
        raise ScheduleError(
            "wavefront execution needs a batched backend "
            "(CompiledStatevectorBackend); got "
            f"{type(backend).__name__}"
        )
    if plan is None:
        plan = build_plan(layered, trials)
    if plan.num_trials != len(trials):
        raise ScheduleError(
            f"plan covers {plan.num_trials} trials, got {len(trials)}"
        )
    if check:
        plan.validate(
            trials=trials,
            layered=layered,
            entry_layer=entry_layer,
            entry_events=entry_events,
        )

    num_qubits = layered.num_qubits
    wavefront = plan_wavefronts(
        plan, batch_size, entry_layer, tuple(entry_events)
    )
    if check:
        from ..lint.wavefront_rules import lint_wavefront

        result = lint_wavefront(wavefront, plan, layered=layered)
        if result.errors:
            raise ScheduleError(
                "; ".join(str(diag) for diag in result.errors)
            )

    lanes = wavefront.lanes
    steps = wavefront.steps
    backend.reset_counter()
    backend.set_recorder(recorder)

    if recorder:
        _record_run_meta(
            recorder, "wavefront", layered, trials,
            num_instructions=len(plan),
        )
        recorder.instant(
            "wavefront.meta",
            cat="run",
            batch_size=batch_size,
            num_steps=len(steps),
            num_lanes=len(lanes),
            peak_rows=wavefront.peak_rows,
        )
        recorder.begin("run", cat="run")

    entry_tensor = None
    if entry_state is not None:
        entry_tensor = backend.adopt_state(entry_state)._tensor

    rows: Dict[Tuple[int, int], _Row] = {}
    payloads: Dict[int, np.ndarray] = {}  # rank -> buffered finish payload
    scratch_pool: Dict[Tuple[int, ...], np.ndarray] = {}

    # Parked rows plus buffered payload copies; ``live`` adds the
    # in-flight batch while a step runs.
    parked = 0
    peak_live = 0
    peak_stored = 0
    snapshots_taken = 0
    finish_calls = 0
    trials_done = 0

    def check_stop() -> None:
        if stop is not None and stop.is_set():
            raise RunInterrupted(
                "wavefront run interrupted by stop request",
                trials_completed=trials_done,
            )

    def sample(width: int = 0) -> None:
        nonlocal peak_live, peak_stored
        live = parked + width
        peak_live = max(peak_live, live)
        peak_stored = max(peak_stored, parked)
        if recorder:
            recorder.gauge("msv.live", live)
            recorder.gauge("msv.stored", parked)

    def take_scratch(shape: Tuple[int, ...]) -> np.ndarray:
        scratch = scratch_pool.pop(shape, None)
        if scratch is None:
            scratch = np.empty(shape, dtype=np.complex128)
        return scratch

    def release(key: Tuple[int, int]) -> None:
        nonlocal parked
        del rows[key]
        parked -= 1

    for step_index, step in enumerate(steps):
        check_stop()
        width = len(step.rows)
        shape = (2,) * num_qubits + (width,)

        # --- materialize the batch (copy-on-diverge happens here) ---
        reusable = None
        if all(row.kind == "carry" for row in step.rows):
            sources = [rows.get(row.src) for row in step.rows]
            if all(src is not None and src.refs == 1 for src in sources):
                buffer = sources[0].buffer
                if (
                    buffer.shape == shape
                    and all(src.buffer is buffer for src in sources)
                    and all(
                        src.col == col for col, src in enumerate(sources)
                    )
                ):
                    reusable = buffer
        if reusable is not None:
            batch = reusable
            for row in step.rows:
                release(row.src)
        else:
            batch = np.empty(shape, dtype=np.complex128)
            flat = batch.reshape(-1, width)
            # Sources are gathered per holding buffer: one ``np.take``
            # pass over a buffer serves every column taken from it,
            # instead of re-reading the whole buffer once per column (the
            # dominant assembly cost at 14 qubits).  The group keeps a
            # direct buffer reference, so releasing the source rows first
            # is safe.
            gathers: Dict[int, Tuple[np.ndarray, List[int], List[int]]]
            gathers = {}
            for col, row in enumerate(step.rows):
                if row.kind == "root":
                    dest = flat[:, col]
                    if entry_tensor is not None:
                        dest[...] = entry_tensor.reshape(-1)
                    else:
                        dest[...] = 0.0
                        dest[0] = 1.0
                    continue
                src = rows.get(row.src)
                if src is None:
                    raise ScheduleError(
                        f"step {step_index} consumes missing row {row.src}"
                    )
                group = gathers.get(id(src.buffer))
                if group is None:
                    gathers[id(src.buffer)] = (src.buffer, [src.col], [col])
                else:
                    group[1].append(src.col)
                    group[2].append(col)
                src.refs -= 1
                if row.kind == "fork" and recorder:
                    lane = lanes[row.lane]
                    recorder.instant(
                        "cache.hit", cat="cache",
                        slot=lane.slot, layer=lane.birth_layer,
                        evict=True,
                    )
                if src.refs == 0:
                    release(row.src)
            for buffer, src_cols, dst_cols in gathers.values():
                src_flat = buffer.reshape(-1, buffer.shape[-1])
                start = 0
                count = len(dst_cols)
                while start < count:
                    run_end = start + 1
                    while (
                        run_end < count
                        and dst_cols[run_end] == dst_cols[run_end - 1] + 1
                    ):
                        run_end += 1
                    if run_end - start == 1:
                        flat[:, dst_cols[start]] = src_flat[:, src_cols[start]]
                    else:
                        np.take(
                            src_flat, src_cols[start:run_end], axis=1,
                            out=flat[
                                :, dst_cols[start]:dst_cols[run_end - 1] + 1
                            ],
                        )
                    start = run_end
        sample(width)

        # --- inject newborn columns (contiguous equal-event ranges) ---
        col = 0
        scratch = take_scratch(shape)
        while col < width:
            row = step.rows[col]
            if row.kind not in ("fork", "steal"):
                col += 1
                continue
            event = lanes[row.lane].event
            end_col = col + 1
            while (
                end_col < width
                and step.rows[end_col].kind in ("fork", "steal")
                and lanes[step.rows[end_col].lane].event == event
            ):
                end_col += 1
            backend.apply_operator_columns(
                batch, scratch, event.gate, (event.qubit,), col, end_col
            )
            if recorder:
                for position in range(col, end_col):
                    recorder.instant(
                        "inject", cat="exec",
                        layer=event.layer, qubit=event.qubit,
                        pauli=event.pauli,
                    )
                recorder.counter("ops.applied", end_col - col)
            col = end_col

        # --- advance the whole batch through the pending segment ---
        if step.end > step.start:
            if recorder:
                span = f"advance[{step.start},{step.end})"
                gates = layered.gates_between(step.start, step.end)
                recorder.gauge("wavefront.width", width)
                recorder.begin(span, cat="segment", gates=gates, batch=width)
                out = backend.apply_layers_batch(
                    batch, scratch, step.start, step.end
                )
                recorder.end(span, cat="segment")
                recorder.counter("ops.applied", gates * width)
            else:
                out = backend.apply_layers_batch(
                    batch, scratch, step.start, step.end
                )
            scratch = batch if out is scratch else scratch
            batch = out
        scratch_pool[shape] = scratch

        # --- arrivals: park rows, spawn bookkeeping, buffer finishes ---
        for col, row in enumerate(step.rows):
            lane = lanes[row.lane]
            uses = wavefront.consumers[(row.lane, row.station)]
            finishing = (
                lane.finish is not None
                and row.station == len(lane.stations) - 1
            )
            if recorder:
                for child_id, _steal in lane.spawns.get(row.station, ()):
                    child = lanes[child_id]
                    if child.snapshot:
                        recorder.instant(
                            "cache.store", cat="cache",
                            slot=child.slot, layer=child.birth_layer,
                            moved=False,
                        )
            snapshots_taken += sum(
                1
                for child_id, _steal in lane.spawns.get(row.station, ())
                if lanes[child_id].snapshot
            )
            if finishing:
                payloads[lane.finish[0]] = batch.reshape(-1, width)[:, col].copy()
                parked += 1
            if uses:
                rows[(row.lane, row.station)] = _Row(batch, col, uses)
                parked += 1
            elif not finishing:
                raise ScheduleError(
                    f"lane {row.lane} station {row.station} has no "
                    "consumer and does not finish"
                )
        sample()

    # --- deliver finishes in serial rank order ---------------------------
    for rank, _lane_id, trial_indices in wavefront.finishes:
        check_stop()
        payload_flat = payloads.pop(rank)
        finish_calls += 1
        if on_finish is not None:
            payload = Statevector.from_buffer(payload_flat, num_qubits)
            on_finish(payload, trial_indices)
        if recorder:
            recorder.instant(
                "finish", cat="exec",
                trials=len(trial_indices), moved=False,
            )
            recorder.counter("trials.finished", len(trial_indices))
        trials_done += len(trial_indices)
        parked -= 1
        sample()

    if rows:
        raise ScheduleError(
            f"{len(rows)} wavefront row(s) never consumed — schedule leak"
        )
    cache_stats = CacheStats(
        peak_msv=peak_live,
        peak_stored=peak_stored,
        snapshots_taken=snapshots_taken,
        snapshots_released=snapshots_taken,
    )
    outcome = ExecutionOutcome(
        ops_applied=backend.ops_applied,
        num_trials=len(trials),
        cache_stats=cache_stats,
        finish_calls=finish_calls,
    )
    if recorder:
        recorder.end(
            "run",
            cat="run",
            ops_applied=outcome.ops_applied,
            peak_msv=outcome.peak_msv,
            finish_calls=outcome.finish_calls,
        )
    return outcome

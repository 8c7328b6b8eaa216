"""Plan interpretation: optimized and baseline execution.

:func:`run_optimized` interprets an :class:`ExecutionPlan` against any
:class:`~repro.sim.backend.SimulationBackend`; :func:`run_baseline`
re-executes every trial from the initial state, exactly like the
straightforward Monte-Carlo strategy of QX / Rigetti QVM that the paper
compares against (Sec. V "Baseline").

Both run the same backend and count the same basic operations, so the
normalized-computation metric is a pure ratio of the two counters.  Final
states are delivered through a streaming callback — one call per distinct
final state, carrying all (deduplicated) trial indices that share it — so
no executor ever holds more than the cache-accounted number of states.

:func:`run_optimized`'s instruction loop (:func:`_interpret`) is the one
place plan instructions execute against real states:
:func:`~repro.core.hybrid.run_hybrid` runs through it too.  What a state
is belongs to a *state model*: :class:`_DenseStates` here, the hybrid
model in :mod:`repro.core.hybrid`.

Both executors accept an optional ``recorder``
(:class:`~repro.obs.recorder.TraceRecorder`): when attached, every
``Advance`` becomes a span, every injection/finish an instant, every cache
store/restore a cache event with the live-MSV gauge sampled alongside, and
a ``run.meta`` instant carries enough context (trial counts, gate counts,
closed-form baseline ops) that :class:`ExecutionOutcome` and
:class:`~repro.core.metrics.RunMetrics` can be re-derived from the trace
alone (see :mod:`repro.obs.summary`).  Every recorder touch sits behind a
single ``if recorder:`` check and the default is off, so the un-traced hot
path is unchanged.

Memory-budgeted degradation
---------------------------
``run_optimized`` accepts a :class:`~repro.core.cache.CacheBudget`: after
every snapshot store the executor degrades the coldest resident snapshot
(spill to disk, or drop and recompute it) until the resident footprint
fits.  Results are unchanged — spilled amplitudes are checksum-verified on
reload, and a recomputed snapshot replays the very ``Advance``/``Inject``
instructions that produced it, from ``|0...0>``, so even compiled kernel
fusion reproduces the same float rounding.
The nominal peak-MSV accounting deliberately ignores degradation (it
mirrors the plan's demand and lint's static bound); the actually-resident
peaks are reported separately on :class:`~repro.core.cache.CacheStats`.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal as signal_module
import tempfile
import threading
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..sim.backend import SimulationBackend
from ..sim.statevector import Statevector
from .cache import (
    CacheBudget,
    CacheStats,
    CorruptionError,
    DroppedSnapshot,
    SpilledSnapshot,
    StateCache,
    payload_checksum,
)
from .events import Trial
from .schedule import (
    Advance,
    ExecutionPlan,
    Finish,
    Inject,
    Restore,
    ScheduleError,
    Snapshot,
    build_plan,
    check_trial_events,
    rebuild_program,
)
from .shared import SharedPrefixStore, advance_step, circuit_fingerprint, inject_step

__all__ = [
    "ExecutionOutcome",
    "RunInterrupted",
    "graceful_stop",
    "run_optimized",
    "run_baseline",
    "FinishCallback",
]

#: Called once per distinct final state: ``(state_payload, trial_indices)``.
FinishCallback = Callable[[Any, Tuple[int, ...]], None]


class RunInterrupted(RuntimeError):
    """An execution was stopped cooperatively before finishing its trials.

    Raised when a ``stop`` event passed to an executor (by hand, or by
    :func:`graceful_stop` on a signal) is set.  The interrupt is *clean*:
    every finish delivered before the exception was complete and in
    order, resources were released through the normal ``finally`` paths,
    and a journaled run's committed tail remains a valid resume
    point.  ``trials_completed`` counts the trials whose finishes were
    delivered before the stop took effect.
    """

    def __init__(self, message: str, trials_completed: int = 0) -> None:
        super().__init__(message)
        self.trials_completed = trials_completed


@contextlib.contextmanager
def graceful_stop(
    signals: Sequence[int] = (signal_module.SIGTERM, signal_module.SIGINT),
):
    """Turn SIGTERM/SIGINT into a cooperative stop event for the block.

    The default disposition of SIGTERM kills the process outright —
    ``finally`` blocks never run, so a journal loses its open group and
    a spill area its cleanup.  Inside this context the listed signals
    instead set the yielded ``threading.Event``; an executor polling it
    (``run(stop=...)``) stops at the next plan instruction, the journal
    fsyncs what completed, every resource is released through the normal
    cleanup paths and :class:`RunInterrupted` is raised.  Previous
    handlers are restored on exit.  Signal handlers can only be installed
    from the main thread; use a plain ``threading.Event`` (or the asyncio
    loop's ``add_signal_handler``) elsewhere.
    """
    stop = threading.Event()
    previous = {}
    for sig in signals:
        previous[sig] = signal_module.signal(
            sig, lambda signum, frame: stop.set()
        )
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            signal_module.signal(sig, handler)


class ExecutionOutcome:
    """Counters and cache statistics of one executor run."""

    def __init__(
        self,
        ops_applied: int,
        num_trials: int,
        cache_stats: CacheStats,
        finish_calls: int,
        ops_shared: int = 0,
    ) -> None:
        self.ops_applied = ops_applied
        self.num_trials = num_trials
        self.cache_stats = cache_stats
        self.finish_calls = finish_calls
        #: Plan operations *not* executed because a cross-job
        #: :class:`~repro.core.shared.SharedPrefixStore` supplied the
        #: state; ``ops_applied + ops_shared`` equals the plan's
        #: ``planned_operations``.
        self.ops_shared = ops_shared
        #: :class:`~repro.core.resilience.JournalSummary` of a journaled
        #: run (set by :func:`~repro.core.options.execute`), else ``None``.
        self.journal: Optional[Any] = None
        #: Name of the executor that ran, from
        #: :data:`~repro.core.options.EXECUTORS` (set by
        #: :func:`~repro.core.options.execute`), else ``None``.
        self.executor: Optional[str] = None

    @property
    def peak_msv(self) -> int:
        return self.cache_stats.peak_msv

    @property
    def peak_stored(self) -> int:
        return self.cache_stats.peak_stored

    def __repr__(self) -> str:
        return (
            f"ExecutionOutcome(ops={self.ops_applied}, "
            f"trials={self.num_trials}, peak_msv={self.peak_msv})"
        )

    @classmethod
    def from_trace(cls, recorder) -> "ExecutionOutcome":
        """Re-derive an outcome purely from a recorded run's events.

        The result must equal the outcome the executor computed live —
        that equality is the observability layer's correctness pin (see
        :func:`repro.obs.summary.verify_trace`).
        """
        from ..obs.summary import outcome_from_trace

        return outcome_from_trace(recorder)


def _record_run_meta(
    recorder,
    mode: str,
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    num_instructions: Optional[int] = None,
) -> None:
    """Emit the ``run.meta`` instant that makes a trace self-describing."""
    args = {
        "mode": mode,
        "num_trials": len(trials),
        "num_distinct_trials": len(set(trials)),
        "num_layers": layered.num_layers,
        "num_gates": layered.num_gates,
        "baseline_ops": baseline_operation_count(layered, trials),
    }
    if num_instructions is not None:
        args["num_instructions"] = num_instructions
    recorder.instant("run.meta", cat="run", **args)


class _SpillArea:
    """Lazy scratch directory for spilled snapshot amplitudes.

    Spill files are transient scratch, not durability (that is the run
    journal's job): on a clean finish every file has been reloaded and
    unlinked; a temp directory we created is removed even on error.
    """

    def __init__(self, budget: CacheBudget) -> None:
        self._dir = budget.spill_dir
        self._created = False
        self._serial = 0

    def allocate(self, slot: int, layer: int) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-spill-")
            self._created = True
        elif not os.path.isdir(self._dir):
            os.makedirs(self._dir, exist_ok=True)
        self._serial += 1
        return os.path.join(
            self._dir, f"snapshot-{self._serial:04d}-s{slot}-l{layer}.c128"
        )

    def cleanup(self) -> None:
        if self._created and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)


def _run_program(backend: SimulationBackend, state, program, recorder=None):
    """Apply an ``Advance``/``Inject`` program (see :func:`rebuild_program`)
    to ``state``; with a recorder, each injection is an ``inject`` instant."""
    for instr in program:
        if isinstance(instr, Advance):
            backend.apply_layers(state, instr.start_layer, instr.end_layer)
            continue
        event = instr.event
        backend.apply_operator(state, event.gate, (event.qubit,))
        if recorder:
            recorder.instant(
                "inject",
                cat="exec",
                layer=event.layer,
                qubit=event.qubit,
                pauli=event.pauli,
            )
    return state


class _DenseStates:
    """The dense state model: every state is a backend state.

    It also owns what the serial executor keeps beside the walk:
    cross-job prefix adoption and publication through a
    :class:`~repro.core.shared.SharedPrefixStore`, and cache-budget
    degradation (spill or drop after a store, rehydration on restore).
    A dropped snapshot's provenance is the ``Advance``/``Inject``
    instructions applied since ``|0...0>``; it is rebuilt by replaying
    them on a fresh initial state.
    The hybrid model (:mod:`repro.core.hybrid`) extends it with a
    symbolic side.
    """

    def __init__(
        self,
        layered: LayeredCircuit,
        backend: SimulationBackend,
        cache: StateCache,
        recorder,
        working,
        budget: Optional[CacheBudget] = None,
        shared: Optional[SharedPrefixStore] = None,
    ) -> None:
        self.layered = layered
        self.backend = backend
        self.cache = cache
        self.recorder = recorder
        self.working = working
        self.budget = budget
        self.shared = shared
        self.ops_shared = 0
        #: The working state's provenance, tracked only under a drop budget.
        self.program: Optional[list] = (
            [] if budget is not None and budget.mode == "drop" else None
        )
        self.spill_area = _SpillArea(budget) if budget is not None else None
        if shared is not None:
            if getattr(working, "vector", None) is None:
                raise ScheduleError(
                    "shared prefix store requires a statevector-family backend "
                    "(states must expose .vector)"
                )
            self.fingerprint = circuit_fingerprint(layered)
            self.steps: Tuple[Any, ...] = ()
            self.slot_steps: Dict[int, Tuple[Any, ...]] = {}

    @property
    def ops_applied(self) -> int:
        return self.backend.ops_applied

    def _fetch_shared(self, instr: Advance) -> bool:
        """Called before each ``Advance`` when a shared store is attached;
        true when the store supplied the state."""
        self.steps = self.steps + (
            advance_step(instr.start_layer, instr.end_layer),
        )
        fetched = self.shared.fetch(self.fingerprint, self.steps)
        if fetched is None:
            return False
        # Another job already computed this exact segment sequence; adopt
        # its amplitudes instead of re-executing.  The skipped gates go
        # into ops_shared, never ops_applied.
        gates = self.layered.gates_between(instr.start_layer, instr.end_layer)
        self.backend.release_state(self.working)
        self.working = self.backend.adopt_state(
            Statevector.from_buffer(fetched, self.layered.num_qubits)
        )
        if self.program is not None:
            self.program.append(instr)
        self.ops_shared += gates
        self.shared.note_saved(gates)
        if self.recorder:
            self.recorder.instant(
                "shared.hit",
                cat="shared",
                start=instr.start_layer,
                end=instr.end_layer,
                gates=gates,
            )
            self.recorder.counter("ops.shared", gates)
        return True

    def _publish(self, state, layer: int) -> None:
        if self.shared.publish(
            self.fingerprint, self.steps, state.vector, layer
        ) and self.recorder:
            self.recorder.counter("shared.publish", 1)

    def advance(self, index: int, instr: Advance) -> None:
        self.backend.apply_layers(self.working, instr.start_layer, instr.end_layer)
        if self.program is not None:
            self.program.append(instr)

    def inject(self, index: int, event) -> None:
        self.backend.apply_operator(self.working, event.gate, (event.qubit,))
        if self.program is not None:
            self.program.append(Inject(event))
        if self.shared is not None:
            self.steps = self.steps + (inject_step(event),)

    def snapshot(self, index: int, moved: bool) -> Tuple[Any, Any]:
        """The state to store — the working state itself when ``moved`` —
        and its provenance."""
        state = self.working if moved else self.backend.copy_state(self.working)
        return state, (tuple(self.program) if self.program is not None else None)

    def stored(self, slot: int, state, layer: int) -> None:
        if self.shared is not None:
            # Publish before budget enforcement can spill this very
            # snapshot out from under us.
            self.slot_steps[slot] = self.steps
            self._publish(state, layer)
        if self.budget is not None:
            self._enforce_budget()

    def restore(self, slot: int, entry, layer: int, provenance) -> None:
        if self.budget is not None:
            entry = self._rehydrate(slot, entry, layer)
        if self.program is not None:
            self.program = list(provenance)
        if self.shared is not None:
            self.steps = self.slot_steps.pop(slot)
        self.working = entry

    def finish(self, index: int, borrowed: bool, deliver: bool):
        if self.shared is not None:
            # Publish the leaf state too: an identical concurrent job then
            # skips even its final segments.
            self._publish(self.working, self.layered.num_layers)
        if not deliver:
            return None
        if borrowed:
            return self.backend.finish_view(self.working)
        return self.backend.finish(self.working)

    def release(self) -> None:
        self.backend.release_state(self.working)

    def close(self) -> None:
        if self.spill_area is not None:
            self.spill_area.cleanup()

    def _enforce_budget(self) -> None:
        """Degrade coldest resident snapshots until the budget is met."""
        cache, backend, recorder = self.cache, self.backend, self.recorder
        while cache.over_budget:
            slot = cache.coldest_resident_slot()
            if slot is None:  # pragma: no cover - over_budget implies resident
                break
            state, layer = cache.peek(slot)
            vector = getattr(state, "vector", None)
            if vector is None:
                raise ScheduleError(
                    "cache budgets require a statevector-family backend "
                    "(snapshot states must expose .vector)"
                )
            if self.budget.mode == "drop":
                cache.mark_dropped(slot)
                backend.release_state(state)
                if recorder:
                    recorder.instant("cache.drop", cat="cache", slot=slot, layer=layer)
                    recorder.counter("cache.drop", 1)
            elif self.budget.mode == "spill":
                path = self.spill_area.allocate(slot, layer)
                flat = np.ascontiguousarray(vector)
                flat.tofile(path)
                cache.mark_spilled(slot, path, payload_checksum(flat))
                backend.release_state(state)
                if recorder:
                    recorder.instant("cache.spill", cat="cache", slot=slot, layer=layer)
                    recorder.counter("cache.spill", 1)
            else:
                raise ScheduleError(
                    f"unknown cache degradation mode {self.budget.mode!r} "
                    "(expected 'spill' or 'drop')"
                )

    def _rehydrate(self, slot: int, entry, layer: int):
        """A restored slot's state: reload a spilled stub, recompute a
        dropped one from its provenance, or the resident state itself."""
        backend, recorder = self.backend, self.recorder
        if isinstance(entry, SpilledSnapshot):
            vector = np.fromfile(entry.path, dtype=np.complex128)
            if payload_checksum(vector) != entry.checksum:
                raise CorruptionError(
                    f"spilled snapshot {entry.path!r} failed its checksum"
                )
            os.unlink(entry.path)
            self.cache.note_spill_load()
            if recorder:
                recorder.instant("cache.spill.load", cat="cache", slot=slot, layer=layer)
                recorder.counter("cache.spill.load", 1)
            return backend.adopt_state(
                Statevector.from_buffer(vector, self.layered.num_qubits)
            )
        if isinstance(entry, DroppedSnapshot):
            ops_before = backend.ops_applied
            state = _run_program(backend, backend.make_initial(), entry.provenance)
            self.cache.note_recompute()
            if recorder:
                ops_delta = backend.ops_applied - ops_before
                recorder.instant(
                    "cache.recompute", cat="cache", slot=slot, layer=layer,
                    ops=ops_delta,
                )
                recorder.counter("ops.applied", ops_delta)
                recorder.counter("cache.recompute", 1)
            return state
        return entry


def _interpret(
    instructions: Sequence[Any],
    layered: LayeredCircuit,
    model,
    cache: StateCache,
    recorder=None,
    on_finish: Optional[FinishCallback] = None,
    stop=None,
    name: str = "optimized",
) -> int:
    """Execute an instruction stream against ``model``'s states.

    The one runtime walk behind :func:`run_optimized` and
    :func:`~repro.core.hybrid.run_hybrid`.  The loop owns what the
    instructions mean: layer checks, ``cache`` accounting, the
    moved-snapshot and borrowed-finish peepholes, trace events, ``stop``
    polling, and delivery of each ``Finish`` payload to ``on_finish``.
    The model owns what a state is (:class:`_DenseStates`, or the hybrid
    model of :mod:`repro.core.hybrid`).  Returns the number of finishes;
    the cache is drained on return.
    """
    num_layers = layered.num_layers
    total = len(instructions)
    # Bound methods live in locals: kept on the model, they would form a
    # reference cycle holding its backend until the collector runs.
    probe = model._fetch_shared if model.shared is not None else None
    advance, inject = model.advance, model.inject
    cache.working_created()
    working_layer = 0
    moved = False  # the last Snapshot moved the working state into the cache
    finish_calls = 0
    trials_done = 0
    try:
        for index, instr in enumerate(instructions):
            if stop is not None and stop.is_set():
                if not moved:
                    model.release()
                raise RunInterrupted(
                    f"{name} run interrupted by stop request",
                    trials_completed=trials_done,
                )
            if isinstance(instr, Advance):
                if instr.start_layer != working_layer:
                    raise ScheduleError(
                        f"advance from layer {instr.start_layer} but working "
                        f"state is at layer {working_layer}"
                    )
                working_layer = instr.end_layer
                if probe is not None and probe(instr):
                    continue
                if recorder:
                    span = f"advance[{instr.start_layer},{instr.end_layer})"
                    gates = layered.gates_between(
                        instr.start_layer, instr.end_layer
                    )
                    recorder.begin(span, cat="segment", gates=gates)
                    advance(index, instr)
                    recorder.end(span, cat="segment")
                    recorder.counter("ops.applied", gates)
                else:
                    advance(index, instr)
            elif isinstance(instr, Snapshot):
                # Move peephole: when the very next instruction is a Restore,
                # the working state is dropped in the same plan step — the
                # stored snapshot can steal it instead of copying.  Cache
                # accounting is unchanged (it mirrors the plan's nominal
                # demand, keeping the static peak-MSV cross-check exact); only
                # the allocation and memcpy are skipped.
                moved = index + 1 < total and isinstance(
                    instructions[index + 1], Restore
                )
                state, provenance = model.snapshot(index, moved)
                try:
                    assigned = cache.store(
                        state, working_layer, slot=instr.slot,
                        provenance=provenance,
                    )
                except RuntimeError as exc:
                    raise ScheduleError(str(exc)) from exc
                if assigned != instr.slot:
                    raise ScheduleError(
                        f"cache stored snapshot in slot {assigned}, plan "
                        f"expected slot {instr.slot}"
                    )
                if recorder:
                    recorder.instant(
                        "cache.store",
                        cat="cache",
                        slot=assigned,
                        layer=working_layer,
                        moved=moved,
                    )
                    if moved:
                        recorder.counter("cache.store.moved", 1)
                model.stored(assigned, state, working_layer)
            elif isinstance(instr, Inject):
                event = instr.event
                if event.layer + 1 != working_layer:
                    raise ScheduleError(
                        f"inject {event} at working layer {working_layer}"
                    )
                inject(index, event)
                if recorder:
                    recorder.instant(
                        "inject",
                        cat="exec",
                        layer=event.layer,
                        qubit=event.qubit,
                        pauli=event.pauli,
                    )
                    recorder.counter("ops.applied", 1)
            elif isinstance(instr, Restore):
                # A moved working state lives on inside the cache: there is
                # nothing to release.
                if not moved:
                    model.release()
                moved = False
                cache.working_destroyed()
                entry, working_layer, provenance = cache.take_full(instr.slot)
                model.restore(instr.slot, entry, working_layer, provenance)
                cache.working_created()
                if recorder:
                    recorder.instant(
                        "cache.hit",
                        cat="cache",
                        slot=instr.slot,
                        layer=working_layer,
                        evict=True,
                    )
            elif isinstance(instr, Finish):
                if working_layer != num_layers:
                    raise ScheduleError(
                        f"finish at layer {working_layer}, circuit has "
                        f"{num_layers} layers"
                    )
                finish_calls += 1
                # Borrow peephole: the planner always drops the working state
                # right after a Finish (next instruction is a Restore, or the
                # plan ends), so the payload can borrow it instead of copying.
                # Guarded on the actual plan shape so hand-built plans that
                # keep using the state still get an independent copy.
                borrowed = index + 1 >= total or isinstance(
                    instructions[index + 1], Restore
                )
                payload = model.finish(index, borrowed, on_finish is not None)
                if on_finish is not None:
                    on_finish(payload, instr.trial_indices)
                if recorder:
                    recorder.instant(
                        "finish",
                        cat="exec",
                        trials=len(instr.trial_indices),
                        moved=borrowed,
                    )
                    recorder.counter(
                        "trials.finished", len(instr.trial_indices)
                    )
                    if borrowed:
                        recorder.counter("finish.moved", 1)
                trials_done += len(instr.trial_indices)
            else:  # pragma: no cover - exhaustive over instruction kinds
                raise ScheduleError(f"unknown plan instruction {instr!r}")
        model.release()
        cache.working_destroyed()
    finally:
        model.close()
    cache.assert_drained()
    return finish_calls


def _end_run(recorder, outcome):
    """Close a run's ``run`` span with its headline counters."""
    if recorder:
        recorder.end(
            "run",
            cat="run",
            ops_applied=outcome.ops_applied,
            peak_msv=outcome.peak_msv,
            finish_calls=outcome.finish_calls,
        )
    return outcome


def run_optimized(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend: SimulationBackend,
    on_finish: Optional[FinishCallback] = None,
    plan: Optional[ExecutionPlan] = None,
    check: bool = False,
    recorder=None,
    cache_budget: Optional[CacheBudget] = None,
    shared: Optional[SharedPrefixStore] = None,
    stop=None,
) -> ExecutionOutcome:
    """Execute ``trials`` with prefix-state reuse.

    Parameters
    ----------
    plan:
        A prebuilt plan (must cover exactly these trials); built on demand
        otherwise.
    on_finish:
        Streaming consumer of final states.  Receives the backend's
        ``finish`` payload (a statevector for the statevector backend,
        ``None`` for the counting backend) and the tuple of original trial
        indices sharing that state.  When the working state is dropped
        right after a ``Finish`` (next instruction is a ``Restore``, or the
        plan ends — true for every ``Finish`` the planner emits) the
        payload *borrows* the working state via ``backend.finish_view``
        instead of copying it; callbacks that retain payloads past the
        call must copy them.
    check:
        Run the static plan sanitizer (:func:`repro.lint.sanitize_plan`)
        before touching the backend: slot discipline, layer alignment and
        per-trial event exactness are proven up front, so a bad plan fails
        fast instead of mid-run with statevectors allocated.
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder`.  Falsy
        recorders (``None`` or :class:`~repro.obs.recorder.NullRecorder`)
        cost one truthiness check per plan instruction and nothing else.
    cache_budget:
        Optional :class:`~repro.core.cache.CacheBudget` capping the
        resident statevector bytes; snapshots beyond the budget are
        spilled to disk or dropped-and-recomputed (statevector-family
        backends only).  A dropped snapshot is recomputed by replaying its
        instructions from ``|0...0>``.  Results and nominal peak-MSV
        accounting are unchanged; ``CacheStats`` reports the degradation
        counters and the resident peaks.
    shared:
        Optional cross-job :class:`~repro.core.shared.SharedPrefixStore`.
        Before each ``Advance`` the executor probes the store with the
        working state's provenance key extended by that advance; on a hit
        it adopts the cached amplitudes (bit-identical by key equality —
        see :mod:`repro.core.shared`) and counts the skipped gates into
        ``ops_shared`` instead of executing them.  Prefix states are
        published at every ``Snapshot`` and ``Finish``.  Requires a
        statevector-family backend.
    stop:
        Optional ``threading.Event``-like object polled once per plan
        instruction; when set, the run raises :class:`RunInterrupted`
        after releasing its states.  Every finish delivered before the
        interrupt is complete and in order, so a journal tee remains a
        valid resume prefix.
    """
    if plan is None:
        plan = build_plan(layered, trials)
    if plan.num_trials != len(trials):
        raise ScheduleError(
            f"plan covers {plan.num_trials} trials, got {len(trials)}"
        )
    if check:
        plan.validate(trials=trials, layered=layered)

    backend.reset_counter()
    backend.set_recorder(recorder)
    cache = StateCache(
        recorder=recorder,
        budget=cache_budget,
        state_bytes=16 * (1 << layered.num_qubits),
    )
    if recorder:
        _record_run_meta(
            recorder, "optimized", layered, trials, num_instructions=len(plan)
        )
        recorder.begin("run", cat="run")
    model = _DenseStates(
        layered, backend, cache, recorder, backend.make_initial(),
        budget=cache_budget, shared=shared,
    )
    finish_calls = _interpret(
        plan.instructions, layered, model, cache, recorder,
        on_finish=on_finish, stop=stop,
    )
    return _end_run(
        recorder,
        ExecutionOutcome(
            ops_applied=backend.ops_applied,
            num_trials=len(trials),
            cache_stats=cache.stats(),
            finish_calls=finish_calls,
            ops_shared=model.ops_shared,
        ),
    )


def run_baseline(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend: SimulationBackend,
    on_finish: Optional[FinishCallback] = None,
    recorder=None,
    stop=None,
) -> ExecutionOutcome:
    """Execute every trial independently from scratch (no reuse, no reorder).

    This is the widely adopted straightforward Monte-Carlo strategy: one
    full circuit pass per trial, errors injected inline, only the final
    result kept.  ``on_finish`` is called once per trial.  With a
    ``recorder`` attached each trial becomes one contiguous span (the
    baseline is the one strategy where trials are not interleaved).
    """
    check_trial_events(layered, trials)
    backend.reset_counter()
    backend.set_recorder(recorder)
    # Used only for uniform accounting (peak_msv == 1).
    cache = StateCache(recorder=recorder)
    if recorder:
        _record_run_meta(recorder, "baseline", layered, trials)
        recorder.begin("run", cat="run")

    for index, trial in enumerate(trials):
        if stop is not None and stop.is_set():
            raise RunInterrupted(
                "baseline run interrupted by stop request",
                trials_completed=index,
            )
        if recorder:
            recorder.begin(f"trial[{index}]", cat="trial", errors=trial.num_errors)
        state = backend.make_initial()
        cache.working_created()
        ops_before = backend.ops_applied
        _run_program(
            backend,
            state,
            rebuild_program(trial.events, layered.num_layers),
            recorder,
        )
        if on_finish is not None:
            payload = backend.finish(state)
            on_finish(payload, (index,))
        backend.release_state(state)
        cache.working_destroyed()
        if recorder:
            recorder.counter("ops.applied", backend.ops_applied - ops_before)
            recorder.instant("finish", cat="exec", trials=1)
            recorder.counter("trials.finished", 1)
            recorder.end(f"trial[{index}]", cat="trial")

    cache.assert_drained()
    return _end_run(
        recorder,
        ExecutionOutcome(
            ops_applied=backend.ops_applied,
            num_trials=len(trials),
            cache_stats=cache.stats(),
            finish_calls=len(trials),
        ),
    )


def baseline_operation_count(
    layered: LayeredCircuit, trials: Sequence[Trial]
) -> int:
    """Closed-form basic-operation count of the baseline strategy.

    ``num_trials * num_gates + total_injected_errors`` — every trial pays
    the full circuit plus its own error operators.
    """
    total_errors = sum(trial.num_errors for trial in trials)
    return len(trials) * layered.num_gates + total_errors

"""Hybrid Clifford fast path: Pauli-frame execution over shared anchors.

The optimized executor shares prefix *statevectors*, but still pays
``O(2**n)`` kernel work for every per-trial suffix even when the suffix is
pure Clifford and the injected error is a Pauli — which is the common case
in every committed benchmark.  This module eliminates that remaining
redundancy with a fourth execution representation:

* a **symbolic working state** ``(anchor path, PauliFrame)`` replaces the
  dense working state wherever the plan's segments can be crossed
  bit-exactly by a Pauli frame;
* an **anchor store** holds one dense state per distinct *boundary path*
  (the cumulative tuple of ``Advance`` boundaries walked from the root).
  ``anchor(p + (b,))`` is produced by applying the serial path's *own*
  memoized compiled segment to a copy of ``anchor(p)`` — identical kernel
  objects, identical fusion boundaries, identical float rounding — so an
  anchor is bitwise the state the serial executor would hold at that trie
  position with no events injected;
* **materialization** applies the frame to the anchor with exact
  arithmetic only (axis flips, sign flips, quarter-turn units), yielding
  amplitudes ``np.array_equal`` to the serial dense execution.

The win: all sibling trials whose events land at the same layer share one
anchor advance where the serial executor re-runs the dense suffix per
child, and injected Paulis cost ``O(n)`` frame bits instead of a dense
working state — so the *real* resident set shrinks to the anchor trie
while the nominal (plan-mirror) accounting stays byte-for-byte identical
to :func:`~repro.core.executor.run_optimized`.

Bit-exactness rests on the commutation lemma enforced by
:func:`repro.sim.stabilizer.PauliFrame.try_conjugate_matrix`: a frame only
crosses a kernel matrix when ``M @ P == i**k * (P' @ M)`` holds bitwise
for the very float matrix the compiled kernel applies *and* the identity
transfers to kernel arithmetic (single-qubit kernels, exact-unit entries,
or phase permutations).  Segments that fail the check force a
materialization point; the subtree below it runs dense — inline in serial
mode, or delegated to :func:`~repro.core.wavefront.run_wavefront` as a
batched fragment in batch mode.

The static classifier (:func:`classify_plan`) decides every action ahead
of execution, so the schedule is lint-provable (rule ``P026``) and the
cost model can price the hybrid run without touching a backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..sim.stabilizer import PauliFrame
from ..sim.statevector import Statevector
from .cache import StateCache
from .events import ErrorEvent, Trial
from .executor import (
    ExecutionOutcome,
    FinishCallback,
    RunInterrupted,
    _record_run_meta,
    run_optimized,
)
from .schedule import (
    Advance,
    EmitTask,
    ExecutionPlan,
    Finish,
    Inject,
    PlanWalk,
    Restore,
    ScheduleError,
    Snapshot,
    build_plan,
    localize_plan,
)

__all__ = [
    "HybridOutcome",
    "HybridSchedule",
    "classify_plan",
    "classify_instructions",
    "run_hybrid",
    "run_hybrid_prefix",
]

#: Boundary path of the root anchor: the initial state |0...0> at layer 0.
ROOT_PATH: Tuple[int, ...] = (0,)


def _shadow_segment(
    layered: LayeredCircuit, start: int, end: int
) -> Tuple[Tuple[np.ndarray, Tuple[int, ...]], ...]:
    """The (matrix, qubits) sequence a compiled segment applies.

    Mirrors ``repro.sim.compiled._compile_ops`` exactly — same flattening,
    same single-qubit-run fusion, same flush order, same left-to-right
    ``@`` product for fused runs — so each returned matrix is bitwise the
    matrix the corresponding kernel was compiled from.  Frame-safety
    checked against these matrices therefore holds for the very floats
    the serial executor multiplies with.
    """
    entries: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    pending: Dict[int, List[Any]] = {}

    def flush(qubit: int) -> None:
        run = pending.pop(qubit, None)
        if run is None:
            return
        if len(run) == 1:
            entries.append(
                (
                    np.asarray(run[0].gate.matrix, dtype=np.complex128),
                    tuple(run[0].qubits),
                )
            )
            return
        fused = run[0].gate.matrix
        for op in run[1:]:
            fused = op.gate.matrix @ fused
        entries.append((np.asarray(fused, dtype=np.complex128), (qubit,)))

    for layer in layered.layers[start:end]:
        for op in layer:
            if op.gate.num_qubits == 1:
                pending.setdefault(op.qubits[0], []).append(op)
            else:
                for qubit in op.qubits:
                    flush(qubit)
                entries.append(
                    (
                        np.asarray(op.gate.matrix, dtype=np.complex128),
                        tuple(op.qubits),
                    )
                )
    for qubit in sorted(pending):
        flush(qubit)
    return tuple(entries)


class _Sym:
    """Symbolic working state: anchor path + Pauli frame + event history."""

    __slots__ = ("path", "frame", "events")

    def __init__(
        self,
        path: Tuple[int, ...],
        frame: PauliFrame,
        events: Tuple[ErrorEvent, ...],
    ) -> None:
        self.path = path
        self.frame = frame
        self.events = events

    def copy(self) -> "_Sym":
        return _Sym(self.path, self.frame.copy(), self.events)


_DENSE = "dense"


class HybridSchedule:
    """Static classification of one plan into symbolic and dense actions.

    ``actions[i]`` tags instruction ``i``:

    * ``("advance-sym", parent_path, new_path, derive)`` — cross the
      segment symbolically; ``derive`` marks the first visit to
      ``new_path`` (the runtime derives its anchor there).
    * ``("advance-mat", path, frame, events)`` — the frame cannot cross:
      materialize at ``path`` first, then run the segment (and the whole
      subtree until the next outer ``Restore``) dense.
    * ``("finish-sym", path, frame)`` / ``("emit-sym", path, frame)`` —
      materialize the payload from the anchor.
    * ``("snapshot-sym",)`` / ``("inject-sym",)`` / ``("restore-sym",)``
      — pure bookkeeping on the symbolic side.
    * ``(..."-dense",)`` — the serial dense behavior, verbatim.

    ``path_uses`` counts, per anchor path, every runtime use (child
    derivations + materializations + borrows); the runtime decrements and
    releases at zero, so the static residency peaks below are exact.
    """

    def __init__(
        self,
        layered: LayeredCircuit,
        actions: List[Tuple],
        path_uses: Dict[Tuple[int, ...], int],
        derive_gates: Dict[Tuple[int, ...], int],
        stats: Dict[str, int],
    ) -> None:
        self.layered = layered
        self.actions = actions
        self.path_uses = path_uses
        self.derive_gates = derive_gates
        self.stats = stats

    @property
    def active(self) -> bool:
        """Whether the symbolic path saves any dense work at all.

        ``savings = symbolic_gates - anchor_ops``: gates crossed by frames
        minus gates spent deriving anchors.  Zero means every symbolic
        span is walked exactly once (no sibling sharing, no frame ever
        crosses a segment another trial also crosses) — the hybrid would
        only add bookkeeping, so the executor falls back to the serial
        path wholesale.
        """
        return bool(self.stats["savings"] > 0)


def classify_instructions(
    layered: LayeredCircuit,
    instructions: Sequence[Any],
) -> HybridSchedule:
    """Statically split an instruction stream into symbolic/dense actions.

    A fold over :class:`~repro.core.schedule.PlanWalk`, so it accepts plan
    instructions plus the parallel partitioner's ``EmitTask``.  The walk
    pairs every ``Restore`` with its ``Snapshot`` and carries the event
    history; the fold keeps only each state's own fact — ``(anchor path,
    frame)`` for a symbolic state, ``_DENSE`` for a dense one — keyed by
    the slot the walk reports.  Frames are conjugated through the shadow
    segment matrices (`_shadow_segment`), and every residency statistic
    is derived from the same use-counting the runtime applies.
    """
    shadow_cache: Dict[Tuple[int, int], Tuple] = {}

    def shadow(a: int, b: int) -> Tuple:
        key = (a, b)
        prog = shadow_cache.get(key)
        if prog is None:
            prog = _shadow_segment(layered, a, b)
            shadow_cache[key] = prog
        return prog

    actions: List[Tuple] = []
    slots: Dict[int, Any] = {}
    working: Any = (ROOT_PATH, PauliFrame(layered.num_qubits))
    derive_gates: Dict[Tuple[int, ...], int] = {ROOT_PATH: 0}
    # Chronological use events: ("use", path) | ("create", path) |
    # ("dense", +-1) | ("transient",) — replayed afterwards for peaks.
    timeline: List[Tuple] = [("create", ROOT_PATH)]
    path_uses: Dict[Tuple[int, ...], int] = {ROOT_PATH: 0}
    count = dict.fromkeys(
        (
            "planned_ops", "symbolic_gates", "dense_gates",
            "symbolic_injects", "dense_injects", "materializations",
            "borrows",
        ),
        0,
    )
    sym_stored = 0
    dense_stored = 0
    peak_sym_stored = 0
    peak_dense_stored = 0

    def use(path: Tuple[int, ...]) -> None:
        path_uses[path] += 1
        timeline.append(("use", path))

    def deliver(kind: str) -> None:
        """A Finish or EmitTask payload: borrow or materialize the anchor."""
        if working is _DENSE:
            actions.append((kind + "-dense",))
            return
        path, frame = working
        use(path)
        if frame.is_identity:
            count["borrows"] += 1
        else:
            count["materializations"] += 1
            timeline.append(("transient",))
        actions.append((kind + "-sym", path, frame.copy()))

    for step in PlanWalk(instructions, layered.num_layers):
        if step.fault:
            raise step.error()
        instr = step.instr
        if isinstance(instr, Advance):
            gates = layered.gates_between(instr.start_layer, instr.end_layer)
            count["planned_ops"] += gates
            if working is _DENSE:
                count["dense_gates"] += gates
                actions.append(("advance-dense",))
                continue
            path, frame = working
            crossed: Optional[PauliFrame] = frame
            if not frame.is_identity:
                trial_frame = crossed = frame.copy()
                for matrix, qubits in shadow(
                    instr.start_layer, instr.end_layer
                ):
                    if not trial_frame.try_conjugate_matrix(matrix, qubits):
                        crossed = None
                        break
            if crossed is None:
                # Materialize here; the subtree under this advance (until
                # the next Restore of an outer slot) runs dense.
                use(path)
                timeline.append(("transient",))
                timeline.append(("dense", 1))
                count["materializations"] += 1
                count["dense_gates"] += gates
                actions.append(("advance-mat", path, frame, step.history))
                working = _DENSE
                continue
            new_path = path + (instr.end_layer,)
            derive = new_path not in derive_gates
            if derive:
                derive_gates[new_path] = gates
                path_uses.setdefault(new_path, 0)
                use(path)
                timeline.append(("create", new_path))
            count["symbolic_gates"] += gates
            actions.append(("advance-sym", path, new_path, derive))
            working = (new_path, crossed)
        elif isinstance(instr, Snapshot):
            slots[instr.slot] = working
            if working is _DENSE:
                timeline.append(("dense", 1))
                actions.append(("snapshot-dense",))
                dense_stored += 1
                peak_dense_stored = max(peak_dense_stored, dense_stored)
            else:
                actions.append(("snapshot-sym",))
                sym_stored += 1
                peak_sym_stored = max(peak_sym_stored, sym_stored)
        elif isinstance(instr, Inject):
            count["planned_ops"] += 1
            if working is _DENSE:
                count["dense_injects"] += 1
                actions.append(("inject-dense",))
            else:
                path, frame = working
                frame = frame.copy()
                frame.inject(instr.event.pauli, instr.event.qubit)
                working = (path, frame)
                count["symbolic_injects"] += 1
                actions.append(("inject-sym",))
        elif isinstance(instr, Restore):
            if working is _DENSE:
                timeline.append(("dense", -1))
            working = slots.pop(instr.slot)
            if working is _DENSE:
                actions.append(("restore-dense",))
                dense_stored -= 1
            else:
                actions.append(("restore-sym",))
                sym_stored -= 1
        elif isinstance(instr, Finish):
            deliver("finish")
        else:
            deliver("emit")

    # ---- residency replay: anchors live from creation to last use -------
    live_anchors = 0
    dense_live = 0
    peak_anchors = 0
    peak_real = 0
    remaining = dict(path_uses)
    for event in timeline:
        kind = event[0]
        transient = 0
        if kind == "create":
            live_anchors += 1
        elif kind == "use":
            path = event[1]
            remaining[path] -= 1
            if remaining[path] == 0:
                live_anchors -= 1
        elif kind == "dense":
            dense_live += event[1]
        elif kind == "transient":
            transient = 1
        peak_anchors = max(peak_anchors, live_anchors)
        peak_real = max(peak_real, live_anchors + dense_live + transient)

    anchor_ops = sum(derive_gates.values())
    stats = dict(
        count,
        anchors=len(derive_gates),
        anchor_ops=anchor_ops,
        savings=count["symbolic_gates"] - anchor_ops,
        peak_anchors=peak_anchors,
        peak_real_states=peak_real,
        peak_sym_stored=peak_sym_stored,
        peak_dense_stored=peak_dense_stored,
    )
    return HybridSchedule(
        layered, actions, path_uses, derive_gates, stats
    )


def classify_plan(
    layered: LayeredCircuit, plan: ExecutionPlan
) -> HybridSchedule:
    """Classify a full execution plan (see :func:`classify_instructions`)."""
    return classify_instructions(layered, plan.instructions)


class HybridOutcome(ExecutionOutcome):
    """Serial-parity counters plus the hybrid's real-work statistics.

    ``ops_applied`` / ``peak_msv`` are the *nominal* plan-mirror values —
    byte-for-byte what :func:`run_optimized` reports for the same plan —
    so every downstream metric (normalized computation, lint conservation
    checks) is invariant under the hybrid switch.  The actual dense work
    and residency live in ``hybrid``.
    """

    def __init__(
        self,
        ops_applied: int,
        num_trials: int,
        cache_stats,
        finish_calls: int,
        hybrid: Dict[str, int],
        active: bool,
    ) -> None:
        super().__init__(ops_applied, num_trials, cache_stats, finish_calls)
        self.hybrid = hybrid
        self.active = active

    def __repr__(self) -> str:
        return (
            f"HybridOutcome(ops={self.ops_applied}, "
            f"trials={self.num_trials}, peak_msv={self.peak_msv}, "
            f"active={self.active})"
        )


class _AnchorStore:
    """Dense anchor states keyed by boundary path, refcounted statically."""

    def __init__(
        self,
        layered: LayeredCircuit,
        backend,
        schedule: HybridSchedule,
        recorder,
    ) -> None:
        self.layered = layered
        self.backend = backend
        self.recorder = recorder
        self.states: Dict[Tuple[int, ...], Statevector] = {}
        self.remaining = dict(schedule.path_uses)
        self.live_peak = 0
        self.anchor_ops = 0
        root = Statevector(layered.num_qubits)
        self.states[ROOT_PATH] = root
        self._sample()

    def _sample(self) -> None:
        live = len(self.states)
        if live > self.live_peak:
            self.live_peak = live
        if self.recorder:
            self.recorder.gauge("hybrid.anchors.live", live)

    def derive(
        self, parent: Tuple[int, ...], child: Tuple[int, ...]
    ) -> None:
        """Materialize ``anchor(child)`` with the serial segment kernels."""
        if child in self.states:
            return
        source = self.states.get(parent)
        if source is None:
            raise ScheduleError(
                f"hybrid anchor {parent} released before deriving {child}"
            )
        start, end = child[-2], child[-1]
        state = source.copy()
        recorder = self.recorder
        gates = self.layered.gates_between(start, end)
        if recorder:
            recorder.begin(
                f"hybrid.derive[{start},{end})", cat="hybrid", gates=gates
            )
        self.backend.apply_layers(state, start, end)
        if recorder:
            recorder.end(f"hybrid.derive[{start},{end})", cat="hybrid")
            recorder.counter("hybrid.anchor_ops", gates)
            recorder.counter("hybrid.anchors", 1)
        self.anchor_ops += gates
        self.states[child] = state
        self.release(parent)
        self._sample()

    def release(self, path: Tuple[int, ...]) -> None:
        """Consume one statically counted use; free the anchor at zero."""
        self.remaining[path] -= 1
        if self.remaining[path] == 0:
            del self.states[path]
            self._sample()

    def get(self, path: Tuple[int, ...]) -> Statevector:
        state = self.states.get(path)
        if state is None:
            raise ScheduleError(f"hybrid anchor {path} is not resident")
        return state

    def materialize(
        self, path: Tuple[int, ...], frame: PauliFrame
    ) -> Statevector:
        """Frame applied to the anchor — a fresh, mutable statevector."""
        anchor = self.get(path)
        if frame.is_identity:
            result = anchor.copy()
        else:
            tensor = frame.apply_to_tensor(anchor._tensor)
            result = Statevector.from_buffer(
                tensor.reshape(-1), self.layered.num_qubits
            )
        self.release(path)
        return result

    def borrow(self, path: Tuple[int, ...]) -> Statevector:
        """The anchor itself (identity frame) — callers must not mutate."""
        anchor = self.get(path)
        self.release(path)
        return anchor


def run_hybrid(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend,
    on_finish: Optional[FinishCallback] = None,
    plan: Optional[ExecutionPlan] = None,
    check: bool = False,
    recorder=None,
    batch_size: int = 0,
    schedule: Optional[HybridSchedule] = None,
    stop=None,
) -> HybridOutcome:
    """Execute ``trials`` with the Clifford/Pauli-frame fast path.

    Drop-in alternative to :func:`~repro.core.executor.run_optimized`
    (``batch_size=0``) or :func:`~repro.core.wavefront.run_wavefront`
    (``batch_size >= 1``, dense subtrees delegated as batched fragments):
    same ``on_finish`` payload/index stream in the same order, bitwise
    identical payload amplitudes, identical nominal ``ops_applied`` and
    ``peak_msv``.  Requires a compiled statevector backend (anchors are
    advanced with the backend's own memoized segment kernels).

    When the static classifier finds no sharable symbolic work
    (``schedule.active`` is false) the run is delegated wholesale to the
    serial or wavefront executor — zero overhead, trivially bit-exact —
    and the outcome reports ``active=False``.

    ``stop`` (a ``threading.Event``) is polled before every plan action
    and inside delegated fragments; once set, the run raises
    :class:`~repro.core.executor.RunInterrupted` counting the trials
    delivered so far.
    """
    if plan is None:
        plan = build_plan(layered, trials)
    if plan.num_trials != len(trials):
        raise ScheduleError(
            f"plan covers {plan.num_trials} trials, got {len(trials)}"
        )
    if not hasattr(backend, "compiled"):
        raise ScheduleError(
            "hybrid execution needs a compiled statevector backend "
            f"(CompiledStatevectorBackend); got {type(backend).__name__}"
        )
    if check:
        plan.validate(trials=trials, layered=layered)
    if schedule is None:
        schedule = classify_plan(layered, plan)
    if check:
        from ..lint.hybrid_rules import verify_schedule

        problems = verify_schedule(layered, plan.instructions, schedule)
        if problems:
            raise ScheduleError("; ".join(problems))

    if not schedule.active:
        if batch_size >= 1:
            from .wavefront import run_wavefront

            base = run_wavefront(
                layered, trials, backend, on_finish=on_finish, plan=plan,
                batch_size=batch_size, check=False, recorder=recorder,
                stop=stop,
            )
        else:
            base = run_optimized(
                layered, trials, backend, on_finish=on_finish, plan=plan,
                check=False, recorder=recorder, stop=stop,
            )
        hybrid_stats = dict(schedule.stats)
        hybrid_stats.update(
            anchors_derived=0, real_anchor_ops=0, real_dense_ops=base.ops_applied,
            peak_anchors_live=0, fragments=0,
        )
        return HybridOutcome(
            ops_applied=base.ops_applied,
            num_trials=base.num_trials,
            cache_stats=base.cache_stats,
            finish_calls=base.finish_calls,
            hybrid=hybrid_stats,
            active=False,
        )

    backend.reset_counter()
    backend.set_recorder(recorder)
    cache = StateCache(recorder=recorder)
    if recorder:
        _record_run_meta(
            recorder, "hybrid", layered, trials, num_instructions=len(plan)
        )
        recorder.begin("run", cat="run")

    anchors = _AnchorStore(layered, backend, schedule, recorder)
    instructions = plan.instructions
    actions = schedule.actions
    num_layers = layered.num_layers

    #: nominal working token stored in the cache for symbolic states so
    #: the plan-mirror peak accounting matches the serial executor's.
    working: Any = _Sym(ROOT_PATH, PauliFrame(layered.num_qubits), ())
    working_layer = 0
    cache.working_created()
    working_moved = False
    finish_calls = 0
    nominal_ops = 0
    real_dense_ops = 0
    clifford_ops = 0
    materialize_count = 0
    borrow_count = 0
    fragments = 0
    trials_done = 0
    peak_candidates: List[int] = []

    def materialize_payload(
        path: Tuple[int, ...], frame: PauliFrame
    ) -> Statevector:
        nonlocal materialize_count, borrow_count
        if frame.is_identity:
            borrow_count += 1
            if recorder:
                recorder.counter("hybrid.borrows", 1)
            return anchors.borrow(path)
        materialize_count += 1
        if recorder:
            recorder.counter("hybrid.materialize", 1)
        return anchors.materialize(path, frame)

    index = 0
    total = len(instructions)
    while index < total:
        if stop is not None and stop.is_set():
            if isinstance(working, Statevector):
                backend.release_state(working)
            raise RunInterrupted(
                "hybrid run interrupted by stop request",
                trials_completed=trials_done,
            )
        instr = instructions[index]
        action = actions[index]
        kind = action[0]
        if isinstance(instr, Advance):
            if instr.start_layer != working_layer:
                raise ScheduleError(
                    f"advance from layer {instr.start_layer} but working "
                    f"state is at layer {working_layer}"
                )
            gates = layered.gates_between(instr.start_layer, instr.end_layer)
            nominal_ops += gates
            if recorder:
                span = f"advance[{instr.start_layer},{instr.end_layer})"
                recorder.begin(span, cat="segment", gates=gates)
            if kind == "advance-sym":
                # The classifier already proved the frame crosses this
                # segment; the runtime only moves the path marker.  The
                # conjugated frames live in the action payloads at every
                # materialization point, so no frame state is tracked here.
                _, parent, new_path, derive = action
                if derive:
                    anchors.derive(parent, new_path)
                working = _Sym(new_path, working.frame, working.events)
                clifford_ops += gates
                if recorder:
                    recorder.counter("hybrid.clifford_ops", gates)
            elif kind == "advance-mat":
                _, path, frame, events = action
                if not isinstance(working, _Sym) or working.path != path:
                    raise ScheduleError(
                        "hybrid schedule out of sync at materialization"
                    )
                dense = materialize_payload(path, frame)
                if dense is anchors.states.get(path):
                    dense = dense.copy()
                if batch_size >= 1:
                    # Delegate the whole dense subtree as one batched
                    # fragment; the loop resumes at the outer Restore,
                    # the first one the classifier tagged symbolic.
                    end = next(
                        (
                            j for j in range(index + 1, total)
                            if actions[j][0] == "restore-sym"
                        ),
                        total,
                    )
                    sub_plan, ordered_globals, groups = localize_plan(
                        instructions[index:end], num_layers
                    )
                    sub_finishes = len(groups)
                    sub_trials = [trials[g] for g in ordered_globals]

                    def sub_finish(payload, local_indices, _map=ordered_globals):
                        nonlocal trials_done
                        if on_finish is not None:
                            on_finish(
                                payload,
                                tuple(_map[li] for li in local_indices),
                            )
                        trials_done += len(local_indices)

                    if recorder:
                        recorder.end(span, cat="segment")
                        recorder.counter("ops.applied", gates)
                    cache.working_destroyed()
                    from .wavefront import run_wavefront

                    saved_recorder = backend.recorder
                    try:
                        sub = run_wavefront(
                            layered,
                            sub_trials,
                            backend,
                            on_finish=sub_finish,
                            plan=sub_plan,
                            batch_size=batch_size,
                            check=False,
                            recorder=None,
                            entry_state=dense,
                            entry_layer=instr.start_layer,
                            entry_events=events,
                            stop=stop,
                        )
                    except RunInterrupted as exc:
                        exc.trials_completed = trials_done
                        raise
                    backend.set_recorder(saved_recorder)
                    fragments += 1
                    finish_calls += sub_finishes
                    nominal_ops += sub.ops_applied - gates
                    real_dense_ops += sub.ops_applied
                    peak_candidates.append(cache.num_live + sub.peak_msv)
                    if recorder:
                        recorder.instant(
                            "hybrid.fragment",
                            cat="hybrid",
                            instructions=end - index,
                            ops=sub.ops_applied - gates,
                            finishes=sub_finishes,
                        )
                        recorder.counter(
                            "ops.applied", sub.ops_applied - gates
                        )
                        recorder.counter(
                            "trials.finished", len(ordered_globals)
                        )
                        recorder.counter("hybrid.fragments", 1)
                    working = None
                    index = end
                    continue
                working = backend.adopt_state(dense)
                backend.apply_layers(
                    working, instr.start_layer, instr.end_layer
                )
                real_dense_ops += gates
            else:  # advance-dense
                backend.apply_layers(
                    working, instr.start_layer, instr.end_layer
                )
                real_dense_ops += gates
            if recorder:
                recorder.end(span, cat="segment")
                recorder.counter("ops.applied", gates)
            working_layer = instr.end_layer
        elif isinstance(instr, Snapshot):
            moved = index + 1 < total and isinstance(
                instructions[index + 1], Restore
            )
            if kind == "snapshot-sym":
                snapshot: Any = working if moved else working.copy()
            else:
                snapshot = (
                    working if moved else backend.copy_state(working)
                )
            try:
                assigned = cache.store(snapshot, working_layer, slot=instr.slot)
            except RuntimeError as exc:
                raise ScheduleError(str(exc)) from exc
            if assigned != instr.slot:
                raise ScheduleError(
                    f"cache stored snapshot in slot {assigned}, plan "
                    f"expected slot {instr.slot}"
                )
            working_moved = moved
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
        elif isinstance(instr, Inject):
            event = instr.event
            if event.layer + 1 != working_layer:
                raise ScheduleError(
                    f"inject {event} at working layer {working_layer}"
                )
            nominal_ops += 1
            if kind == "inject-sym":
                # Pure accounting: the classifier folded the Pauli into
                # the frames carried by downstream action payloads.
                pass
            else:
                backend.apply_operator(working, event.gate, (event.qubit,))
                real_dense_ops += 1
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
            if working is None:
                # A batched fragment consumed the working state; the
                # nominal destroy already happened before delegation.
                pass
            elif working_moved:
                working_moved = False
                cache.working_destroyed()
            else:
                if isinstance(working, Statevector):
                    backend.release_state(working)
                cache.working_destroyed()
            working, working_layer = cache.take(instr.slot)
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
            borrowed = index + 1 >= total or isinstance(
                instructions[index + 1], Restore
            )
            if kind == "finish-sym":
                _, path, frame = action
                if not isinstance(working, _Sym) or working.path != path:
                    raise ScheduleError(
                        "hybrid schedule out of sync at finish"
                    )
                if on_finish is not None:
                    payload = materialize_payload(path, frame)
                    on_finish(payload, instr.trial_indices)
                else:
                    anchors.release(path)
            else:
                if on_finish is not None:
                    payload = (
                        backend.finish_view(working)
                        if borrowed
                        else backend.finish(working)
                    )
                    on_finish(payload, instr.trial_indices)
            if recorder:
                recorder.instant(
                    "finish",
                    cat="exec",
                    trials=len(instr.trial_indices),
                    moved=borrowed,
                )
                recorder.counter("trials.finished", len(instr.trial_indices))
                if borrowed:
                    recorder.counter("finish.moved", 1)
            trials_done += len(instr.trial_indices)
        else:
            raise ScheduleError(f"unknown plan instruction {instr!r}")
        index += 1

    if working is not None:
        if isinstance(working, Statevector):
            backend.release_state(working)
        cache.working_destroyed()
    cache.assert_drained()
    stats = cache.stats()
    if peak_candidates:
        # Fold each delegated fragment's internal peak into the nominal
        # bound: outer live states at delegation time plus the fragment's
        # own peak — exactly what the serial/wavefront walk would report.
        stats.peak_msv = max([stats.peak_msv] + peak_candidates)
    hybrid_stats = dict(schedule.stats)
    hybrid_stats.update(
        anchors_derived=len(schedule.derive_gates),
        real_anchor_ops=anchors.anchor_ops,
        real_dense_ops=real_dense_ops,
        real_clifford_ops=clifford_ops,
        real_materializations=materialize_count,
        real_borrows=borrow_count,
        peak_anchors_live=anchors.live_peak,
        fragments=fragments,
    )
    outcome = HybridOutcome(
        ops_applied=nominal_ops,
        num_trials=len(trials),
        cache_stats=stats,
        finish_calls=finish_calls,
        hybrid=hybrid_stats,
        active=True,
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


def run_hybrid_prefix(
    partition,
    layered: LayeredCircuit,
    backend,
    entries: np.ndarray,
    recorder,
) -> Dict[str, int]:
    """Hybrid-aware replacement for the parallel phase-1 prefix runner.

    Interprets the partition's prefix program symbolically where the
    classifier allows it; ``EmitTask`` serializes the materialized entry
    state into the shared ``entries`` row bitwise equal to the dense
    prefix walk, so workers (which always run dense) produce identical
    results.  Returns the same counter dict as the dense ``_run_prefix``
    with nominal (plan-mirror) operation accounting.
    """
    if not hasattr(backend, "compiled"):
        raise ScheduleError(
            "hybrid prefix execution needs a compiled statevector backend "
            f"(CompiledStatevectorBackend); got {type(backend).__name__}"
        )
    instructions = partition.prefix
    schedule = classify_instructions(layered, instructions)
    if not schedule.active:
        from .parallel import _run_prefix

        return _run_prefix(partition, layered, backend, entries, recorder)

    backend.reset_counter()
    backend.set_recorder(recorder)
    cache = StateCache(recorder=recorder)
    if recorder:
        recorder.begin(
            "prefix",
            cat="parallel",
            tasks=partition.num_tasks,
            depth=partition.depth,
        )
    anchors = _AnchorStore(layered, backend, schedule, recorder)
    working: Any = _Sym(ROOT_PATH, PauliFrame(layered.num_qubits), ())
    working_layer = 0
    cache.working_created()
    emitted = 0
    peak_live = 1
    peak_stored = 0
    nominal_ops = 0
    actions = schedule.actions

    for index, instr in enumerate(instructions):
        action = actions[index]
        kind = action[0]
        if isinstance(instr, Advance):
            if instr.start_layer != working_layer:
                raise ScheduleError(
                    f"prefix advance from layer {instr.start_layer} but "
                    f"working state is at layer {working_layer}"
                )
            gates = layered.gates_between(instr.start_layer, instr.end_layer)
            nominal_ops += gates
            if recorder:
                span = f"advance[{instr.start_layer},{instr.end_layer})"
                recorder.begin(span, cat="segment", gates=gates)
            if kind == "advance-sym":
                _, parent, new_path, derive = action
                if derive:
                    anchors.derive(parent, new_path)
                working = _Sym(new_path, working.frame, working.events)
                if recorder:
                    recorder.counter("hybrid.clifford_ops", gates)
            elif kind == "advance-mat":
                _, path, frame, _events = action
                if not isinstance(working, _Sym) or working.path != path:
                    raise ScheduleError(
                        "hybrid prefix out of sync at materialization"
                    )
                dense = anchors.materialize(path, frame)
                working = backend.adopt_state(dense)
                backend.apply_layers(
                    working, instr.start_layer, instr.end_layer
                )
            else:
                backend.apply_layers(
                    working, instr.start_layer, instr.end_layer
                )
            if recorder:
                recorder.end(span, cat="segment")
                recorder.counter("ops.applied", gates)
            working_layer = instr.end_layer
        elif isinstance(instr, Snapshot):
            if kind == "snapshot-sym":
                cache.store(working.copy(), working_layer, slot=instr.slot)
            else:
                cache.store(
                    backend.copy_state(working), working_layer,
                    slot=instr.slot,
                )
            if recorder:
                recorder.instant(
                    "cache.store", cat="cache", slot=instr.slot,
                    layer=working_layer,
                )
        elif isinstance(instr, Inject):
            event = instr.event
            if event.layer + 1 != working_layer:
                raise ScheduleError(
                    f"prefix inject {event} at working layer {working_layer}"
                )
            nominal_ops += 1
            if kind == "inject-sym":
                pass  # folded into downstream action-payload frames
            else:
                backend.apply_operator(working, event.gate, (event.qubit,))
            if recorder:
                recorder.instant(
                    "inject", cat="exec", layer=event.layer,
                    qubit=event.qubit, pauli=event.pauli,
                )
                recorder.counter("ops.applied", 1)
        elif isinstance(instr, Restore):
            if isinstance(working, Statevector):
                backend.release_state(working)
            cache.working_destroyed()
            working, working_layer = cache.take(instr.slot)
            cache.working_created()
            if recorder:
                recorder.instant(
                    "cache.hit", cat="cache", slot=instr.slot,
                    layer=working_layer, evict=True,
                )
        elif isinstance(instr, EmitTask):
            task = partition.tasks[instr.task_id]
            if working_layer != task.entry_layer:
                raise ScheduleError(
                    f"task {task.task_id} entry at layer {task.entry_layer} "
                    f"but working state is at layer {working_layer}"
                )
            if kind == "emit-sym":
                _, path, frame = action
                if frame.is_identity:
                    source = anchors.borrow(path)
                    np.copyto(entries[instr.task_id], source.vector)
                else:
                    materialized = anchors.materialize(path, frame)
                    np.copyto(entries[instr.task_id], materialized.vector)
            else:
                np.copyto(entries[instr.task_id], working.vector)
            emitted += 1
            if recorder:
                recorder.instant(
                    "task.emit", cat="parallel", task=task.task_id,
                    layer=working_layer, trials=len(task.trial_indices),
                )
                recorder.counter("tasks.emitted", 1)
            next_instr = (
                instructions[index + 1]
                if index + 1 < len(instructions)
                else None
            )
            if not isinstance(next_instr, Restore):
                if isinstance(working, Statevector):
                    backend.release_state(working)
                cache.working_destroyed()
                working = None
        else:
            raise ScheduleError(f"unknown prefix instruction {instr!r}")
        peak_live = max(peak_live, cache.num_live + emitted)
        peak_stored = max(peak_stored, cache.num_stored + emitted)

    if working is not None:
        raise ScheduleError(
            "prefix program ended without consuming the working state "
            "(last instruction must be an EmitTask)"
        )
    cache.assert_drained()
    stats = cache.stats()
    if recorder:
        recorder.end(
            "prefix", cat="parallel", ops_applied=nominal_ops,
            tasks_emitted=emitted,
        )
    return {
        "ops": nominal_ops,
        "peak_live": peak_live,
        "peak_stored": peak_stored,
        "snapshots_taken": stats.snapshots_taken,
        "emitted": emitted,
    }

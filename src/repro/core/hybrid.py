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
  objects, identical float rounding — so an
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
or phase permutations); a layer's fused diagonal, a 1-D entry, is
crossed only by frames with no X bit on its qubits.  The matrices are
:meth:`~repro.sim.compiled.CompiledCircuit.matrices`, one entry per kernel
of the segment, so the check and the arithmetic read one statement of
what a segment applies.  Segments that fail the check
force a materialization point; the subtree below it runs dense.

Execution is :func:`repro.core.executor.run_optimized`'s own instruction
loop over a different state model (:class:`_HybridStates`): a symbolic
working state is just its anchor path, and the dense subtrees hold
backend states exactly as the serial executor does.

The static classifier (:func:`classify_plan`) decides every action ahead
of execution, so the schedule is lint-provable (rule ``P026``) and the
cost model can price the hybrid run without touching a backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..circuits.layers import LayeredCircuit
from ..sim.compiled import CompiledCircuit
from ..sim.stabilizer import PauliFrame
from ..sim.statevector import Statevector
from .cache import StateCache
from .events import Trial
from .executor import (
    ExecutionOutcome,
    FinishCallback,
    _DenseStates,
    _end_run,
    _interpret,
    _record_run_meta,
    run_optimized,
)
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
    "HybridOutcome",
    "HybridSchedule",
    "classify_plan",
    "run_hybrid",
]

#: Boundary path of the root anchor: the initial state |0...0> at layer 0.
ROOT_PATH: Tuple[int, ...] = (0,)


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
    * ``("finish-sym", path, frame)`` — materialize the payload from the
      anchor.
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


def classify_plan(
    layered: LayeredCircuit,
    plan: ExecutionPlan,
    compiled: Optional[CompiledCircuit] = None,
) -> HybridSchedule:
    """Statically split a plan's instructions into symbolic/dense actions.

    A fold over :class:`~repro.core.schedule.PlanWalk`.  The walk
    pairs every ``Restore`` with its ``Snapshot`` and carries the event
    history; the fold keeps only each state's own fact — ``(anchor path,
    frame)`` for a symbolic state, ``_DENSE`` for a dense one — keyed by
    the slot the walk reports.  Frames are conjugated through the
    entries each segment applies
    (:meth:`~repro.sim.compiled.CompiledCircuit.matrices` of
    ``compiled``, built here when omitted), which compiles no segment, and
    every residency statistic is derived from the same use-counting the
    runtime applies.
    """
    if compiled is None:
        compiled = CompiledCircuit(layered)
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

    for step in PlanWalk(plan.instructions, layered.num_layers):
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
                for matrix, qubits in compiled.matrices(
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
            # The payload borrows or materializes the anchor.
            if working is _DENSE:
                actions.append(("finish-dense",))
                continue
            path, frame = working
            use(path)
            if frame.is_identity:
                count["borrows"] += 1
            else:
                count["materializations"] += 1
                timeline.append(("transient",))
            actions.append(("finish-sym", path, frame.copy()))
        else:
            raise ScheduleError(f"unknown plan instruction {instr!r}")

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


class HybridOutcome(ExecutionOutcome):
    """Serial-parity counters plus the hybrid's real-work statistics.

    ``ops_applied``, ``peak_msv`` and ``peak_stored`` are the *nominal*
    plan-mirror values — what :func:`run_optimized` reports for the same
    plan —
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

    def payload(
        self, path: Tuple[int, ...], frame: PauliFrame
    ) -> Statevector:
        """``frame`` applied to the anchor: the anchor itself for the
        identity frame (borrowed — callers must not mutate it), else a
        fresh, mutable statevector."""
        anchor = self.states.get(path)
        if anchor is None:
            raise ScheduleError(f"hybrid anchor {path} is not resident")
        if not frame.is_identity:
            tensor = frame.apply_to_tensor(anchor._tensor)
            anchor = Statevector.from_buffer(
                tensor.reshape(-1), self.layered.num_qubits
            )
        self.release(path)
        return anchor


class _HybridStates(_DenseStates):
    """The hybrid state model for the one plan loop.

    A symbolic working state is just its anchor path (a tuple); below a
    materialization point the working state is a backend state and every
    instruction runs as in :class:`~repro.core.executor._DenseStates`.
    The classifier's action for each instruction says which side it is
    on.  ``ops_applied`` is the nominal plan-mirror count, what
    :func:`~repro.core.executor.run_optimized` reports for the same plan.
    """

    def __init__(
        self, layered: LayeredCircuit, backend, cache, recorder,
        schedule: HybridSchedule,
    ) -> None:
        super().__init__(layered, backend, cache, recorder, ROOT_PATH)
        self.actions = schedule.actions
        self.anchors = _AnchorStore(layered, backend, schedule, recorder)
        self.nominal_ops = 0
        self.dense_ops = 0
        self.clifford_ops = 0
        self.materializations = 0
        self.borrows = 0

    @property
    def ops_applied(self) -> int:
        return self.nominal_ops

    def _payload(self, action: Tuple, where: str) -> Statevector:
        path, frame = action[1], action[2]
        if self.working != path:
            raise ScheduleError(f"hybrid schedule out of sync at {where}")
        if frame.is_identity:
            self.borrows += 1
            if self.recorder:
                self.recorder.counter("hybrid.borrows", 1)
        else:
            self.materializations += 1
            if self.recorder:
                self.recorder.counter("hybrid.materialize", 1)
        return self.anchors.payload(path, frame)

    def advance(self, index: int, instr: Advance) -> None:
        gates = self.layered.gates_between(instr.start_layer, instr.end_layer)
        self.nominal_ops += gates
        action = self.actions[index]
        if action[0] == "advance-sym":
            # The classifier already proved the frame crosses this
            # segment; only the path moves.  The conjugated frames live in
            # the action payloads at every materialization point.
            _, parent, path, derive = action
            if derive:
                self.anchors.derive(parent, path)
            self.working = path
            self.clifford_ops += gates
            if self.recorder:
                self.recorder.counter("hybrid.clifford_ops", gates)
            return
        if action[0] == "advance-mat":
            dense = self._payload(action, "materialization")
            if dense is self.anchors.states.get(action[1]):
                dense = dense.copy()
            self.working = self.backend.adopt_state(dense)
        super().advance(index, instr)
        self.dense_ops += gates

    def inject(self, index: int, event) -> None:
        self.nominal_ops += 1
        # A symbolic Pauli is already folded into the downstream frames.
        if self.actions[index][0] == "inject-dense":
            super().inject(index, event)
            self.dense_ops += 1

    def snapshot(self, index: int, slot: int, layer: int):
        if self.actions[index][0] == "snapshot-sym":
            return self.working  # a path is immutable: nothing to copy
        return super().snapshot(index, slot, layer)

    def finish(self, index: int, deliver: bool):
        action = self.actions[index]
        if action[0] != "finish-sym":
            return super().finish(index, deliver)
        if deliver:
            return self._payload(action, "finish")
        self.anchors.release(action[1])
        return None

    def release(self) -> None:
        if not isinstance(self.working, tuple):
            super().release()


def _require_compiled(backend) -> None:
    """Anchors advance with the backend's own memoized segment kernels."""
    if not hasattr(backend, "compiled"):
        raise ScheduleError(
            "hybrid execution needs a compiled statevector backend "
            f"(CompiledStatevectorBackend); got {type(backend).__name__}"
        )


def run_hybrid(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend,
    on_finish: Optional[FinishCallback] = None,
    plan: Optional[ExecutionPlan] = None,
    check: bool = False,
    recorder=None,
    schedule: Optional[HybridSchedule] = None,
    stop=None,
) -> HybridOutcome:
    """Execute ``trials`` with the Clifford/Pauli-frame fast path.

    Drop-in alternative to :func:`~repro.core.executor.run_optimized`:
    the same instruction loop over the hybrid state model, so the same
    ``on_finish`` payload/index stream in the same order, bitwise
    identical payload amplitudes, identical nominal ``ops_applied``,
    ``peak_msv`` and ``peak_stored``.  Requires a compiled statevector
    backend (anchors are advanced with the backend's own memoized
    segment kernels).

    When the static classifier finds no sharable symbolic work
    (``schedule.active`` is false) the run is delegated wholesale to
    :func:`~repro.core.executor.run_optimized` — zero overhead, trivially
    bit-exact — and the outcome reports ``active=False``.

    ``stop`` (a ``threading.Event``) is polled before every plan
    instruction; once set, the run raises
    :class:`~repro.core.executor.RunInterrupted` counting the trials
    delivered so far.
    """
    if plan is None:
        plan = build_plan(layered, trials)
    if plan.num_trials != len(trials):
        raise ScheduleError(
            f"plan covers {plan.num_trials} trials, got {len(trials)}"
        )
    _require_compiled(backend)
    if check:
        plan.validate(trials=trials, layered=layered)
    if schedule is None:
        schedule = classify_plan(layered, plan, backend.compiled)
    if check:
        from ..lint.hybrid_rules import verify_schedule

        problems = verify_schedule(layered, plan.instructions, schedule)
        if problems:
            raise ScheduleError("; ".join(problems))

    if not schedule.active:
        base = run_optimized(
            layered, trials, backend, on_finish=on_finish, plan=plan,
            recorder=recorder, stop=stop,
        )
        return HybridOutcome(
            ops_applied=base.ops_applied,
            num_trials=base.num_trials,
            cache_stats=base.cache_stats,
            finish_calls=base.finish_calls,
            hybrid=dict(
                schedule.stats, anchors_derived=0, real_anchor_ops=0,
                real_dense_ops=base.ops_applied, peak_anchors_live=0,
            ),
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
    model = _HybridStates(layered, backend, cache, recorder, schedule)
    finish_calls = _interpret(
        plan.instructions, layered, model, cache, recorder,
        on_finish=on_finish, stop=stop, name="hybrid",
    )
    return _end_run(
        recorder,
        HybridOutcome(
            ops_applied=model.nominal_ops,
            num_trials=len(trials),
            cache_stats=cache.stats(),
            finish_calls=finish_calls,
            hybrid=dict(
                schedule.stats,
                anchors_derived=len(schedule.derive_gates),
                real_anchor_ops=model.anchors.anchor_ops,
                real_dense_ops=model.dense_ops,
                real_clifford_ops=model.clifford_ops,
                real_materializations=model.materializations,
                real_borrows=model.borrows,
                peak_anchors_live=model.anchors.live_peak,
            ),
            active=True,
        ),
    )

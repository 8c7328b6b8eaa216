"""Execution-plan generation from the trial trie.

The optimized simulation is driven by a flat, inspectable *plan*: a list of
five instruction kinds interpreted by the executor against any backend.

``Advance(start, end)``
    Apply all gates of layers ``start .. end - 1`` to the working state.
``Snapshot(slot)``
    Store an independent copy of the working state in cache ``slot``
    (taken just before injecting an error whose sibling subtrees or parent
    terminals still need the pre-error state).
``Inject(event)``
    Apply one error operator to the working state.
``Restore(slot)``
    Discard the working state and resume from the snapshot in ``slot``
    (the slot is consumed — this is the drop-on-last-use policy).
``Finish(trial_indices)``
    The working state has reached the final layer; it is the final state of
    every listed trial (several indices = deduplicated identical trials).

:class:`PlanWalk` is the one backend-free interpretation of these
instructions: every static analysis (the sanitizer, the cost model, the
trace, journal and hybrid rules, the hybrid planner) is a fold over its
steps.

Plan shape
----------
The plan is a depth-first traversal of the trie.  At each node the working
state advances **monotonically** through the layers, serving children in
event order; trials terminating at the node are finished *after* the
children, once the frontier reaches the end of the circuit — this is the
paper's frontier narrative ("after finishing the trials with the first
error in the first layer, we can execute one more layer and store the new
state as S2; now S1 can be dropped") and it never recomputes a layer.  A
snapshot is taken only when the node's state has further pending consumers;
the last consumer steals the state instead of copying it.

This walk has one home, ``_PlanBuilder``.  The trie partitioner
(:func:`repro.core.partition.partition_plan`) is the same builder with a
cut: it overrides only what follows a child's ``Inject`` and what a node
does with its terminal trials, so any change to plan shape is made here
once.  :func:`event_range_problems` is the one statement of
the out-of-range event rule, and :func:`check_trial_events` the one check
built on it: the builder, the baseline executor and a journaled run
(before it writes its journal) call it.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..circuits.layers import LayeredCircuit
from .events import ErrorEvent, Trial
from .trie import TrialTrie, TrieNode

__all__ = [
    "Advance",
    "Snapshot",
    "Inject",
    "Restore",
    "Finish",
    "PlanInstruction",
    "ExecutionPlan",
    "PlanWalk",
    "SlotEntry",
    "Step",
    "build_plan",
    "build_plan_from_trie",
    "check_trial_events",
    "count_operations",
    "event_range_problems",
    "rebuild_program",
    "ScheduleError",
]


class ScheduleError(RuntimeError):
    """Raised when a trial set cannot be scheduled against a circuit."""


class Advance(NamedTuple):
    start_layer: int
    end_layer: int


class Snapshot(NamedTuple):
    slot: int


class Inject(NamedTuple):
    event: ErrorEvent


class Restore(NamedTuple):
    slot: int


class Finish(NamedTuple):
    trial_indices: Tuple[int, ...]


PlanInstruction = Union[Advance, Snapshot, Inject, Restore, Finish]


class SlotEntry(NamedTuple):
    """A stored snapshot: the working layer and event history it holds,
    and the index of the ``Snapshot`` that wrote it."""

    layer: int
    history: Tuple[ErrorEvent, ...]
    index: int


class Step(NamedTuple):
    """One instruction as the symbolic walk sees it.

    ``layer`` and ``history`` describe the working state *before* the
    instruction.  ``entry`` is the slot's :class:`SlotEntry` on a
    ``Restore`` (the snapshot it resumes) and on a ``Snapshot`` of an
    occupied slot (the occupant), else ``None``.  ``live`` and ``stored``
    count states *after* the instruction, as
    :class:`~repro.core.cache.StateCache` does at runtime: the working
    state and the stored snapshots.  ``fault`` is ``""``
    for a sound instruction, else one of ``advance-range`` (inverted or
    beyond the circuit), ``advance-gap`` (not starting at the working
    layer), ``slot-occupied``, ``inject-layer`` (not at its event's layer
    boundary), ``slot-empty``, ``finish-early`` (before the last layer)
    or ``unknown`` (not an instruction).
    """

    index: int
    instr: Any
    layer: int
    history: Tuple[ErrorEvent, ...]
    fault: str
    entry: Optional[SlotEntry]
    live: int
    stored: int

    def error(self) -> ScheduleError:
        """The fault as an exception, for consumers that cannot go on."""
        return ScheduleError(
            f"plan[{self.index}] {self.instr!r}: {self.fault}"
        )


class PlanWalk:
    """The backend-free symbolic walk over an instruction stream.

    Iterating yields one :class:`Step` per instruction, starting from
    ``|0...0>``: a working state at layer 0 with no events.  The walk owns
    the plan's symbolic semantics: the working layer, the injected-event
    history, slot occupancy with each snapshot's layer and history, and
    the live/stored counts.  It never raises on a bad stream: a
    structural fault is reported on its step and the walk recovers the
    way the sanitizer always has — an ``Advance`` still moves the layer
    to its end, an ``Inject`` still joins the history, and a ``Snapshot``
    of an occupied slot or a ``Restore`` of an empty one changes nothing.

    After iteration, ``slots`` holds the snapshots never restored and
    ``peak_live`` / ``peak_stored`` the static peaks, which equal the
    runtime ``CacheStats`` of an optimized run of the same plan.
    """

    def __init__(self, instructions: Sequence[Any], num_layers: int) -> None:
        self.instructions = instructions
        self.num_layers = num_layers
        self.slots: Dict[int, SlotEntry] = {}
        self.peak_live = 1
        self.peak_stored = 0

    def __iter__(self) -> Iterator[Step]:
        instructions = self.instructions
        num_layers = self.num_layers
        layer = 0
        history: Tuple[ErrorEvent, ...] = ()
        slots: Dict[int, SlotEntry] = {}
        self.slots = slots
        self.peak_live = 1
        self.peak_stored = 0
        stored = 0
        for index, instr in enumerate(instructions):
            layer_before, history_before = layer, history
            fault = ""
            entry: Optional[SlotEntry] = None
            if isinstance(instr, Advance):
                if not 0 <= instr.start_layer <= instr.end_layer <= num_layers:
                    fault = "advance-range"
                elif instr.start_layer != layer:
                    fault = "advance-gap"
                layer = instr.end_layer
            elif isinstance(instr, Snapshot):
                entry = slots.get(instr.slot)
                if entry is None:
                    slots[instr.slot] = SlotEntry(layer, history, index)
                    stored += 1
                else:
                    fault = "slot-occupied"
            elif isinstance(instr, Inject):
                if instr.event.layer + 1 != layer:
                    fault = "inject-layer"
                history = history + (instr.event,)
            elif isinstance(instr, Restore):
                entry = slots.pop(instr.slot, None)
                if entry is None:
                    fault = "slot-empty"
                else:
                    layer, history = entry.layer, entry.history
                    stored -= 1
            elif isinstance(instr, Finish):
                if layer != num_layers:
                    fault = "finish-early"
            else:
                fault = "unknown"
            live = stored + 1
            self.peak_live = max(self.peak_live, live)
            self.peak_stored = max(self.peak_stored, stored)
            yield Step(
                index, instr, layer_before, history_before, fault, entry,
                live, stored,
            )


def count_operations(
    instructions: Sequence[Any], layered: LayeredCircuit
) -> int:
    """Basic operations an instruction list applies, in closed form: the
    gates of every ``Advance`` plus one per ``Inject``."""
    ops = 0
    for instr in instructions:
        if isinstance(instr, Advance):
            ops += layered.gates_between(instr.start_layer, instr.end_layer)
        elif isinstance(instr, Inject):
            ops += 1
    return ops


class ExecutionPlan:
    """A fully resolved optimized-execution schedule."""

    def __init__(
        self,
        instructions: List[PlanInstruction],
        num_trials: int,
        num_layers: int,
    ) -> None:
        self.instructions = instructions
        self.num_trials = num_trials
        self.num_layers = num_layers

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def count(self, kind: type) -> int:
        return sum(1 for instr in self.instructions if isinstance(instr, kind))

    def finished_trial_indices(self) -> List[int]:
        """Every trial index finished by the plan, in completion order."""
        finished: List[int] = []
        for instr in self.instructions:
            if isinstance(instr, Finish):
                finished.extend(instr.trial_indices)
        return finished

    def planned_operations(self, layered: LayeredCircuit) -> int:
        """Basic-operation count of the plan (closed form, no execution)."""
        return count_operations(self.instructions, layered)

    def validate(self, trials=None, layered=None) -> None:
        """Run the static plan sanitizer; raise on the first violation.

        Delegates to :func:`repro.lint.sanitize_plan` — the symbolic
        interpreter that proves slot discipline, layer alignment, trial
        coverage and (when ``trials`` is given) per-trial error-event
        exactness, all without a backend.  Raises :class:`ScheduleError`
        listing every error-severity diagnostic.  Cheap enough to run on
        every schedule in debug contexts; ``run_optimized(check=True)``
        calls it before execution.
        """
        audit = self.audit(trials=trials, layered=layered)
        if not audit.ok:
            raise ScheduleError(
                "; ".join(str(diagnostic) for diagnostic in audit.errors)
            )

    def audit(self, trials=None, layered=None):
        """Sanitize without raising: the full :class:`repro.lint.PlanAudit`.

        Exposes the diagnostics *and* the static cache bounds
        (``audit.peak_msv`` equals the runtime ``CacheStats.peak_msv`` of
        an optimized run of this plan).
        """
        from ..lint.plan_sanitizer import sanitize_plan

        return sanitize_plan(self, trials=trials, layered=layered)

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(instructions={len(self.instructions)}, "
            f"trials={self.num_trials}, layers={self.num_layers})"
        )


def event_range_problems(
    event: ErrorEvent, num_layers: Optional[int], num_qubits: Optional[int]
) -> List[Tuple[str, str]]:
    """``event``'s out-of-range problems, layer first, as ``(bound,
    message)`` pairs with ``bound`` ``"layer"`` or ``"qubit"``; a bound
    given as ``None`` is unknown and not checked.  A negative position is
    outside too: it would otherwise index from the end of the state's
    axes.  The one statement of the rule: :func:`check_trial_events`
    raises the first problem, lint rules N001/N002 and P012 report them.
    """
    problems: List[Tuple[str, str]] = []
    if num_layers is not None and not 0 <= event.layer < num_layers:
        problems.append(
            ("layer", f"event {event} beyond circuit depth {num_layers}")
        )
    if num_qubits is not None and not 0 <= event.qubit < num_qubits:
        problems.append(
            ("qubit", f"event {event} beyond qubit count {num_qubits}")
        )
    return problems


def check_trial_events(
    layered: LayeredCircuit, trials: Sequence[Trial]
) -> None:
    """Raise :class:`ScheduleError` naming the first event outside the
    circuit's layers or qubits (:func:`event_range_problems`) — the one
    check every executor runs before it touches a state."""
    num_layers = layered.num_layers
    num_qubits = layered.num_qubits
    for trial in trials:
        for event in trial.events:
            problems = event_range_problems(event, num_layers, num_qubits)
            if problems:
                raise ScheduleError(problems[0][1])


class _PlanBuilder:
    """The one depth-first walk that turns the trial trie into a plan.

    Two steps are hooks, so a cut of the same walk
    (:class:`repro.core.partition._Partitioner`) overrides only them:
    :meth:`_descend`, what follows a child's ``Inject``, and
    :meth:`_terminals`, what a node does with its terminal trials.
    """

    def __init__(self, layered: LayeredCircuit, trie: TrialTrie) -> None:
        self.layered = layered
        self.trie = trie
        self.instructions: List[Any] = []
        self.next_slot = 0

    def build(self) -> ExecutionPlan:
        self._emit_root()
        return ExecutionPlan(
            self.instructions,
            num_trials=self.trie.num_trials,
            num_layers=self.layered.num_layers,
        )

    def _emit_root(self) -> None:
        if self.trie.num_trials == 0:
            raise ScheduleError("cannot schedule an empty trial set")
        check_trial_events(self.layered, self.trie.trials)
        self._emit_node(self.trie.root, entry_layer=0)

    def _emit_node(self, node: TrieNode, entry_layer: int) -> None:
        cursor = entry_layer
        children = node.sorted_children()
        has_terminals = bool(node.terminal_trials)
        for position, child in enumerate(children):
            target = child.event.layer + 1
            if target > cursor:
                self.instructions.append(Advance(cursor, target))
                cursor = target
            is_last_consumer = position == len(children) - 1 and not has_terminals
            if is_last_consumer:
                # The child steals the node's state: inject directly.
                self.instructions.append(Inject(child.event))
                self._descend(child, cursor)
            else:
                slot = self.next_slot
                self.next_slot += 1
                self.instructions.append(Snapshot(slot))
                self.instructions.append(Inject(child.event))
                self._descend(child, cursor)
                self.instructions.append(Restore(slot))
        if has_terminals:
            self._terminals(node, cursor)

    def _descend(self, child: TrieNode, cursor: int) -> None:
        """After ``Inject(child.event)``: emit the child's subtree."""
        self._emit_node(child, cursor)

    def _terminals(self, node: TrieNode, cursor: int) -> None:
        """Advance to the last layer and finish the node's trials."""
        if self.layered.num_layers > cursor:
            self.instructions.append(Advance(cursor, self.layered.num_layers))
        self.instructions.append(Finish(tuple(node.terminal_trials)))


def build_plan(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    check: bool = False,
) -> ExecutionPlan:
    """Build the optimized execution plan for ``trials`` on ``layered``.

    The trials may be in any order — the trie canonicalizes them into the
    reordered (lexicographic) schedule.  With ``check=True`` the finished
    plan is run through the static sanitizer (including the per-trial
    exactness replay) before being returned.
    """
    trie = TrialTrie(trials)
    plan = _PlanBuilder(layered, trie).build()
    if check:
        plan.validate(trials=trials, layered=layered)
    return plan


def rebuild_program(
    events: Sequence[ErrorEvent], layer: int
) -> List[PlanInstruction]:
    """``Advance``/``Inject`` instructions rebuilding a state from |0...0>.

    Advance to each event's layer, inject it, then advance to ``layer``:
    the baseline executor's per-trial run.  Its segment boundaries are
    not a plan's, so a dropped snapshot is recomputed from the plan's own
    instructions instead (compiled segments fuse per ``[start, end)``).
    """
    program: List[PlanInstruction] = []
    cursor = 0
    for event in events:
        target = event.layer + 1
        if target > cursor:
            program.append(Advance(cursor, target))
            cursor = target
        program.append(Inject(event))
    if layer > cursor:
        program.append(Advance(cursor, layer))
    return program


def build_plan_from_trie(
    layered: LayeredCircuit, trie: TrialTrie, check: bool = False
) -> ExecutionPlan:
    """Build the plan from a pre-built trie (avoids re-inserting trials)."""
    plan = _PlanBuilder(layered, trie).build()
    if check:
        plan.validate(trials=trie.trials, layered=layered)
    return plan

"""Static plan sanitizer: a fold over the symbolic plan walk.

:func:`sanitize_plan` folds over the symbolic walk of an
:class:`~repro.core.schedule.ExecutionPlan`
(:class:`~repro.core.schedule.PlanWalk` — no backend, no amplitudes) and
proves, before a single statevector is allocated, every invariant the
executor would otherwise discover mid-run:

* **slot discipline** — each snapshot slot is written once and consumed
  exactly once; restores of empty slots (use-after-free / double restore)
  and leaked slots are rejected;
* **layer alignment** — the working layer is tracked through every
  ``Advance``/``Restore``; a ``Restore`` resumes at the layer its
  ``Snapshot`` was taken, so any following ``Advance``, ``Inject`` or
  ``Finish`` that disagrees with that layer is flagged statically;
* **trial exactness** — the symbolic working state carries the sequence of
  injected :class:`~repro.core.events.ErrorEvent`; at each ``Finish`` the
  sequence must equal the listed trials' sampled event sequences.  This is
  the paper's claim that reordering is *exact* — same errors, same final
  state per trial — checked without simulating;
* **coverage** — every trial index is finished exactly once;
* **memory bound** — the walk mirrors
  :class:`~repro.core.cache.StateCache` accounting, so the returned static
  ``peak_msv`` / ``peak_stored`` equal the runtime ``CacheStats`` values of
  an optimized run of the same plan (cross-checked in the test suite).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..circuits.layers import LayeredCircuit
from ..core.events import PAULI_LABELS, ErrorEvent, Trial
from ..core.schedule import (
    Advance,
    ExecutionPlan,
    Finish,
    Inject,
    PlanWalk,
    Restore,
    Snapshot,
    event_range_problems,
)
from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["PlanAudit", "sanitize_plan"]


register(
    "P001",
    "advance-range",
    Severity.ERROR,
    "plan",
    "Advance layer range is malformed or outside the circuit depth.",
    explanation="An Advance instruction applies the gates of layers "
    "[start, end); a range that is inverted or extends past the circuit's "
    "depth would make the executor index nonexistent layers.  The sanitizer "
    "bounds-checks every range statically so a malformed plan is rejected "
    "before any statevector is allocated.",
)
register(
    "P002",
    "advance-gap",
    Severity.ERROR,
    "plan",
    "Advance does not begin at the working state's current layer.",
    explanation="The working state moves monotonically through the circuit; "
    "an Advance whose start layer disagrees with the symbolically tracked "
    "cursor would silently skip or repeat gates, breaking the paper's "
    "exactness guarantee.  Usually caused by a Restore resuming at a "
    "different layer than the following instructions assume.",
)
register(
    "P003",
    "snapshot-slot-reused",
    Severity.ERROR,
    "plan",
    "Snapshot writes a slot that is still occupied.",
    explanation="Each cache slot holds exactly one snapshot between its "
    "Snapshot and Restore.  Overwriting an occupied slot would leak the "
    "previous state (its consumers restore the wrong amplitudes) and "
    "corrupt the peak-MSV accounting the memory certificates rely on.",
)
register(
    "P004",
    "restore-unknown-slot",
    Severity.ERROR,
    "plan",
    "Restore consumes a slot that is empty or already consumed "
    "(use-after-free / double restore).",
    explanation="Restore consumes its slot (drop-on-last-use); restoring an "
    "empty or already-consumed slot is the plan-level analogue of a "
    "use-after-free and would crash the executor mid-run.  The sanitizer "
    "tracks slot liveness symbolically to catch this before execution.",
)
register(
    "P005",
    "slot-leaked",
    Severity.ERROR,
    "plan",
    "Snapshot slot is never restored (leaked cached state).",
    explanation="A snapshot that is never restored keeps a full 2**n "
    "statevector alive until the end of the run, inflating peak memory "
    "beyond the static bound and indicating the plan builder lost track of "
    "a pending consumer.",
)
register(
    "P006",
    "inject-layer-mismatch",
    Severity.ERROR,
    "plan",
    "Inject fires at a working layer other than its event's layer boundary.",
    explanation="An error sampled after layer L must be injected exactly "
    "when the working state has advanced to layer L+1 — injecting earlier "
    "or later would commute the error past gates it should not cross, "
    "producing a final state different from the unreordered baseline.",
)
register(
    "P007",
    "finish-before-end",
    Severity.ERROR,
    "plan",
    "Finish reached before the working state advanced to the final layer.",
    explanation="Finish declares the working state to be a trial's final "
    "state; if the cursor has not reached the last layer the trial would "
    "be measured from a partially evolved state.  Statically comparing the "
    "cursor against the declared depth catches truncated plans.",
)
register(
    "P008",
    "trial-finished-twice",
    Severity.ERROR,
    "plan",
    "A trial index is finished by more than one Finish instruction.",
    explanation="Every sampled trial must contribute exactly one final "
    "state.  A doubly finished trial would be counted twice in the outcome "
    "histogram, biasing the sampled distribution even when every amplitude "
    "is computed correctly.",
)
register(
    "P009",
    "trial-never-finished",
    Severity.ERROR,
    "plan",
    "A trial index is never finished by the plan (lost trial).",
    explanation="A trial the plan never finishes is silently dropped from "
    "the outcome distribution — the run would report fewer effective "
    "shots than requested.  Coverage is checked by marking every index "
    "finished exactly once.",
)
register(
    "P010",
    "trial-unknown-index",
    Severity.ERROR,
    "plan",
    "Finish lists a trial index outside the plan's trial range.",
    explanation="Finish instructions carry the indices of the trials they "
    "complete; an index outside [0, num_trials) means the plan and the "
    "trial set it was built from have drifted apart (e.g. a stale plan "
    "replayed against a resampled trial list).",
)
register(
    "P011",
    "event-sequence-mismatch",
    Severity.ERROR,
    "plan",
    "A finished trial's symbolic error history differs from its sampled "
    "event sequence (exactness violation).",
    explanation="This is the paper's central exactness claim checked "
    "statically: the symbolic working state carries the sequence of "
    "injected errors, and at each Finish that history must equal the "
    "listed trial's sampled events.  Any mismatch means the reordering "
    "changed which errors a trial receives — the one thing it must never "
    "do.",
)
register(
    "P012",
    "event-out-of-bounds",
    Severity.ERROR,
    "plan",
    "Injected event lies beyond the circuit's depth or qubit count.",
    explanation="An event beyond the circuit's depth or qubit count cannot "
    "correspond to any physical error position; it indicates corrupted "
    "trial data or a plan built against a different circuit.",
)
register(
    "P013",
    "peak-msv-mismatch",
    Severity.ERROR,
    "plan",
    "Static peak-MSV bound disagrees with the runtime cache statistics.",
    explanation="The sanitizer mirrors StateCache accounting instruction by "
    "instruction, so its static peak-MSV must equal the runtime "
    "CacheStats.peak_msv of an optimized run of the same plan.  A "
    "disagreement means either the symbolic model or the cache accounting "
    "has drifted — both are load-bearing for the paper's memory claims.",
)
register(
    "P014",
    "trial-count-mismatch",
    Severity.ERROR,
    "plan",
    "Plan's declared trial count differs from the supplied trial list.",
    explanation="The plan embeds the number of trials it was built for; "
    "auditing it against a list of a different length means the caller is "
    "checking the wrong trial set, so every per-trial exactness verdict "
    "would be meaningless.",
)
register(
    "P015",
    "unknown-instruction",
    Severity.ERROR,
    "plan",
    "Plan contains an object that is not a known instruction kind.",
    explanation="The executor dispatches on exactly five instruction "
    "kinds; any other object in the instruction list (from manual plan "
    "surgery or a deserialization bug) would raise mid-run.  The sanitizer "
    "reports it with its index instead.",
)
register(
    "P016",
    "unknown-error-operator",
    Severity.ERROR,
    "plan",
    "Injected event carries an operator outside the Pauli alphabet.",
    explanation="Error injection resolves operators through the Pauli "
    "label table; an unknown label would raise at injection time deep "
    "inside the run.  Checking the alphabet statically keeps operator "
    "typos a lint error rather than a runtime crash.",
)


class PlanAudit(LintResult):
    """Sanitizer verdict: diagnostics plus the static cache bounds."""

    def __init__(
        self,
        diagnostics: Sequence[Diagnostic],
        peak_msv: int,
        peak_stored: int,
        snapshots_taken: int,
        num_instructions: int,
    ) -> None:
        super().__init__(
            diagnostics,
            info={
                "peak_msv": peak_msv,
                "peak_stored": peak_stored,
                "snapshots_taken": snapshots_taken,
                "num_instructions": num_instructions,
            },
        )
        #: Static bound on simultaneously live statevectors (working state
        #: included) — must equal the runtime ``CacheStats.peak_msv``.
        self.peak_msv = peak_msv
        #: Static bound on simultaneously stored snapshots.
        self.peak_stored = peak_stored
        self.snapshots_taken = snapshots_taken
        self.num_instructions = num_instructions

    def __repr__(self) -> str:
        return (
            f"PlanAudit(ok={self.ok}, peak_msv={self.peak_msv}, "
            f"diagnostics={len(self.diagnostics)})"
        )


def sanitize_plan(
    plan: ExecutionPlan,
    trials: Optional[Sequence[Trial]] = None,
    layered: Optional[LayeredCircuit] = None,
    config: Optional[LintConfig] = None,
    entry_layer: int = 0,
    entry_events: Sequence[ErrorEvent] = (),
) -> PlanAudit:
    """Fold over the symbolic walk of ``plan`` and collect every violation.

    Parameters
    ----------
    trials:
        When given, each ``Finish`` is checked against the listed trials'
        event sequences (the exactness proof) and the trial count is
        cross-checked.
    layered:
        When given, injected events are bounds-checked against the real
        circuit (depth *and* qubit count; without it only the plan's
        declared ``num_layers`` is available).
    config:
        Optional filtering/severity policy.
    entry_layer / entry_events:
        Audit a *sub-plan* that resumes from a shared-prefix entry state:
        the symbolic working state starts at ``entry_layer`` with
        ``entry_events`` already in its history, exactly as the parallel
        executor hands sub-plans to workers (:mod:`repro.core.parallel`).
        Trial exactness is still checked against each trial's *full*
        sampled event sequence.

    The walk never raises on a bad plan — each structural fault becomes a
    diagnostic and the walk recovers, so one structural bug does not mask
    the rest.
    """
    diagnostics: List[Diagnostic] = []

    def emit(
        code: str, message: str, index: Optional[int] = None, hint: str = ""
    ) -> None:
        location = f"plan[{index}]" if index is not None else "plan"
        diagnostic = make_diagnostic(
            code, message, location=location, hint=hint or None, config=config
        )
        if diagnostic is not None:
            if (
                config is not None
                and config.max_diagnostics is not None
                and len(diagnostics) >= config.max_diagnostics
            ):
                return
            diagnostics.append(diagnostic)

    num_layers = plan.num_layers
    num_qubits = layered.num_qubits if layered is not None else None
    if layered is not None and layered.num_layers != num_layers:
        emit(
            "P001",
            f"plan declares {num_layers} layer(s) but the circuit has "
            f"{layered.num_layers}",
        )
    if trials is not None and len(trials) != plan.num_trials:
        emit(
            "P014",
            f"plan covers {plan.num_trials} trial(s) but {len(trials)} "
            "were supplied",
            hint="rebuild the plan from the trial set actually executed",
        )

    finished_at: Dict[int, int] = {}
    snapshots_taken = 0
    walk = PlanWalk(plan.instructions, num_layers, entry_layer, entry_events)
    for step in walk:
        index, instr, layer = step.index, step.instr, step.layer
        if isinstance(instr, Advance):
            if step.fault == "advance-range":
                emit(
                    "P001",
                    f"advance range [{instr.start_layer}, {instr.end_layer}) "
                    f"is invalid for {num_layers} layer(s)",
                    index,
                )
            elif step.fault == "advance-gap":
                emit(
                    "P002",
                    f"advance starts at layer {instr.start_layer} but the "
                    f"working state is at layer {layer}",
                    index,
                    hint="a Restore above may have resumed at a different "
                    "layer than this instruction assumes",
                )
        elif isinstance(instr, Snapshot):
            if step.entry is not None:  # the occupant of a reused slot
                emit(
                    "P003",
                    f"slot {instr.slot} snapshotted again while still "
                    f"occupied (first written at plan[{step.entry.index}])",
                    index,
                    hint="the previous snapshot was never restored",
                )
            else:
                snapshots_taken += 1
        elif isinstance(instr, Inject):
            event = instr.event
            out_of_range = event_range_problems(event, num_layers, num_qubits)
            if out_of_range:
                emit("P012", out_of_range[0][1], index)
            elif step.fault:
                emit(
                    "P006",
                    f"inject of {event} at working layer {layer}; errors "
                    f"fire right after their layer (expected layer "
                    f"{event.layer + 1})",
                    index,
                )
            if event.pauli not in PAULI_LABELS:
                emit(
                    "P016",
                    f"event {event} carries operator {event.pauli!r}; "
                    f"expected one of {PAULI_LABELS}",
                    index,
                )
        elif isinstance(instr, Restore):
            if step.fault:
                emit(
                    "P004",
                    f"restore of slot {instr.slot}, which is empty or "
                    "already consumed",
                    index,
                    hint="each Snapshot slot may be restored exactly once",
                )
        elif isinstance(instr, Finish):
            if step.fault:
                emit(
                    "P007",
                    f"finish at layer {layer}; the circuit has "
                    f"{num_layers} layer(s)",
                    index,
                )
            history = step.history
            for trial_index in instr.trial_indices:
                if not 0 <= trial_index < plan.num_trials:
                    emit(
                        "P010",
                        f"finish of trial {trial_index}, outside the plan's "
                        f"{plan.num_trials} trial(s)",
                        index,
                    )
                    continue
                if trial_index in finished_at:
                    emit(
                        "P008",
                        f"trial {trial_index} finished twice (first at "
                        f"plan[{finished_at[trial_index]}])",
                        index,
                    )
                    continue
                finished_at[trial_index] = index
                if trials is not None and trial_index < len(trials):
                    expected = tuple(trials[trial_index].events)
                    if expected != history:
                        emit(
                            "P011",
                            f"trial {trial_index} finished with error "
                            f"history ({', '.join(map(str, history))}) but "
                            f"its sampled sequence is "
                            f"({', '.join(map(str, expected))})",
                            index,
                            hint="the reordering must be exact: every trial "
                            "receives precisely its own sampled errors",
                        )
        else:  # EmitTask included: a prefix program is not a plan
            emit("P015", f"unknown plan instruction {instr!r}", index)

    for slot, entry in sorted(walk.slots.items()):
        emit(
            "P005",
            f"slot {slot} (snapshotted at plan[{entry.index}]) is never "
            "restored",
            hint="leaked snapshots keep a full statevector alive to the "
            "end of the run",
        )
    missing = [
        t for t in range(plan.num_trials) if t not in finished_at
    ]
    if missing:
        shown = ", ".join(str(t) for t in missing[:8])
        if len(missing) > 8:
            shown += f", ... ({len(missing)} total)"
        emit(
            "P009",
            f"trial(s) never finished: {shown}",
            hint="every sampled trial must reach the final layer exactly "
            "once",
        )

    return PlanAudit(
        diagnostics,
        peak_msv=walk.peak_live,
        peak_stored=walk.peak_stored,
        snapshots_taken=snapshots_taken,
        num_instructions=len(plan.instructions),
    )

"""Partition lint: the parallel cut must be a disjoint exact cover.

:func:`repro.core.parallel.partition_plan` splits the serial execution plan
into a prefix program plus independent sub-plan tasks.  Everything the
parallel executor guarantees — bit-identical results to the serial run —
rests on structural invariants of that partition, and ``P018`` proves them
statically:

* **exact cover** — every trial index appears in exactly one task
  (none lost, none duplicated);
* **entry consistency** — folding over the prefix program's walk
  (:class:`~repro.core.schedule.PlanWalk`, the walk
  :func:`repro.lint.sanitize_plan` folds too), each
  ``EmitTask`` fires with the working state at exactly the task's declared
  ``entry_layer`` with exactly its ``entry_events`` injected, each task is
  emitted exactly once, in task-id order (the serial finish order), and
  the working state is consumed afterwards (next instruction is a
  ``Restore`` or the prefix ends);
* **sub-plan soundness** — each task's local plan passes the full plan
  sanitizer resumed from its entry context (slot discipline, layer
  alignment, per-trial exactness when the trial list is supplied);
* **ops conservation** — with the circuit and trials available, the
  partition's closed-form operation count and its finish order both equal
  the serial plan's (the determinism pin).

:func:`lint_partition_trace` is the runtime-evidence companion: it splits
a merged multi-worker trace back into the parent's prefix track and one
stream per task attempt, and runs the ``P017`` plan-vs-trace cross-check
on every one of them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.schedule import (
    Advance,
    EmitTask,
    ExecutionPlan,
    Inject,
    PlanWalk,
    Restore,
    Snapshot,
)
from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .plan_sanitizer import sanitize_plan
from .registry import make_diagnostic, register
from .trace_rules import lint_trace

__all__ = ["lint_partition", "lint_partition_trace"]


register(
    "P018",
    "partition-cover",
    Severity.ERROR,
    "plan",
    "Plan partition is not a disjoint exact cover of the trial set with "
    "consistent entry states.",
    explanation="The parallel executor's bit-exactness rests on the "
    "partition's structure: every trial in exactly one task, every task "
    "emitted once at exactly its declared entry layer and event history, "
    "every sub-plan sound when resumed from that entry, and the total "
    "operation count and finish order conserved against the serial plan.  "
    "P018 proves all of it symbolically before a worker is forked.",
)


class _EventsView:
    """Minimal recorder shim: a filtered ``events`` list for trace rules."""

    def __init__(self, events) -> None:
        self.events = events


def lint_partition(
    partition,
    trials=None,
    layered=None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Statically audit a :class:`~repro.core.parallel.PlanPartition`."""
    diagnostics: List[Diagnostic] = []

    def emit(message: str, location: str = "partition", hint: str = "") -> None:
        diagnostic = make_diagnostic(
            "P018", message, location=location, hint=hint or None, config=config
        )
        if diagnostic is not None:
            diagnostics.append(diagnostic)

    # -- exact cover of the trial index space --------------------------------
    seen = {}
    for task in partition.tasks:
        for global_index in task.trial_indices:
            if not 0 <= global_index < partition.num_trials:
                emit(
                    f"task {task.task_id} covers trial {global_index}, "
                    f"outside the partition's {partition.num_trials} "
                    "trial(s)",
                    location=f"task[{task.task_id}]",
                )
            elif global_index in seen:
                emit(
                    f"trial {global_index} covered by both task "
                    f"{seen[global_index]} and task {task.task_id}",
                    location=f"task[{task.task_id}]",
                    hint="subtree tasks must partition the trial set",
                )
            else:
                seen[global_index] = task.task_id
    missing = [t for t in range(partition.num_trials) if t not in seen]
    if missing:
        shown = ", ".join(str(t) for t in missing[:8])
        if len(missing) > 8:
            shown += f", ... ({len(missing)} total)"
        emit(f"trial(s) covered by no task: {shown}")

    # -- fold over the prefix walk: entry checks at each EmitTask ----------
    emitted: List[int] = []
    instructions = partition.prefix
    prefix = PlanWalk(instructions, partition.num_layers)
    for step in prefix:
        index, instr = step.index, step.instr
        if isinstance(instr, Restore) and step.fault:
            emit(
                f"prefix restores slot {instr.slot}, which is empty",
                location=f"prefix[{index}]",
            )
        elif isinstance(instr, EmitTask):
            if not 0 <= instr.task_id < partition.num_tasks:
                emit(
                    f"prefix emits unknown task {instr.task_id}",
                    location=f"prefix[{index}]",
                )
                continue
            task = partition.tasks[instr.task_id]
            if instr.task_id in emitted:
                emit(
                    f"task {instr.task_id} emitted more than once",
                    location=f"prefix[{index}]",
                )
            emitted.append(instr.task_id)
            if step.layer != task.entry_layer:
                emit(
                    f"task {task.task_id} declares entry layer "
                    f"{task.entry_layer} but is emitted at layer "
                    f"{step.layer}",
                    location=f"prefix[{index}]",
                )
            if step.history != tuple(task.entry_events):
                emit(
                    f"task {task.task_id} declares entry events "
                    f"({', '.join(map(str, task.entry_events))}) but is "
                    f"emitted with ({', '.join(map(str, step.history))})",
                    location=f"prefix[{index}]",
                )
            following = instructions[index + 1 : index + 2]
            if following and not isinstance(following[0], Restore):
                emit(
                    f"task {task.task_id} emission is followed by "
                    f"{type(following[0]).__name__}; the consumed working "
                    "state demands a Restore or the end of the prefix",
                    location=f"prefix[{index}]",
                )
        elif not isinstance(instr, (Advance, Snapshot, Inject, Restore)):
            emit(
                f"unknown prefix instruction {instr!r}",
                location=f"prefix[{index}]",
            )
    if instructions and not (
        isinstance(instructions[-1], EmitTask)
        and 0 <= instructions[-1].task_id < partition.num_tasks
    ):
        emit(
            "prefix program leaves the working state alive (it must end "
            "with an EmitTask)",
            location=f"prefix[{len(instructions) - 1}]",
        )
    for slot in sorted(prefix.slots):
        emit(f"prefix slot {slot} is never restored")
    never_emitted = [
        task.task_id for task in partition.tasks if task.task_id not in emitted
    ]
    if never_emitted:
        emit(
            "task(s) never emitted by the prefix: "
            + ", ".join(map(str, never_emitted))
        )
    if emitted != sorted(emitted):
        emit(
            f"tasks emitted out of id order ({emitted}); task ids encode "
            "the serial finish order the parent replays",
            hint="renumber tasks in prefix-emission order",
        )

    # -- per-task sub-plan soundness ----------------------------------------
    for task in partition.tasks:
        local_trials = None
        if trials is not None:
            local_trials = [trials[g] for g in task.trial_indices]
        sub_audit = sanitize_plan(
            task.plan,
            trials=local_trials,
            layered=layered,
            config=config,
            entry_layer=task.entry_layer,
            entry_events=task.entry_events,
        )
        for sub in sub_audit.errors:
            emit(
                f"task {task.task_id} sub-plan: [{sub.code}] {sub.message}",
                location=f"task[{task.task_id}].{sub.location}",
            )

    # -- conservation against the serial plan --------------------------------
    planned_ops = None
    if layered is not None:
        planned_ops = partition.planned_operations(layered)
        if trials is not None and not missing and len(seen) == len(trials):
            from ..core.schedule import build_plan

            serial = build_plan(layered, trials)
            serial_ops = serial.planned_operations(layered)
            if planned_ops != serial_ops:
                emit(
                    f"partition plans {planned_ops} basic operation(s) but "
                    f"the serial plan performs {serial_ops}",
                    hint="prefix ops plus sub-plan ops must conserve the "
                    "serial instruction multiset",
                )
            partition_order = [
                g for task in partition.tasks for g in task.trial_indices
            ]
            if partition_order != serial.finished_trial_indices():
                emit(
                    "partition finish order differs from the serial plan's "
                    "(the parent's merged on_finish replay would diverge)",
                    hint="tasks must be emitted in the serial DFS order",
                )

    return LintResult(
        diagnostics,
        info={
            "num_tasks": partition.num_tasks,
            "depth": partition.depth,
            "covered_trials": len(seen),
            "planned_operations": planned_ops,
        },
    )


def lint_partition_trace(
    partition,
    recorder,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Cross-check a merged multi-worker trace, track by track (``P017``).

    The parent track (events without a ``worker`` tag) must follow the
    prefix program's Snapshot/Restore schedule.  Pool workers pull tasks
    from one shared queue and recovery moves tasks between them, so a
    worker track is held to what it actually ran: each ``task.attempt``
    mark opens one attempt, whose cache events must follow that task's
    sub-plan schedule; and every task the parent accepted
    (``task.accepted``) must have an attempt on the worker it was
    accepted from.
    """
    diagnostics: List[Diagnostic] = []
    info: Dict[str, Any] = {}

    def emit(message: str, location: str, hint: Optional[str] = None) -> None:
        diagnostic = make_diagnostic(
            "P017", message, location=location, hint=hint, config=config
        )
        if diagnostic is not None:
            diagnostics.append(diagnostic)

    parent_events = [
        event
        for event in recorder.events
        if not (event.args and "worker" in event.args)
    ]
    prefix_plan = ExecutionPlan(
        list(partition.prefix),
        num_trials=partition.num_trials,
        num_layers=partition.num_layers,
    )
    parent_result = lint_trace(
        prefix_plan, _EventsView(parent_events), config=config
    )
    diagnostics.extend(parent_result.diagnostics)
    info["parent"] = parent_result.info

    # worker -> [(task id or None before the first mark, events), ...]
    attempts: Dict[int, List[Tuple[Optional[int], List[Any]]]] = {}
    for event in recorder.events:
        args = event.args or {}
        if "worker" not in args:
            continue
        runs = attempts.setdefault(args["worker"], [(None, [])])
        if event.ph == "i" and event.name == "task.attempt":
            runs.append((args.get("task"), []))
        else:
            runs[-1][1].append(event)

    empty = ExecutionPlan([], partition.num_trials, partition.num_layers)
    for worker, runs in sorted(attempts.items()):
        info[f"worker{worker}"] = {"attempts": len(runs) - 1}
        for task_id, events in runs:
            where = f"worker{worker}.task{task_id}"
            if task_id is None:
                plan = empty
            elif 0 <= task_id < partition.num_tasks:
                plan = partition.tasks[task_id].plan
            else:
                emit(f"attempt of unknown task {task_id}", where)
                continue
            result = lint_trace(plan, _EventsView(events))
            for sub in result.diagnostics:
                emit(sub.message, f"{where}.{sub.location}", sub.hint)

    ran = {
        (worker, task_id)
        for worker, runs in attempts.items()
        for task_id, _ in runs
    }
    for event in parent_events:
        if event.ph == "i" and event.name == "task.accepted":
            args = event.args or {}
            task_id, worker = args.get("task"), args.get("from_worker")
            if (worker, task_id) not in ran:
                emit(
                    f"task {task_id} was accepted from worker {worker}, "
                    "whose track records no attempt of it",
                    f"worker{worker}",
                    "each accepted task needs its attempt on the worker "
                    "that reported it",
                )

    return LintResult(diagnostics, info=info)

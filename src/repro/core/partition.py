"""Cut the trial trie into independent subtrees: a static analysis.

After Algorithm 1 reorders the trial set into a prefix-sharing trie, the
subtrees hanging off each branch point are mutually independent (TQSim
makes the same observation for its reuse tree).  :func:`partition_plan`
cuts the trie at a chosen ``depth`` into a **prefix program** and K
:class:`SubPlan` tasks.  The partitioner is the serial plan builder
(:mod:`repro.core.schedule`) with a cut: the prefix program is the serial
plan with each cut subtree, and each above-cut node's terminal tail,
replaced by an :class:`EmitTask` that hands the working state to the
task; each task carries its entry layer, entry event history and the
builder's own Advance/Inject/Snapshot/Restore/Finish schedule for its
part (local trial indices).  :meth:`PlanPartition.assign` spreads the
tasks over buckets by LPT (longest processing time first), weighted by
each sub-plan's closed-form operation count.

Inlining every task at its ``EmitTask`` reproduces the serial plan
instruction for instruction, so the prefix and task operation counts sum
to the serial count, and the tasks' finishes, in task-id order, are the
serial plan's ``Finish`` order.

No executor runs a partition: every run executes the serial plan in one
process (docs/architecture.md §18).  The module has no caller in the
package, and its removal is an open ROADMAP item.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

from ..circuits.layers import LayeredCircuit
from .events import ErrorEvent, Trial
from .schedule import (
    Advance,
    ExecutionPlan,
    Finish,
    Inject,
    PlanInstruction,
    Restore,
    ScheduleError,
    Snapshot,
    _PlanBuilder,
    count_operations,
)
from .trie import TrialTrie, TrieNode

__all__ = ["EmitTask", "SubPlan", "PlanPartition", "partition_plan"]


class EmitTask(NamedTuple):
    """Prefix pseudo-instruction: the working state becomes the entry
    state of task ``task_id`` (it is consumed, exactly like a serial
    ``Finish``: the next instruction is a ``Restore`` or the prefix
    ends)."""

    task_id: int


PrefixInstruction = Union[Advance, Snapshot, Inject, Restore, EmitTask]


class SubPlan:
    """One independent subtree (or terminal tail) of the trial trie with
    its shared-prefix entry context."""

    def __init__(
        self,
        task_id: int,
        entry_layer: int,
        entry_events: Tuple[ErrorEvent, ...],
        plan: ExecutionPlan,
        trial_indices: Tuple[int, ...],
        finishes: Tuple[Tuple[int, ...], ...],
        est_ops: int,
    ) -> None:
        self.task_id = task_id
        #: Layer the entry state has advanced to.
        self.entry_layer = entry_layer
        #: Error events already injected into the entry state, in order.
        self.entry_events = entry_events
        #: Local schedule; ``Finish`` carries *local* trial indices.
        self.plan = plan
        #: Local index -> global (original trial list) index.
        self.trial_indices = trial_indices
        #: Per-``Finish`` global index tuples, in the plan's finish order.
        self.finishes = finishes
        #: Statically known basic-operation count (the LPT weight).
        self.est_ops = est_ops

    @property
    def num_finishes(self) -> int:
        return len(self.finishes)

    def __repr__(self) -> str:
        return (
            f"SubPlan(task={self.task_id}, entry_layer={self.entry_layer}, "
            f"trials={len(self.trial_indices)}, est_ops={self.est_ops})"
        )


class PlanPartition:
    """A prefix program plus the sub-plan tasks it emits (exact cover)."""

    def __init__(
        self,
        prefix: Tuple[PrefixInstruction, ...],
        tasks: Tuple[SubPlan, ...],
        num_trials: int,
        num_layers: int,
        depth: int,
    ) -> None:
        self.prefix = prefix
        #: Tasks indexed by ``task_id`` == prefix emission order == the
        #: serial plan's finish order.
        self.tasks = tasks
        self.num_trials = num_trials
        self.num_layers = num_layers
        self.depth = depth

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def prefix_operations(self, layered: LayeredCircuit) -> int:
        """Basic operations above the cut (prefix Advances+Injects)."""
        return count_operations(self.prefix, layered)

    def planned_operations(self, layered: LayeredCircuit) -> int:
        """Closed-form total ops — equals the serial plan's count exactly."""
        return self.prefix_operations(layered) + sum(
            task.est_ops for task in self.tasks
        )

    def assign(self, num_workers: int) -> List[List[int]]:
        """LPT-balance task ids over ``num_workers`` buckets.

        Heaviest task first (ties by task id), each to the least-loaded
        bucket (ties by bucket index), every task contributing at least
        load 1; each bucket is returned sorted by task id.
        """
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        weights = [task.est_ops for task in self.tasks]
        loads = [0] * num_workers
        buckets: List[List[int]] = [[] for _ in range(num_workers)]
        for task_id in sorted(range(len(weights)), key=lambda t: (-weights[t], t)):
            worker = min(range(num_workers), key=lambda w: (loads[w], w))
            buckets[worker].append(task_id)
            loads[worker] += max(1, weights[task_id])
        for bucket in buckets:
            bucket.sort()
        return buckets

    def __repr__(self) -> str:
        return (
            f"PlanPartition(tasks={self.num_tasks}, depth={self.depth}, "
            f"trials={self.num_trials}, prefix={len(self.prefix)} instr)"
        )


class _Partitioner(_PlanBuilder):
    """The serial plan builder with a cut at ``depth``.

    The instructions it emits are the prefix program.  It overrides the
    builder's two hooks: a child at the cut depth becomes one task
    holding the builder's own walk of its subtree (slots numbered from
    0), and a node above the cut hands its terminal trials' tail to a
    task.  Everything else is the serial builder's, so the prefix and the
    tasks reassemble into the serial plan by construction.
    """

    def __init__(
        self, layered: LayeredCircuit, trie: TrialTrie, depth: int
    ) -> None:
        super().__init__(layered, trie)
        self.depth = depth
        self.path: List[ErrorEvent] = []  # events injected above the cursor
        self.tasks: List[SubPlan] = []

    def partition(self) -> PlanPartition:
        if self.depth < 1:
            raise ScheduleError(
                f"partition depth must be >= 1, got {self.depth}"
            )
        self._emit_root()
        return PlanPartition(
            prefix=tuple(self.instructions),
            tasks=tuple(self.tasks),
            num_trials=self.trie.num_trials,
            num_layers=self.layered.num_layers,
            depth=self.depth,
        )

    def _descend(self, child: TrieNode, cursor: int) -> None:
        self.path.append(child.event)
        if child.depth >= self.depth:
            # Cut: the whole subtree under `child` becomes one task.
            task = _PlanBuilder(self.layered, self.trie)
            task._emit_node(child, cursor)
            self._emit_task(cursor, task.instructions)
        else:
            self._emit_node(child, cursor)
        self.path.pop()

    def _terminals(self, node: TrieNode, cursor: int) -> None:
        tail = _PlanBuilder(self.layered, self.trie)
        tail._terminals(node, cursor)
        self._emit_task(cursor, tail.instructions)

    def _emit_task(
        self, entry_layer: int, instructions: Sequence[PlanInstruction]
    ) -> None:
        """Renumber a global-index instruction list into a SubPlan whose
        ``Finish`` indices are local (numbered in finish order), and emit
        it from the prefix."""
        trial_indices: List[int] = []
        finishes: List[Tuple[int, ...]] = []
        local: List[PlanInstruction] = []
        for instr in instructions:
            if isinstance(instr, Finish):
                start = len(trial_indices)
                trial_indices.extend(instr.trial_indices)
                finishes.append(tuple(instr.trial_indices))
                local.append(Finish(tuple(range(start, len(trial_indices)))))
            else:
                local.append(instr)
        plan = ExecutionPlan(
            local,
            num_trials=len(trial_indices),
            num_layers=self.layered.num_layers,
        )
        task = SubPlan(
            task_id=len(self.tasks),
            entry_layer=entry_layer,
            entry_events=tuple(self.path),
            plan=plan,
            trial_indices=tuple(trial_indices),
            finishes=tuple(finishes),
            est_ops=plan.planned_operations(self.layered),
        )
        self.tasks.append(task)
        self.instructions.append(EmitTask(task.task_id))


def partition_plan(
    layered: LayeredCircuit, trials: Sequence[Trial], depth: int = 1
) -> PlanPartition:
    """Cut the trial trie at ``depth`` into prefix program + sub-plans.

    ``depth=1`` puts every first-error subtree (and the error-free
    terminal tail) in its own task.  Larger depths produce more, smaller
    tasks.
    """
    return _Partitioner(layered, TrialTrie(trials), depth).partition()

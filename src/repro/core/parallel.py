"""Parallel subtree execution: partition the plan trie across processes.

After Algorithm 1 reorders the trial set into a prefix-sharing trie, the
subtrees hanging off each branch point are mutually independent — nothing
requires them to execute on one core (TQSim makes the same observation for
its reuse tree).  This module splits the optimized schedule in two:

* :func:`partition_plan` cuts the trie at a chosen ``depth`` into a
  **prefix program** (the shared work above the cut, executed once by the
  parent) and K independent :class:`SubPlan` tasks.  The partitioner is
  the serial plan builder (:mod:`repro.core.schedule`) with a cut: the
  prefix program is the serial plan with each cut subtree, and each
  above-cut node's terminal tail, replaced by an :class:`EmitTask`
  pseudo-instruction that serializes the task's entry state; each task
  carries its entry layer, entry event history and the builder's own
  Advance/Inject/Snapshot/Restore/Finish schedule for its part (local
  trial indices).
* :func:`run_parallel` executes the prefix against a real backend, ships
  each entry state to a worker process through
  ``multiprocessing.shared_memory`` (raw complex128 amplitudes — never
  pickled statevectors), runs every sub-plan with the ordinary
  :func:`~repro.core.executor.run_optimized` inside the workers, and
  merges the per-worker results back into exactly the serial outcome.

Determinism
-----------
Task ids are assigned in prefix-emission order, which by construction
equals the serial plan's ``Finish`` order (the prefix is the serial
builder's walk, and a subtree's finishes are contiguous in it).  The
parent therefore replays ``on_finish`` callbacks *in serial order* from
the workers' result buffers after the pool drains — so a seeded
measurement RNG consumes the identical stream and the merged counts are
bit-identical to ``run_optimized`` for any worker count, including 1.
The instruction multiset is also conserved: prefix ops plus the union of
sub-plan ops equal the serial plan's ops, so ``ops_applied`` totals match
exactly (property-tested).

Load balancing assigns tasks to workers with the LPT (longest processing
time first) greedy heuristic (:func:`~repro.core.schedule.lpt_assign`,
also the cost model's scheduler), weighted by each sub-plan's statically
known operation count — the same closed form the P-series sanitizer uses.

Fault tolerance
---------------
Tasks are dispatched through a dynamic queue, and every statevector that
crosses shared memory carries a CRC32 checksum
(:func:`~repro.core.cache.payload_checksum`): entry states are summed by
the parent before the fork, re-verified by each worker before use; finish
payloads are summed by the worker after the write, re-verified by the
parent before acceptance (and once more before the merge replay).  A
worker that crashes or blows its per-task deadline (``task_timeout``) is
detected by the parent — exit sentinel plus liveness polling — and its
task is requeued onto surviving workers up to ``retries`` times; when
retries are exhausted or no workers survive, the parent executes the task
itself (inline serial last resort, regenerating entry states from the
prefix if they were corrupted).  Every recovery path re-derives the same
bytes, so counts stay bit-identical to the no-fault run; only successful,
verified task attempts contribute to ``ops_applied`` (rejected attempts
are reported as ``wasted_ops``).  The ``faults`` hook accepts a
deterministic chaos plan (:class:`repro.testing.ChaosPlan`) for testing.

All of this recovery logic is one state machine (:func:`_drive_pool`)
over two transports that only move work and report what happened: forked
processes sharing a task queue (:class:`_ForkTransport`) and virtual
workers run one attempt at a time in this process
(:class:`_InlineTransport`, used without ``fork`` or with
``inline=True``).  Both run an attempt through the same
:meth:`_TaskBlock.attempt`, so a fault schedule takes the same recovery
path in either.

MSV accounting
--------------
A parallel run keeps more statevectors alive than the serial schedule: the
emitted entry snapshots (one per task) plus each worker's own working/
cached states.  :class:`ParallelOutcome` reports the deterministic static
bound ``max(prefix peak incl. emitted entries, num_tasks + sum of each
worker's largest task peak)``; finish-payload buffers are I/O, not
maintained state vectors, and are excluded (as in the serial accounting,
where finish payloads are borrowed or copied out).
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import multiprocessing
import os
import queue as queue_module
import signal as signal_module
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..sim.statevector import Statevector
from .cache import (
    CacheBudget,
    CacheStats,
    CorruptionError,
    StateCache,
    payload_checksum,
)
from .events import ErrorEvent, Trial
from .executor import (
    ExecutionOutcome,
    FinishCallback,
    RunInterrupted,
    _DenseStates,
    _interpret,
    _record_run_meta,
    run_optimized,
)
from .resilience import WorkerCrash
from .schedule import (
    Advance,
    EmitTask,
    ExecutionPlan,
    Inject,
    PlanInstruction,
    Restore,
    ScheduleError,
    Snapshot,
    _PlanBuilder,
    count_operations,
    localize_plan,
    lpt_assign,
    lpt_order,
)
from .trie import TrialTrie, TrieNode

__all__ = [
    "EmitTask",
    "SubPlan",
    "PlanPartition",
    "ParallelOutcome",
    "partition_plan",
    "run_parallel",
    "fork_available",
    "graceful_stop",
]

#: Exit code a worker uses for an injected (simulated) crash.
_CRASH_EXIT = 73


PrefixInstruction = Union[Advance, Snapshot, Inject, Restore, EmitTask]


class SubPlan:
    """One independent unit of parallel work: a subtree (or terminal tail)
    of the trial trie with its shared-prefix entry context."""

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
        #: Per-``Finish`` global index tuples, in the plan's finish order —
        #: what the parent replays through ``on_finish`` after the merge.
        self.finishes = finishes
        #: Statically known basic-operation count (load-balancing weight).
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
        #: serial plan's finish order (the determinism invariant).
        self.tasks = tasks
        self.num_trials = num_trials
        self.num_layers = num_layers
        self.depth = depth

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def total_finishes(self) -> int:
        return sum(task.num_finishes for task in self.tasks)

    def prefix_operations(self, layered: LayeredCircuit) -> int:
        """Basic operations the parent pays once (prefix Advances+Injects)."""
        return count_operations(self.prefix, layered)

    def planned_operations(self, layered: LayeredCircuit) -> int:
        """Closed-form total ops — equals the serial plan's count exactly."""
        return self.prefix_operations(layered) + sum(
            task.est_ops for task in self.tasks
        )

    def weights(self) -> List[int]:
        """Each task's LPT weight: its closed-form operation count."""
        return [task.est_ops for task in self.tasks]

    def assign(self, num_workers: int) -> List[List[int]]:
        """LPT-balance task ids over ``num_workers`` buckets
        (:func:`~repro.core.schedule.lpt_assign` over :meth:`weights`)."""
        return lpt_assign(self.weights(), num_workers)[0]

    def audit(self, trials=None, layered=None):
        """Partition-cover lint (rule P018) without raising."""
        from ..lint.partition_rules import lint_partition

        return lint_partition(self, trials=trials, layered=layered)

    def __repr__(self) -> str:
        return (
            f"PlanPartition(tasks={self.num_tasks}, depth={self.depth}, "
            f"trials={self.num_trials}, prefix={len(self.prefix)} instr)"
        )


class _Partitioner(_PlanBuilder):
    """The serial plan builder with a cut at ``depth``.

    The instructions it emits are the prefix program.  It overrides two
    steps of the builder's walk: a child at the cut depth becomes one
    task holding the builder's own walk of its subtree (slots numbered
    from 0), and a node above the cut hands its terminal trials' tail to
    a task instead of running it on the parent.  Everything else —
    advances, snapshot/steal decisions, the event checks — is the serial
    builder's, so the prefix and the tasks reassemble into the serial
    plan by construction.
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
        # The worker advances the entry state to the final layer and
        # finishes — keeping the expensive remaining layers off the parent.
        tail = _PlanBuilder(self.layered, self.trie)
        tail._terminals(node, cursor)
        self._emit_task(cursor, tail.instructions)

    def _emit_task(
        self, entry_layer: int, instructions: Sequence[PlanInstruction]
    ) -> None:
        """Localize a global-index instruction list into a SubPlan and
        emit it from the prefix."""
        plan, trial_indices, finishes = localize_plan(
            instructions, self.layered.num_layers
        )
        task = SubPlan(
            task_id=len(self.tasks),
            entry_layer=entry_layer,
            entry_events=tuple(self.path),
            plan=plan,
            trial_indices=trial_indices,
            finishes=finishes,
            est_ops=plan.planned_operations(self.layered),
        )
        self.tasks.append(task)
        self.instructions.append(EmitTask(task.task_id))


def partition_plan(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    depth: int = 1,
    check: bool = False,
) -> PlanPartition:
    """Cut the trial trie at ``depth`` into prefix program + sub-plans.

    ``depth=1`` puts every first-error subtree (and the error-free
    terminal tail) in its own task — the natural cut for the paper's
    tries, whose roots fan out widely.  Larger depths produce more,
    smaller tasks (finer load balancing, more entry snapshots to ship).
    With ``check=True`` the partition is audited by lint rule ``P018``
    (disjoint exact cover, consistent entry snapshots, sound sub-plans)
    before being returned.
    """
    trie = TrialTrie(trials)
    partition = _Partitioner(layered, trie, depth).partition()
    if check:
        audit = partition.audit(trials=trials, layered=layered)
        if not audit.ok:
            raise ScheduleError(
                "; ".join(str(diagnostic) for diagnostic in audit.errors)
            )
    return partition


class ParallelOutcome(ExecutionOutcome):
    """Merged counters of a parallel run, with the per-phase breakdown."""

    def __init__(
        self,
        ops_applied: int,
        num_trials: int,
        cache_stats: CacheStats,
        finish_calls: int,
        num_workers: int,
        partition_depth: int,
        num_tasks: int,
        assignment: Tuple[Tuple[int, ...], ...],
        prefix_ops: int,
        worker_ops: Tuple[int, ...],
        shm_bytes: int,
        used_fork: bool,
        parent_ops: int = 0,
        wasted_ops: int = 0,
        tasks_retried: int = 0,
        workers_lost: int = 0,
        parent_tasks: Tuple[int, ...] = (),
    ) -> None:
        super().__init__(ops_applied, num_trials, cache_stats, finish_calls)
        self.num_workers = num_workers
        self.partition_depth = partition_depth
        self.num_tasks = num_tasks
        self.assignment = assignment
        self.prefix_ops = prefix_ops
        self.worker_ops = worker_ops
        #: Total shared memory allocated (entry + result buffers).
        self.shm_bytes = shm_bytes
        #: False when the pool ran inline (no ``fork`` support, or forced).
        self.used_fork = used_fork
        #: Ops the parent spent on last-resort inline task execution.
        self.parent_ops = parent_ops
        #: Ops of completed-but-rejected attempts (checksum failures) and
        #: of prefix re-runs to regenerate corrupted entry states — work
        #: that was done but does not contribute to ``ops_applied``.
        self.wasted_ops = wasted_ops
        #: Task attempts requeued after a failure, crash or timeout.
        self.tasks_retried = tasks_retried
        #: Workers that crashed or were killed for blowing the deadline.
        self.workers_lost = workers_lost
        #: Task ids the parent ultimately executed itself.
        self.parent_tasks = parent_tasks

    def __repr__(self) -> str:
        return (
            f"ParallelOutcome(ops={self.ops_applied}, "
            f"trials={self.num_trials}, workers={self.num_workers}, "
            f"tasks={self.num_tasks}, peak_msv={self.peak_msv})"
        )


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


@contextlib.contextmanager
def graceful_stop(
    signals: Sequence[int] = (signal_module.SIGTERM, signal_module.SIGINT),
):
    """Turn SIGTERM/SIGINT into a cooperative stop event for the block.

    The default disposition of SIGTERM kills the process outright —
    ``finally`` blocks never run, so a parallel run leaks its
    shared-memory segments and a journal loses its in-flight tail.  Inside
    this context the listed signals instead set the yielded
    ``threading.Event``; executors polling it (``run_optimized(stop=...)``,
    ``run_parallel(stop=...)``) drain in-flight work, commit what
    completed, release every resource through their normal cleanup paths
    and raise :class:`~repro.core.executor.RunInterrupted`.  Previous
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


def _prefix_phase(
    partition: PlanPartition,
    layered: LayeredCircuit,
    backend,
    entries: np.ndarray,
    recorder=None,
) -> Dict[str, int]:
    """Phase 1: execute the prefix program once through the plan loop
    (:func:`~repro.core.executor._interpret`) on the dense state model,
    writing each task's entry state into ``entries[task_id]``.  Returns
    the phase-1 counters.
    """
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
    model = _DenseStates(
        layered, backend, cache, recorder, backend.make_initial()
    )
    _interpret(
        partition.prefix, layered, model, cache, recorder,
        tasks=partition.tasks, entries=entries,
    )
    stats = cache.stats()
    if recorder:
        recorder.end(
            "prefix", cat="parallel", ops_applied=model.ops_applied,
            tasks_emitted=partition.num_tasks,
        )
    return {
        "ops": model.ops_applied,
        "peak_live": stats.peak_msv,
        "peak_stored": stats.peak_stored,
        "snapshots_taken": stats.snapshots_taken,
    }


# -- task execution + integrity primitives --------------------------------------


#: The :class:`~repro.core.cache.CacheStats` counters a task reports
#: and the merge sums.
_DEGRADATION = ("spills", "spill_loads", "drops", "recomputes")


class _TaskBlock:
    """The shared-memory rows of one run and the task primitives over them.

    ``entries`` holds one entry state per task, ``results`` one row per
    finish payload.  The same object serves the parent, every forked
    worker (inherited through ``fork``, never pickled) and the in-process
    pool, so both transports run a task attempt through one code path.
    """

    def __init__(
        self,
        partition: PlanPartition,
        layered: LayeredCircuit,
        trials: Sequence[Trial],
        entries: np.ndarray,
        results: np.ndarray,
        cache_budget: Optional[CacheBudget],
        faults,
    ) -> None:
        self.partition = partition
        self.layered = layered
        self.trials = trials
        self.entries = entries
        self.results = results
        self.cache_budget = cache_budget
        self.faults = faults
        #: First ``results`` row of each task's finish payloads.
        self.offsets = list(
            itertools.accumulate(
                (task.num_finishes for task in partition.tasks[:-1]),
                initial=0,
            )
        )
        self.entry_checksums: List[int] = []

    def seal_entries(self) -> None:
        """Checksum every entry row before it crosses the process boundary
        (workers re-verify before use), then apply entry-corruption chaos."""
        self.entry_checksums = [payload_checksum(row) for row in self.entries]
        if self.faults is not None:
            for task_id in range(self.partition.num_tasks):
                if self.faults.corrupt_entry(task_id):
                    self._flip_byte(self.entries, task_id)

    @staticmethod
    def _flip_byte(array: np.ndarray, row: int) -> None:
        """Deterministically corrupt one byte of a shared-memory row."""
        array[row].view(np.uint8)[0] ^= 0xFF

    def verify_entry(self, task_id: int) -> None:
        """Raise :class:`CorruptionError` unless the entry row checks out."""
        actual = payload_checksum(self.entries[task_id])
        expected = self.entry_checksums[task_id]
        if actual != expected:
            raise CorruptionError(
                f"task {task_id} entry state failed its checksum "
                f"(expected {expected:#010x}, got {actual:#010x})"
            )

    def payloads_ok(self, task_id: int, checksums: Sequence[int]) -> bool:
        """Re-sum a task's finish rows against the attempt's reported CRCs."""
        if len(checksums) != self.partition.tasks[task_id].num_finishes:
            return False
        base = self.offsets[task_id]
        return all(
            payload_checksum(self.results[base + position]) == checksum
            for position, checksum in enumerate(checksums)
        )

    def run(self, task_id: int, backend, recorder) -> Dict[str, Any]:
        """Run one sub-plan; write its finish payloads and their checksums."""
        task = self.partition.tasks[task_id]
        # Each execution copies the entry snapshot into its own buffer; the
        # shared region stays pristine (retries re-read the same bytes).
        entry = Statevector(
            self.layered.num_qubits, tensor=self.entries[task_id]
        )
        local_trials = [self.trials[g] for g in task.trial_indices]
        rows = iter(self.results[self.offsets[task_id]:])
        checksums: List[int] = []

        def write_finish(payload, _local_indices):
            row = next(rows)
            np.copyto(row, payload.vector)
            checksums.append(payload_checksum(row))

        outcome = run_optimized(
            self.layered,
            local_trials,
            backend,
            write_finish,
            plan=task.plan,
            recorder=recorder,
            cache_budget=self.cache_budget,
            entry_state=entry,
            entry_layer=task.entry_layer,
            entry_events=task.entry_events,
        )
        stats = outcome.cache_stats
        return {
            "ops": outcome.ops_applied,
            "finish_calls": outcome.finish_calls,
            "snapshots_taken": stats.snapshots_taken,
            "peak": outcome.peak_msv,
            "stored": outcome.peak_stored,
            "degradation": {
                name: getattr(stats, name) for name in _DEGRADATION
            },
            "checksums": checksums,
        }

    def attempt(
        self,
        worker_id: int,
        task_id: int,
        attempt: int,
        tasks_done: int,
        backend,
        recorder,
        inline: bool,
    ) -> Dict[str, Any]:
        """One worker's attempt at a task: chaos hooks around a verified run.

        Raises :class:`WorkerCrash` for a scripted kill (the transport
        decides what dying means) and anything else for a failed attempt.
        """
        faults = self.faults
        if faults is not None:
            faults.before_task(
                worker_id, task_id, attempt, tasks_done, inline=inline
            )
        self.verify_entry(task_id)
        if recorder:
            # Opens this attempt on the worker's track: its cache events
            # belong to this task's sub-plan (P017 holds them to it).
            recorder.instant(
                "task.attempt", cat="parallel", task=task_id, attempt=attempt
            )
        report = self.run(task_id, backend, recorder)
        if faults is not None and faults.corrupt_payload(task_id, attempt):
            self._flip_byte(self.results, self.offsets[task_id])
        return report

    def replay(
        self, on_finish: Optional[FinishCallback], task_ids: Iterable[int]
    ) -> int:
        """Feed the finishes of ``task_ids`` to ``on_finish`` in order;
        returns the number of trials delivered."""
        num_qubits = self.layered.num_qubits
        delivered = 0
        for task_id in task_ids:
            task = self.partition.tasks[task_id]
            base = self.offsets[task_id]
            for position, global_indices in enumerate(task.finishes):
                if on_finish is not None:
                    payload = Statevector.from_buffer(
                        self.results[base + position], num_qubits
                    )
                    on_finish(payload, global_indices)
                    del payload
                delivered += len(global_indices)
        return delivered


# -- the pool: one recovery state machine over two transports -------------------


class _Event(NamedTuple):
    """One report from a transport to the recovery state machine.

    ``kind`` is ``"task"`` (``data`` = the attempt's report), ``"error"``
    (``data`` = the failure's repr), ``"crash"`` or ``"timeout"`` (the
    worker is gone; ``task`` = its in-flight task or ``None``, ``data`` =
    the exit code when known) or ``"done"`` (``data`` = the worker's child
    recorder).  Forked workers also send ``"start"``, which only the fork
    transport consumes, to arm the per-task deadline.
    """

    kind: str
    worker: int
    task: Optional[int] = None
    data: Any = None


class _PoolResult(NamedTuple):
    """What the state machine hands back to the merge phase."""

    completed: Dict[int, Dict[str, Any]]
    needs_parent: Set[int]
    recorders: List[Tuple[int, Any]]
    wasted_ops: int
    tasks_retried: int
    workers_lost: int
    #: A stop request ended dispatch early; ``completed`` holds whatever
    #: drained cleanly and no parent fallback may run.
    interrupted: bool = False


def _drive_pool(
    transport,
    block: _TaskBlock,
    order: Sequence[int],
    retries: int,
    recorder,
    stop=None,
) -> _PoolResult:
    """Dispatch every task through ``transport`` and recover from failures.

    The transport moves ``(task, attempt)`` pairs to workers and turns
    what comes back into :class:`_Event` s; everything else lives here and
    is identical for both transports:

    * a reported task is accepted only if its payload checksums verify,
      otherwise its ops are wasted and the task is retried;
    * a failed attempt, a crash and a blown deadline each cost the task
      one attempt; past ``retries``, or once no worker survives, the task
      falls to the parent;
    * a stop request drops queued work and keeps what drains cleanly;
    * at shutdown the transport's last events (late successes, worker
      recorders) are settled without further retries.

    A transport implements ``submit(task, attempt)``, ``poll() -> events``,
    ``alive() -> bool``, ``cancel()`` (drop queued work), ``drain() ->
    events`` (stop the workers, yield their last events) and ``close()``.
    """
    pending: Set[int] = set(range(block.partition.num_tasks))
    needs_parent: Set[int] = set()
    attempts = dict.fromkeys(pending, 0)
    completed: Dict[int, Dict[str, Any]] = {}
    recorders: Dict[int, Any] = {}
    counters = {"wasted_ops": 0, "tasks_retried": 0, "workers_lost": 0}
    draining = False

    def note(name: str, **args) -> None:
        if recorder:
            recorder.instant(name, cat="parallel", **args)

    def requeue(task_id: int, reason: str) -> None:
        if task_id not in pending or task_id in needs_parent:
            return  # settled, or already the parent's
        attempts[task_id] += 1
        if draining or attempts[task_id] > retries or not transport.alive():
            needs_parent.add(task_id)
            note("task.fallback", task=task_id, reason=reason)
        else:
            counters["tasks_retried"] += 1
            transport.submit(task_id, attempts[task_id])
            note(
                "task.retry", task=task_id, attempt=attempts[task_id],
                reason=reason,
            )

    def settle(event: _Event) -> None:
        kind, worker_id, task_id = event.kind, event.worker, event.task
        if kind == "done":
            if event.data is not None:
                recorders[worker_id] = event.data
        elif kind in ("crash", "timeout"):
            counters["workers_lost"] += 1
            note(
                f"worker.{kind}", worker=worker_id, task=task_id,
                exitcode=event.data,
            )
            if task_id is not None:
                requeue(task_id, kind)
        elif task_id not in pending:
            return  # stale duplicate of an already-settled task
        elif kind == "error":
            requeue(task_id, event.data)
        elif block.payloads_ok(task_id, event.data["checksums"]):
            completed[task_id] = dict(event.data, worker=worker_id)
            pending.discard(task_id)
            needs_parent.discard(task_id)
            note("task.accepted", task=task_id, from_worker=worker_id)
        else:
            counters["wasted_ops"] += event.data["ops"]
            note("payload.corrupt", task=task_id, worker=worker_id)
            requeue(task_id, "checksum")

    interrupted = False
    try:
        for task_id in order:
            transport.submit(task_id, 0)
        while pending - needs_parent:
            if stop is not None and stop.is_set():
                # Graceful shutdown: unstarted tasks are dropped; the
                # drain below still collects in-flight completions.
                interrupted = True
                transport.cancel()
                note("pool.interrupted", pending=len(pending))
                break
            for event in transport.poll():
                settle(event)
            if not transport.alive():
                needs_parent.update(pending)
        draining = True
        for event in transport.drain():
            settle(event)
    finally:
        transport.close()
    return _PoolResult(
        completed=completed,
        needs_parent=needs_parent,
        recorders=sorted(recorders.items()),
        interrupted=interrupted,
        **counters,
    )


def _worker_main(
    worker_id: int,
    block: _TaskBlock,
    backend_factory: Callable[[], Any],
    recorder,
    task_queue,
    report_queue,
) -> None:
    """Forked child main: pull ``(task, attempt)`` pairs until ``None``.

    Every claimed task produces a ``start`` event and then exactly one
    ``task`` or ``error`` event; a clean exit ends with ``done`` carrying
    the worker's trace recorder.  A scripted crash really exits.
    """
    backend = backend_factory()
    worker_recorder = recorder.child() if recorder else None
    tasks_done = 0
    for task_id, attempt in iter(task_queue.get, None):
        report_queue.put(_Event("start", worker_id, task_id))
        try:
            report = block.attempt(
                worker_id, task_id, attempt, tasks_done, backend,
                worker_recorder, inline=False,
            )
            event = _Event("task", worker_id, task_id, report)
        except WorkerCrash:  # pragma: no cover - exercised via fork tests
            # Flush buffered reports before dying: exiting while our
            # feeder thread holds the queue's shared write lock would
            # block every *other* worker's reports (a real crash there is
            # only recoverable via the task_timeout deadline).
            report_queue.close()
            report_queue.join_thread()
            os._exit(_CRASH_EXIT)
        except Exception as exc:
            event = _Event("error", worker_id, task_id, repr(exc))
        report_queue.put(event)
        tasks_done += 1
    if worker_recorder:
        from .hostinfo import peak_rss_kb

        worker_recorder.instant(
            "worker.host", cat="parallel", worker_id=worker_id,
            tasks_done=tasks_done, peak_rss_self_kb=peak_rss_kb()["self"],
        )
    report_queue.put(_Event("done", worker_id, data=worker_recorder))


class _ForkTransport:
    """Forked worker processes sharing one task queue.

    Workers pull pairs in submission (LPT) order, so the fastest worker
    takes the next task.  A dead process, or one whose in-flight task
    outlives ``task_timeout`` (it is killed), becomes a ``crash`` or
    ``timeout`` event carrying that task.
    """

    def __init__(
        self,
        block: _TaskBlock,
        backend_factory: Callable[[], Any],
        workers: int,
        recorder,
        task_timeout: Optional[float],
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.tasks = ctx.Queue()
        self.reports = ctx.Queue()
        self.task_timeout = task_timeout
        self.poll_s = 0.05 if task_timeout is None else min(
            0.05, task_timeout / 4
        )
        #: worker -> (task, monotonic start) of its in-flight attempt.
        self.inflight: Dict[int, Tuple[int, float]] = {}
        #: Workers that said ``done`` or were lost.
        self.finished: Set[int] = set()
        self.processes: Dict[int, Any] = {}
        for worker_id in range(workers):
            process = ctx.Process(
                target=_worker_main,
                args=(
                    worker_id, block, backend_factory, recorder,
                    self.tasks, self.reports,
                ),
            )
            process.start()
            self.processes[worker_id] = process

    def submit(self, task_id: int, attempt: int) -> None:
        self.tasks.put((task_id, attempt))

    def alive(self) -> bool:
        return len(self.finished) < len(self.processes)

    def poll(self) -> List[_Event]:
        try:
            event = self.reports.get(timeout=self.poll_s)
        except queue_module.Empty:
            return self._reap()
        if event.kind == "start":
            self.inflight[event.worker] = (event.task, time.monotonic())
            return []
        self.inflight.pop(event.worker, None)
        if event.kind == "done":
            self.finished.add(event.worker)
        return [event]

    def _reap(self) -> List[_Event]:
        """Turn dead and over-deadline workers into lost-worker events."""
        lost = []
        now = time.monotonic()
        for worker_id, process in self.processes.items():
            if worker_id in self.finished:
                continue
            task, started = self.inflight.get(worker_id, (None, now))
            if (
                self.task_timeout is not None
                and now - started > self.task_timeout
            ):
                _kill(process)
                kind, exitcode = "timeout", None
            elif not process.is_alive():
                kind, exitcode = "crash", process.exitcode
            else:
                continue
            self.finished.add(worker_id)
            self.inflight.pop(worker_id, None)
            lost.append(_Event(kind, worker_id, task, exitcode))
        return lost

    def cancel(self) -> None:
        with contextlib.suppress(queue_module.Empty):
            while True:
                self.tasks.get_nowait()

    def drain(self):
        """Send one sentinel per surviving worker, then collect their
        remaining events (late successes for given-up tasks included)."""
        for _ in range(len(self.processes) - len(self.finished)):
            self.tasks.put(None)
        deadline = time.monotonic() + 10.0
        while self.alive() and time.monotonic() < deadline:
            yield from self.poll()
        for worker_id, process in self.processes.items():
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                _kill(process)
                if worker_id not in self.finished:
                    self.finished.add(worker_id)
                    yield _Event("timeout", worker_id)

    def close(self) -> None:
        for process in self.processes.values():
            if process.is_alive():
                _kill(process)
        # Leftover queue items must not block interpreter shutdown.
        for q in (self.tasks, self.reports):
            q.close()
            q.cancel_join_thread()


def _kill(process) -> None:
    process.terminate()
    process.join(1.0)
    if process.is_alive():  # pragma: no cover - terminate refused
        process.kill()
        process.join(1.0)


class _InlineTransport:
    """Virtual workers in this process; each ``poll`` runs one attempt.

    Every submitted task goes to the least-loaded live worker, which is
    the LPT rule: a fault-free run executes exactly
    :meth:`PlanPartition.assign`'s buckets, each in task-id order, each
    on its own backend and child recorder as a real pool would.  A
    :class:`WorkerCrash` kills the virtual worker: its in-flight task
    comes back as a ``crash`` event and its queued tasks move to the
    survivors.  A scripted hang is a crash — there is no process to time
    out.
    """

    def __init__(
        self,
        block: _TaskBlock,
        backend_factory: Callable[[], Any],
        workers: int,
        recorder,
        weights: Sequence[int],
    ) -> None:
        self.block = block
        self.backend_factory = backend_factory
        self.recorder = recorder
        self.weights = weights
        #: Live workers only: load so far and a heap of (attempt, task).
        self.loads = {worker_id: 0 for worker_id in range(workers)}
        self.queues: Dict[int, List[Tuple[int, int]]] = {
            worker_id: [] for worker_id in range(workers)
        }
        #: Per started worker: its backend, child recorder, tasks done.
        self.backends: Dict[int, Any] = {}
        self.recorders: Dict[int, Any] = {}
        self.tasks_done: Dict[int, int] = {}

    def submit(self, task_id: int, attempt: int) -> None:
        worker_id = min(self.loads, key=lambda w: (self.loads[w], w))
        self.loads[worker_id] += max(1, self.weights[task_id])
        heapq.heappush(self.queues[worker_id], (attempt, task_id))

    def alive(self) -> bool:
        return bool(self.loads)

    def poll(self) -> List[_Event]:
        busy = [w for w in sorted(self.loads) if self.queues[w]]
        if not busy:
            return []
        worker_id = busy[0]
        attempt, task_id = heapq.heappop(self.queues[worker_id])
        if worker_id not in self.backends:
            self.backends[worker_id] = self.backend_factory()
            self.recorders[worker_id] = (
                self.recorder.child() if self.recorder else None
            )
            self.tasks_done[worker_id] = 0
        try:
            report = self.block.attempt(
                worker_id, task_id, attempt, self.tasks_done[worker_id],
                self.backends[worker_id], self.recorders[worker_id],
                inline=True,
            )
            event = _Event("task", worker_id, task_id, report)
        except WorkerCrash:
            del self.loads[worker_id]
            orphans = sorted(self.queues.pop(worker_id))
            if self.loads:
                for queued_attempt, queued_task in orphans:
                    self.submit(queued_task, queued_attempt)
            return [_Event("crash", worker_id, task_id)]
        except Exception as exc:
            event = _Event("error", worker_id, task_id, repr(exc))
        self.tasks_done[worker_id] += 1
        return [event]

    def cancel(self) -> None:
        for heap in self.queues.values():
            heap.clear()

    def drain(self):
        for worker_id, worker_recorder in self.recorders.items():
            yield _Event("done", worker_id, data=worker_recorder)

    def close(self) -> None:
        pass


def run_parallel(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend_factory: Callable[[], Any],
    on_finish: Optional[FinishCallback] = None,
    workers: int = 2,
    depth: int = 1,
    check: bool = False,
    recorder=None,
    inline: Optional[bool] = None,
    cache_budget: Optional[CacheBudget] = None,
    retries: int = 2,
    task_timeout: Optional[float] = None,
    faults=None,
    stop=None,
) -> ParallelOutcome:
    """Execute ``trials`` with prefix reuse across ``workers`` processes.

    Produces results bit-identical to the serial
    :func:`~repro.core.executor.run_optimized` for the same trial set:
    the same ``on_finish`` payload/index sequence in the same order (so a
    seeded RNG in the callback sees the identical stream), and the same
    total ``ops_applied`` — in every recovery path (worker crash, hang,
    corruption) as well as the no-fault run.

    Parameters
    ----------
    backend_factory:
        Zero-argument callable building a statevector-family backend
        (states must expose ``.vector``); called once in the parent for
        the prefix phase and once inside every worker.  Never pickled —
        workers inherit it through ``fork``.
    on_finish:
        Streaming consumer of final states, called in the parent *after*
        the pool drains, in exactly the serial plan's finish order.  The
        payload borrows the worker's result buffer (shared memory) and is
        only valid during the callback — copy it to retain it.
    workers:
        Worker process count; any value >= 1 (a single worker still
        exercises the full partition/serialize/merge machinery).
    depth:
        Trie cut depth passed to :func:`partition_plan`.
    check:
        Audit the partition with lint rule ``P018`` before executing and
        verify the merged operation count against the closed form after
        (the strict equality is relaxed to ``>=`` under a drop-mode cache
        budget, whose recomputes legitimately add operations).
    recorder:
        Optional trace recorder.  The parent records the prefix phase and
        the merge; each worker records into a fresh child recorder whose
        events are merged back tagged with a ``worker`` argument (the
        exporter fans them out to per-worker threads).  Falsy recorders
        keep the workers completely uninstrumented.
    inline:
        ``None`` (default) forks when the platform supports it and falls
        back to in-process execution otherwise; ``True`` forces the
        in-process path (deterministic tests, spy instrumentation);
        ``False`` demands real processes and raises without ``fork``.
    cache_budget:
        Optional :class:`~repro.core.cache.CacheBudget` forwarded to every
        sub-plan execution (workers and parent fallback alike); each task
        reports its spills, spill loads, drops and recomputes, and the
        merged ``CacheStats`` sums them.
    retries:
        How many times a failed task attempt (crash, timeout, checksum
        mismatch, exception) is requeued before the parent executes it
        inline as the last resort.
    task_timeout:
        Per-task deadline in seconds (fork mode only).  A worker whose
        in-flight task exceeds it is killed and the task requeued; without
        a deadline, hung workers are indistinguishable from slow ones.
    faults:
        Deterministic fault injector (:class:`repro.testing.ChaosPlan`)
        exposing ``before_task`` / ``corrupt_payload`` / ``corrupt_entry``
        hooks; production runs leave it ``None``.
    stop:
        Optional ``threading.Event`` enabling graceful shutdown (pair it
        with :func:`graceful_stop` to hook SIGTERM/SIGINT).  When set, no
        new tasks are dispatched; in-flight tasks drain to completion,
        finishes of the maximal completed task-id prefix (== the serial
        finish-order prefix, so a journal tee stays a valid resume point)
        are delivered through ``on_finish``, shared-memory segments are
        released, workers are joined, and
        :class:`~repro.core.executor.RunInterrupted` is raised.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    partition = partition_plan(layered, trials, depth=depth, check=check)
    weights = partition.weights()
    assignment = partition.assign(workers)
    use_fork = fork_available() if inline is None else not inline
    if inline is False and not fork_available():
        raise RuntimeError(
            "fork start method unavailable on this platform; "
            "use inline=None/True"
        )
    num_qubits = layered.num_qubits
    amplitudes = 2**num_qubits
    state_bytes = amplitudes * 16  # complex128
    num_tasks = partition.num_tasks
    total_finishes = partition.total_finishes
    shm_bytes = (num_tasks + total_finishes) * state_bytes

    from multiprocessing import shared_memory

    entries_shm = shared_memory.SharedMemory(
        create=True, size=num_tasks * state_bytes
    )
    results_shm = shared_memory.SharedMemory(
        create=True, size=total_finishes * state_bytes
    )
    try:
        block = _TaskBlock(
            partition,
            layered,
            trials,
            np.ndarray(
                (num_tasks, amplitudes), dtype=np.complex128,
                buffer=entries_shm.buf,
            ),
            np.ndarray(
                (total_finishes, amplitudes), dtype=np.complex128,
                buffer=results_shm.buf,
            ),
            cache_budget,
            faults,
        )

        if recorder:
            # The whole run's description, ahead of every sub-run's own
            # run.meta merged in from the workers.
            _record_run_meta(recorder, "parallel", layered, trials)
            recorder.instant(
                "parallel.meta", cat="parallel", workers=workers,
                depth=depth, tasks=num_tasks, shm_bytes=shm_bytes,
                fork=use_fork, retries=retries, task_timeout=task_timeout,
            )

        phase1 = _prefix_phase(
            partition, layered, backend_factory(), block.entries, recorder
        )
        block.seal_entries()

        # LPT dispatch order: heaviest first keeps the dynamic queue's
        # makespan near the static assignment's.
        order = lpt_order(weights)
        pool_size = min(workers, num_tasks)
        if use_fork:
            transport: Any = _ForkTransport(
                block, backend_factory, pool_size, recorder, task_timeout
            )
        else:
            transport = _InlineTransport(
                block, backend_factory, pool_size, recorder, weights
            )
        pool = _drive_pool(transport, block, order, retries, recorder, stop)
        completed, needs_parent = pool.completed, pool.needs_parent
        wasted_ops = pool.wasted_ops
        if recorder:
            for worker_id, worker_recorder in pool.recorders:
                recorder.merge(worker_recorder, worker=worker_id)

        if pool.interrupted:
            # Graceful shutdown: deliver the finishes of the maximal
            # *verified* completed task-id prefix — task-id order equals
            # the serial finish order, so the delivered stream (and any
            # journal tee behind on_finish) is an exact prefix of the
            # uninterrupted run — then surface the interrupt.  The
            # enclosing ``finally`` releases both shared-memory segments.
            prefix_tasks = list(
                itertools.takewhile(
                    lambda t: t in completed
                    and block.payloads_ok(t, completed[t]["checksums"]),
                    range(num_tasks),
                )
            )
            trials_delivered = block.replay(on_finish, prefix_tasks)
            raise RunInterrupted(
                "parallel run interrupted by stop request "
                f"({trials_delivered}/{len(trials)} trials committed)",
                trials_completed=trials_delivered,
            )

        # Final integrity sweep: accepted payloads must still verify (a
        # stale duplicate attempt could have scribbled after acceptance).
        for task_id, report in list(completed.items()):
            if not block.payloads_ok(task_id, report["checksums"]):
                wasted_ops += report["ops"]
                del completed[task_id]
                needs_parent.add(task_id)

        # Last resort: the parent executes leftover tasks inline, serially,
        # regenerating entry states if the shared block was corrupted.  Its
        # reports join the workers' under worker ``None``.
        if needs_parent:
            parent_backend = backend_factory()
            for task_id in sorted(needs_parent):
                try:
                    block.verify_entry(task_id)
                except CorruptionError:
                    regen = _prefix_phase(
                        partition, layered, backend_factory(), block.entries
                    )
                    wasted_ops += regen["ops"]
                    if recorder:
                        recorder.instant(
                            "prefix.regenerated", cat="parallel",
                            ops=regen["ops"],
                        )
                    block.verify_entry(task_id)
                completed[task_id] = dict(
                    block.run(task_id, parent_backend, None), worker=None
                )
                if recorder:
                    recorder.instant(
                        "task.inline", cat="parallel", task=task_id
                    )

        # Replay finishes in task-id order == serial finish order, so a
        # stateful on_finish (measurement RNG!) sees the serial stream.
        if on_finish is not None:
            if recorder:
                recorder.begin("merge", cat="parallel")
            block.replay(on_finish, range(num_tasks))
            if recorder:
                recorder.end(
                    "merge", cat="parallel", finish_calls=total_finishes
                )

        reports = list(completed.values())
        ops: Dict[Optional[int], int] = {}
        peaks: Dict[Optional[int], int] = {}
        stored: Dict[Optional[int], int] = {}
        for report in reports:
            worker_id = report["worker"]
            ops[worker_id] = ops.get(worker_id, 0) + report["ops"]
            peaks[worker_id] = max(peaks.get(worker_id, 0), report["peak"])
            stored[worker_id] = max(
                stored.get(worker_id, 0), report["stored"]
            )
        snapshots_taken = phase1["snapshots_taken"] + sum(
            report["snapshots_taken"] for report in reports
        )
        parent_ops = ops.pop(None, 0)
        worker_ops = tuple(ops[w] for w in sorted(ops))
        ops_applied = phase1["ops"] + sum(worker_ops) + parent_ops
        if check:
            planned = partition.planned_operations(layered)
            degraded = cache_budget is not None and cache_budget.mode == "drop"
            if (not degraded and ops_applied != planned) or (
                degraded and ops_applied < planned
            ):
                raise ScheduleError(
                    f"merged ops {ops_applied} != planned {planned}"
                )
        cache_stats = CacheStats(
            peak_msv=max(
                phase1["peak_live"], num_tasks + sum(peaks.values())
            ),
            peak_stored=max(
                phase1["peak_stored"], num_tasks + sum(stored.values())
            ),
            snapshots_taken=snapshots_taken,
            snapshots_released=snapshots_taken,
            **{
                name: sum(report["degradation"][name] for report in reports)
                for name in _DEGRADATION
            },
        )
        return ParallelOutcome(
            ops_applied=ops_applied,
            num_trials=len(trials),
            cache_stats=cache_stats,
            finish_calls=sum(report["finish_calls"] for report in reports),
            num_workers=workers,
            partition_depth=depth,
            num_tasks=num_tasks,
            assignment=tuple(tuple(bucket) for bucket in assignment),
            prefix_ops=phase1["ops"],
            worker_ops=worker_ops,
            shm_bytes=shm_bytes,
            used_fork=use_fork,
            parent_ops=parent_ops,
            wasted_ops=wasted_ops,
            tasks_retried=pool.tasks_retried,
            workers_lost=pool.workers_lost,
            parent_tasks=tuple(
                sorted(t for t, r in completed.items() if r["worker"] is None)
            ),
        )
    finally:
        # Views must be gone before close() — numpy keeps buffer exports.
        block = transport = None
        entries_shm.close()
        entries_shm.unlink()
        results_shm.close()
        results_shm.unlink()

"""Partitioner properties: cutting the trie preserves the serial plan.

The partition is correct iff (a) the tasks exactly cover the trial set,
(b) prefix ops plus sub-plan ops equal the serial plan's operation count,
and (c) concatenating the tasks' finishes in task-id order reproduces the
serial plan's ``Finish`` order — the invariant the deterministic merge in
:func:`repro.core.parallel.run_parallel` rests on.  All three follow from
(d): inlining every task's sub-plan at its ``EmitTask`` reproduces the
serial plan's instruction stream exactly.
"""

import numpy as np
import pytest

from repro.bench.suite import (
    benchmark_names,
    build_compiled_benchmark,
    resolve_benchmark,
)
from repro.circuits import layerize
from repro.core import build_plan, make_trial
from repro.core.parallel import EmitTask, partition_plan
from repro.core.schedule import Finish, Restore, ScheduleError, Snapshot
from repro.noise import ibm_yorktown, sample_trials


def _setup(name="bv4", num_trials=256, seed=7):
    layered = layerize(build_compiled_benchmark(name))
    trials = sample_trials(
        layered, ibm_yorktown(), num_trials, np.random.default_rng(seed)
    )
    return layered, trials


def _serial_finishes(layered, trials):
    plan = build_plan(layered, trials)
    return [
        instr.trial_indices
        for instr in plan.instructions
        if isinstance(instr, Finish)
    ]


class TestPartitionInvariants:
    @pytest.mark.parametrize("name", ["bv4", "qft4", "grover"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_operation_count_conserved(self, name, depth):
        layered, trials = _setup(name)
        partition = partition_plan(layered, trials, depth=depth)
        serial = build_plan(layered, trials)
        assert partition.planned_operations(layered) == (
            serial.planned_operations(layered)
        )

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_exact_cover(self, depth):
        layered, trials = _setup()
        partition = partition_plan(layered, trials, depth=depth)
        covered = sorted(
            index
            for task in partition.tasks
            for index in task.trial_indices
        )
        assert covered == list(range(len(trials)))

    @pytest.mark.parametrize("depth", [1, 2])
    def test_finish_order_matches_serial_plan(self, depth):
        layered, trials = _setup()
        partition = partition_plan(layered, trials, depth=depth)
        merged = [
            finish for task in partition.tasks for finish in task.finishes
        ]
        assert merged == _serial_finishes(layered, trials)

    def test_prefix_structure(self):
        layered, trials = _setup()
        partition = partition_plan(layered, trials, depth=1)
        prefix = partition.prefix
        assert isinstance(prefix[-1], EmitTask)
        emitted = []
        for index, instr in enumerate(prefix):
            if isinstance(instr, EmitTask):
                emitted.append(instr.task_id)
                follower = (
                    prefix[index + 1] if index + 1 < len(prefix) else None
                )
                # The working state is consumed by the emit: the next
                # instruction swaps in a cached state or the prefix ends.
                assert follower is None or isinstance(follower, Restore)
        assert emitted == list(range(partition.num_tasks))

    def test_audit_is_clean(self):
        layered, trials = _setup()
        for depth in (1, 2, 3):
            partition = partition_plan(layered, trials, depth=depth)
            audit = partition.audit(trials=trials, layered=layered)
            assert audit.ok, [str(d) for d in audit.errors]
            assert audit.info["num_tasks"] == partition.num_tasks
            assert audit.info["covered_trials"] == len(trials)

    def test_check_flag_runs_the_audit(self):
        layered, trials = _setup(num_trials=64)
        partition = partition_plan(layered, trials, depth=1, check=True)
        assert partition.num_tasks >= 1

    def test_local_indices_round_trip(self):
        """Sub-plan Finishes use local indices; trial_indices maps back."""
        layered, trials = _setup()
        partition = partition_plan(layered, trials, depth=1)
        for task in partition.tasks:
            local_finishes = [
                instr.trial_indices
                for instr in task.plan.instructions
                if isinstance(instr, Finish)
            ]
            assert len(local_finishes) == task.num_finishes
            for local, global_indices in zip(local_finishes, task.finishes):
                assert tuple(
                    task.trial_indices[i] for i in local
                ) == global_indices


def _inline(partition):
    """The prefix with every task's sub-plan inlined at its ``EmitTask``.

    ``Finish`` indices map back through ``trial_indices``, and every
    ``Snapshot`` is renumbered in order of appearance, keyed by its owner
    (the prefix or one task) so the two slot spaces stay apart.
    """
    stream = []
    slots = {}

    def emit(owner, instructions, task=None):
        for instr in instructions:
            if isinstance(instr, EmitTask):
                sub = partition.tasks[instr.task_id]
                emit(instr.task_id, sub.plan.instructions, sub)
            elif isinstance(instr, Snapshot):
                slots[owner, instr.slot] = len(slots)
                stream.append(Snapshot(slots[owner, instr.slot]))
            elif isinstance(instr, Restore):
                stream.append(Restore(slots[owner, instr.slot]))
            elif isinstance(instr, Finish):
                stream.append(
                    Finish(tuple(task.trial_indices[i] for i in instr.trial_indices))
                )
            else:
                stream.append(instr)

    emit("prefix", partition.prefix)
    return stream


class TestPartitionIsTheSerialPlanCut:
    """Inlining every task back at its emission point gives the serial
    plan, instruction for instruction — the partitioner is the serial
    plan builder with a cut, not a second walk."""

    @pytest.mark.parametrize("name", benchmark_names() + ["qft12", "bv14"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_inlined_partition_is_the_serial_plan(self, name, depth):
        circuit, model = resolve_benchmark(name)
        layered = layerize(circuit)
        trials = sample_trials(
            layered, model, 256, np.random.default_rng(depth)
        )
        partition = partition_plan(layered, trials, depth=depth)
        serial = build_plan(layered, trials)
        assert _inline(partition) == serial.instructions

    def test_error_free_trials_inline_to_the_serial_plan(self):
        layered, _ = _setup()
        trials = [make_trial([]) for _ in range(8)]
        partition = partition_plan(layered, trials, depth=1)
        assert _inline(partition) == build_plan(layered, trials).instructions


class TestPartitionEdgeCases:
    def test_error_free_trials_become_one_tail_task(self):
        layered, _ = _setup()
        trials = [make_trial([]) for _ in range(8)]
        partition = partition_plan(layered, trials, depth=1)
        assert partition.num_tasks == 1
        assert partition.prefix == (EmitTask(0),)
        task = partition.tasks[0]
        assert task.entry_layer == 0
        assert task.trial_indices == tuple(range(8))
        assert partition.prefix_operations(layered) == 0

    def test_depth_beyond_trie_still_exact(self):
        layered, trials = _setup(num_trials=128)
        shallow = partition_plan(layered, trials, depth=1)
        deep = partition_plan(layered, trials, depth=50)
        assert deep.num_tasks >= shallow.num_tasks
        assert deep.planned_operations(layered) == (
            shallow.planned_operations(layered)
        )
        assert deep.audit(trials=trials, layered=layered).ok

    def test_depth_below_one_raises(self):
        layered, trials = _setup(num_trials=16)
        with pytest.raises(ScheduleError):
            partition_plan(layered, trials, depth=0)

    def test_empty_trials_raise(self):
        layered, _ = _setup()
        with pytest.raises(ScheduleError):
            partition_plan(layered, [], depth=1)

    def test_subplans_still_share_prefixes_internally(self):
        """Cutting must not flatten the subtrees: tasks keep their own
        Snapshot/Restore reuse below the cut."""
        layered, trials = _setup(num_trials=512)
        partition = partition_plan(layered, trials, depth=1)
        assert any(
            isinstance(instr, Snapshot)
            for task in partition.tasks
            for instr in task.plan.instructions
        )


class TestAssignment:
    def test_lpt_covers_every_task_once(self):
        layered, trials = _setup()
        partition = partition_plan(layered, trials, depth=1)
        for workers in (1, 2, 3, 8):
            buckets = partition.assign(workers)
            assert len(buckets) == workers
            flat = sorted(t for bucket in buckets for t in bucket)
            assert flat == list(range(partition.num_tasks))
            for bucket in buckets:
                assert bucket == sorted(bucket)

    def test_lpt_is_deterministic(self):
        layered, trials = _setup()
        partition = partition_plan(layered, trials, depth=1)
        assert partition.assign(3) == partition.assign(3)

    def test_lpt_balances_loads(self):
        layered, trials = _setup(name="qft4", num_trials=512)
        partition = partition_plan(layered, trials, depth=1)
        buckets = partition.assign(2)
        loads = [
            sum(partition.tasks[t].est_ops for t in bucket)
            for bucket in buckets
        ]
        total = sum(loads)
        # LPT guarantees far better than 4/3 OPT; just pin "not absurd":
        # no worker carries everything while another idles.
        assert total > 0
        assert max(loads) < total

    def test_more_workers_than_tasks_leaves_empty_buckets(self):
        layered, _ = _setup()
        trials = [make_trial([]) for _ in range(4)]
        partition = partition_plan(layered, trials, depth=1)
        buckets = partition.assign(5)
        assert sum(1 for bucket in buckets if bucket) == partition.num_tasks

    def test_zero_workers_raise(self):
        layered, trials = _setup(num_trials=16)
        partition = partition_plan(layered, trials, depth=1)
        with pytest.raises(ValueError):
            partition.assign(0)

"""P018 partition-cover lint: positives, targeted corruptions, trace check."""

import numpy as np
import pytest

from repro.bench.suite import build_compiled_benchmark, resolve_benchmark
from repro.circuits import layerize
from repro.core.executor import run_optimized
from repro.core.parallel import (
    EmitTask,
    PlanPartition,
    SubPlan,
    partition_plan,
    run_parallel,
)
from repro.core.schedule import Advance, ExecutionPlan, Finish, Restore, Snapshot
from repro.lint import lint_partition, lint_partition_trace
from repro.noise import ibm_yorktown, sample_trials
from repro.obs import InMemoryRecorder
from repro.obs.summary import summarize
from repro.sim.compiled import CompiledStatevectorBackend
from repro.testing import ChaosPlan


@pytest.fixture(scope="module")
def fixture():
    layered = layerize(build_compiled_benchmark("bv4"))
    trials = sample_trials(
        layered, ibm_yorktown(), 256, np.random.default_rng(17)
    )
    partition = partition_plan(layered, trials, depth=1)
    return layered, trials, partition


def _clone_with_task(partition, task_id, replacement):
    tasks = list(partition.tasks)
    tasks[task_id] = replacement
    return PlanPartition(
        prefix=partition.prefix,
        tasks=tuple(tasks),
        num_trials=partition.num_trials,
        num_layers=partition.num_layers,
        depth=partition.depth,
    )


def _tamper_prefix(partition, edit):
    prefix = list(partition.prefix)
    edit(prefix)
    return PlanPartition(
        prefix=tuple(prefix),
        tasks=partition.tasks,
        num_trials=partition.num_trials,
        num_layers=partition.num_layers,
        depth=partition.depth,
    )


def _first(prefix, kind):
    return next(i for i, instr in enumerate(prefix) if isinstance(instr, kind))


def _swap_first_emits(prefix):
    first = _first(prefix, EmitTask)
    second = next(
        i for i in range(first + 1, len(prefix))
        if isinstance(prefix[i], EmitTask)
    )
    prefix[first], prefix[second] = prefix[second], prefix[first]


def _replace_first_restore(prefix):
    prefix[_first(prefix, Restore)] = Restore(999)


def _unknown_task(partition):
    def edit(prefix):
        prefix[_first(prefix, EmitTask)] = EmitTask(partition.num_tasks + 5)

    return _tamper_prefix(partition, edit)


def _ops_not_conserved(partition):
    victim = partition.tasks[0]
    return _clone_with_task(
        partition, 0, _clone_task(victim, est_ops=victim.est_ops + 1)
    )


def _finish_order_not_conserved(partition):
    victim = next(t for t in partition.tasks if len(t.trial_indices) > 1)
    return _clone_with_task(
        partition,
        victim.task_id,
        _clone_task(victim, trial_indices=victim.trial_indices[::-1]),
    )


#: P018 prefix-replay and conservation tampers, each with the message
#: fragment the rule must report.
PARTITION_TAMPERS = {
    "unknown-task": (_unknown_task, "emits unknown task"),
    "task-emitted-twice": (
        lambda p: _tamper_prefix(
            p, lambda prefix: prefix.append(prefix[_first(prefix, EmitTask)])
        ),
        "emitted more than once",
    ),
    "emit-then-non-restore": (
        lambda p: _tamper_prefix(
            p,
            lambda prefix: prefix.insert(
                _first(prefix, EmitTask) + 1, Advance(1, 1)
            ),
        ),
        "emission is followed by Advance",
    ),
    "restore-empty-slot": (
        lambda p: _tamper_prefix(p, _replace_first_restore),
        "prefix restores slot 999, which is empty",
    ),
    "leaked-slot": (
        lambda p: _tamper_prefix(p, lambda prefix: prefix.insert(0, Snapshot(999))),
        "prefix slot 999 is never restored",
    ),
    "out-of-order-emission": (
        lambda p: _tamper_prefix(p, _swap_first_emits),
        "emitted out of id order",
    ),
    "ops-not-conserved": (_ops_not_conserved, "basic operation(s) but"),
    "finish-order-not-conserved": (
        _finish_order_not_conserved,
        "partition finish order differs",
    ),
}


def _clone_task(task, **overrides):
    fields = {
        "task_id": task.task_id,
        "entry_layer": task.entry_layer,
        "entry_events": task.entry_events,
        "plan": task.plan,
        "trial_indices": task.trial_indices,
        "finishes": task.finishes,
        "est_ops": task.est_ops,
    }
    fields.update(overrides)
    return SubPlan(**fields)


class TestStaticAudit:
    def test_clean_partition_passes(self, fixture):
        layered, trials, partition = fixture
        result = lint_partition(partition, trials=trials, layered=layered)
        assert result.ok, [str(d) for d in result.errors]
        assert result.info["num_tasks"] == partition.num_tasks
        assert result.info["covered_trials"] == len(trials)
        assert result.info["planned_operations"] is not None

    def test_structural_audit_without_trials(self, fixture):
        _, _, partition = fixture
        assert lint_partition(partition).ok

    def test_duplicated_trial_detected(self, fixture):
        layered, trials, partition = fixture
        victim = partition.tasks[0]
        indices = list(victim.trial_indices)
        other = partition.tasks[-1].trial_indices[0]
        indices[0] = other  # now duplicated there, missing here
        bad = _clone_with_task(
            partition, 0, _clone_task(victim, trial_indices=tuple(indices))
        )
        result = lint_partition(bad)
        messages = [d.message for d in result.errors]
        assert any("covered by both task" in m for m in messages)
        assert any("covered by no task" in m for m in messages)

    def test_out_of_range_trial_detected(self, fixture):
        _, _, partition = fixture
        victim = partition.tasks[0]
        indices = (partition.num_trials + 7,) + victim.trial_indices[1:]
        bad = _clone_with_task(
            partition, 0, _clone_task(victim, trial_indices=indices)
        )
        result = lint_partition(bad)
        assert any("outside" in d.message for d in result.errors)

    def test_entry_layer_mismatch_detected(self, fixture):
        layered, trials, partition = fixture
        victim = partition.tasks[0]
        bad = _clone_with_task(
            partition,
            0,
            _clone_task(victim, entry_layer=victim.entry_layer + 1),
        )
        result = lint_partition(bad, trials=trials, layered=layered)
        assert any(
            "entry layer" in d.message for d in result.errors
        )

    def test_entry_events_mismatch_detected(self, fixture):
        layered, trials, partition = fixture
        # Pick a task entered through at least one injected event and
        # claim it saw none.
        victim = next(t for t in partition.tasks if t.entry_events)
        bad = _clone_with_task(
            partition,
            victim.task_id,
            _clone_task(victim, entry_events=()),
        )
        result = lint_partition(bad, trials=trials, layered=layered)
        assert any("entry events" in d.message for d in result.errors)

    def test_truncated_prefix_detected(self, fixture):
        _, _, partition = fixture
        bad = PlanPartition(
            prefix=partition.prefix[:-1],  # drop the final EmitTask
            tasks=partition.tasks,
            num_trials=partition.num_trials,
            num_layers=partition.num_layers,
            depth=partition.depth,
        )
        result = lint_partition(bad)
        assert any("never emitted" in d.message for d in result.errors)

    def test_corrupt_subplan_reemitted_as_p018(self, fixture):
        layered, trials, partition = fixture
        victim = next(t for t in partition.tasks if t.num_finishes > 1)
        instructions = [
            instr
            for instr in victim.plan.instructions
            if not isinstance(instr, Finish)
        ]
        broken_plan = ExecutionPlan(
            instructions,
            num_trials=victim.plan.num_trials,
            num_layers=victim.plan.num_layers,
        )
        bad = _clone_with_task(
            partition,
            victim.task_id,
            _clone_task(victim, plan=broken_plan),
        )
        result = lint_partition(bad, trials=trials, layered=layered)
        assert any(
            "sub-plan" in d.message and d.code == "P018"
            for d in result.errors
        )

    @pytest.mark.parametrize("tamper", sorted(PARTITION_TAMPERS))
    def test_prefix_and_conservation_tampers_detected(self, fixture, tamper):
        layered, trials, partition = fixture
        make, fragment = PARTITION_TAMPERS[tamper]
        result = lint_partition(make(partition), trials=trials, layered=layered)
        assert {d.code for d in result.errors} == {"P018"}
        assert any(fragment in d.message for d in result.errors), [
            d.message for d in result.errors
        ]

    def test_all_diagnostics_use_p018(self, fixture):
        _, _, partition = fixture
        bad = PlanPartition(
            prefix=partition.prefix[:-1],
            tasks=partition.tasks,
            num_trials=partition.num_trials + 3,
            num_layers=partition.num_layers,
            depth=partition.depth,
        )
        result = lint_partition(bad)
        assert result.errors
        assert {d.code for d in result.errors} == {"P018"}


class TestTraceAudit:
    def _record_run(self, layered, trials, workers=2, faults=None):
        recorder = InMemoryRecorder()
        run_parallel(
            layered,
            trials,
            lambda: CompiledStatevectorBackend(layered),
            workers=workers,
            recorder=recorder,
            inline=True,
            faults=faults,
        )
        return recorder

    @pytest.mark.parametrize(
        "name, faults",
        [
            ("bv4", {"kill": {0: 0}}),
            ("qft5", {"kill": {0: 0}}),
            ("grover", {"kill": {0: 0}}),
            ("qft5", {"corrupt": {2: 1}}),
            ("grover", {"corrupt": {1: 1}}),
        ],
    )
    def test_recovered_run_passes_p017(self, name, faults):
        """Recovery moves tasks off the static LPT buckets (a worker dies
        before its first task; a rejected payload is retried elsewhere);
        the run is still correct, so its merged trace must pass."""
        circuit, model = resolve_benchmark(name)
        layered = layerize(circuit)
        trials = sample_trials(layered, model, 64, np.random.default_rng(5))
        recorder = self._record_run(
            layered, trials, faults=ChaosPlan(**faults)
        )
        partition = partition_plan(layered, trials, depth=1)
        result = lint_partition_trace(partition, recorder)
        assert result.ok, [str(d) for d in result.errors]

    def test_merged_summary_describes_the_whole_run(self, fixture):
        layered, trials, _ = fixture
        serial = InMemoryRecorder()
        run_optimized(
            layered, trials, CompiledStatevectorBackend(layered),
            recorder=serial,
        )
        merged = summarize(self._record_run(layered, trials))
        expected = summarize(serial)
        for key in ("num_trials", "num_distinct_trials", "baseline_ops"):
            assert getattr(merged, key) == getattr(expected, key), key

    def test_merged_trace_passes_per_worker_p017(self, fixture):
        layered, trials, partition = fixture
        recorder = self._record_run(layered, trials)
        result = lint_partition_trace(partition, recorder)
        assert result.ok, [str(d) for d in result.errors]
        assert "parent" in result.info
        assert any(key.startswith("worker") for key in result.info)

    def test_missing_worker_events_detected(self, fixture):
        layered, trials, partition = fixture
        recorder = self._record_run(layered, trials)
        # Workers' sub-plans contain snapshots (the trie branches below
        # the cut), so an empty worker track cannot satisfy its plan.
        recorder.events = [
            event
            for event in recorder.events
            if not (event.args and "worker" in event.args)
        ]
        result = lint_partition_trace(partition, recorder)
        assert not result.ok

    def test_cross_worker_contamination_detected(self, fixture):
        layered, trials, partition = fixture
        recorder = self._record_run(layered, trials)
        # Relabel every worker-1 event as worker 0: track 0 now replays
        # foreign cache traffic and track 1 goes silent.
        for event in recorder.events:
            if event.args and event.args.get("worker") == 1:
                event.args["worker"] = 0
        result = lint_partition_trace(partition, recorder)
        assert not result.ok

"""The pool's recovery state machine, driven without processes.

``_drive_pool`` owns every recovery decision (accept, retry, fall back to
the parent, stop, settle late reports); a transport only moves
``(task, attempt)`` pairs and reports what happened.  The first class
scripts a transport by hand so each decision is pinned on its own; the
rest check that the two real transports share those decisions.
"""

import threading
from collections import deque

import numpy as np
import pytest

from repro.bench.suite import build_compiled_benchmark
from repro.circuits import layerize
from repro.core import run_optimized
from repro.core.parallel import (
    _drive_pool,
    _Event,
    _InlineTransport,
    fork_available,
    partition_plan,
    run_parallel,
)
from repro.noise import ibm_yorktown, sample_trials
from repro.obs import InMemoryRecorder
from repro.sim.compiled import CompiledStatevectorBackend
from repro.testing import ChaosPlan

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


class _Partition:
    def __init__(self, num_tasks):
        self.num_tasks = num_tasks


class _Block:
    """Payloads verify iff the report's checksums say ``"ok"``."""

    def __init__(self, num_tasks):
        self.partition = _Partition(num_tasks)

    def payloads_ok(self, task_id, checksums):
        return checksums == "ok"


def _report(checksums="ok", ops=10):
    return {"checksums": checksums, "ops": ops}


class _ScriptedTransport:
    """One worker per entry of ``workers``; ``outcome(task, attempt)``
    decides what each attempt reports."""

    def __init__(self, outcome, workers=(0, 1), late=()):
        self.outcome = outcome
        self.live = set(workers)
        self.queue = deque()
        self.submitted = []
        self.late = list(late)
        self.cancelled = False
        self.closed = False

    def submit(self, task_id, attempt):
        self.submitted.append((task_id, attempt))
        self.queue.append((task_id, attempt))

    def alive(self):
        return bool(self.live)

    def poll(self):
        if not self.queue or not self.live:
            return []
        task_id, attempt = self.queue.popleft()
        worker = min(self.live)
        event = self.outcome(task_id, attempt, worker)
        if event.kind in ("crash", "timeout"):
            self.live.discard(worker)
        return [event]

    def cancel(self):
        self.cancelled = True
        self.queue.clear()

    def drain(self):
        yield from self.late

    def close(self):
        self.closed = True


def _drive(transport, num_tasks=3, retries=2, stop=None):
    return _drive_pool(
        transport, _Block(num_tasks), list(range(num_tasks)), retries,
        None, stop,
    )


class TestStateMachine:
    def test_fault_free_run_accepts_every_task_once(self):
        transport = _ScriptedTransport(
            lambda t, a, w: _Event("task", w, t, _report())
        )
        pool = _drive(transport)
        assert sorted(pool.completed) == [0, 1, 2]
        assert pool.completed[1]["worker"] == 0
        assert not pool.needs_parent and not pool.interrupted
        assert (pool.tasks_retried, pool.wasted_ops, pool.workers_lost) == (
            0, 0, 0,
        )
        assert transport.submitted == [(0, 0), (1, 0), (2, 0)]
        assert transport.closed

    def test_checksum_failure_wastes_ops_and_retries(self):
        def outcome(t, a, w):
            bad = t == 1 and a == 0
            return _Event("task", w, t, _report("bad" if bad else "ok", 7))

        transport = _ScriptedTransport(outcome)
        pool = _drive(transport)
        assert sorted(pool.completed) == [0, 1, 2]
        assert pool.wasted_ops == 7
        assert pool.tasks_retried == 1
        assert (1, 1) in transport.submitted

    def test_exhausted_retries_fall_to_the_parent(self):
        def outcome(t, a, w):
            if t == 2:
                return _Event("error", w, t, "MemoryError()")
            return _Event("task", w, t, _report())

        pool = _drive(_ScriptedTransport(outcome), retries=1)
        assert pool.needs_parent == {2}
        assert pool.tasks_retried == 1
        assert 2 not in pool.completed

    def test_crash_costs_an_attempt_and_requeues_the_task(self):
        def outcome(t, a, w):
            if w == 0 and t == 0:
                return _Event("crash", w, t, 73)
            return _Event("task", w, t, _report())

        transport = _ScriptedTransport(outcome)
        pool = _drive(transport)
        assert pool.workers_lost == 1
        assert pool.tasks_retried == 1
        assert (0, 1) in transport.submitted
        assert sorted(pool.completed) == [0, 1, 2]
        assert pool.completed[0]["worker"] == 1

    def test_no_survivors_sends_everything_pending_to_the_parent(self):
        transport = _ScriptedTransport(
            lambda t, a, w: _Event("crash", w, t), workers=(0,)
        )
        pool = _drive(transport)
        assert pool.workers_lost == 1
        assert pool.needs_parent == {0, 1, 2}
        assert pool.tasks_retried == 0

    def test_stale_duplicates_are_ignored(self):
        def outcome(t, a, w):
            return _Event("task", w, t, _report())

        late = [
            _Event("task", 1, 0, _report("bad", 99)),  # after acceptance
            _Event("error", 1, 0, "late"),
        ]
        pool = _drive(_ScriptedTransport(outcome, late=late))
        assert sorted(pool.completed) == [0, 1, 2]
        assert pool.wasted_ops == 0 and pool.tasks_retried == 0

    def test_stop_cancels_queued_work_and_settles_the_drain(self):
        stop = threading.Event()
        stop.set()
        recorder = InMemoryRecorder()
        late = [
            _Event("task", 0, 1, _report()),
            _Event("error", 1, 2, "interrupted"),
            _Event("done", 0, data=recorder),
        ]
        transport = _ScriptedTransport(
            lambda t, a, w: _Event("task", w, t, _report()), late=late
        )
        pool = _drive(transport, stop=stop)
        assert pool.interrupted and transport.cancelled
        assert sorted(pool.completed) == [1]
        # A failure while draining never resubmits: the pool is closing.
        assert transport.submitted == [(0, 0), (1, 0), (2, 0)]
        assert pool.needs_parent == {2}
        assert pool.recorders == [(0, recorder)]


def _setup(name="bv4", num_trials=160, seed=13):
    layered = layerize(build_compiled_benchmark(name))
    trials = sample_trials(
        layered, ibm_yorktown(), num_trials, np.random.default_rng(seed)
    )
    return layered, trials


def _run(layered, trials, **kwargs):
    stream = []
    outcome = run_parallel(
        layered,
        trials,
        lambda: CompiledStatevectorBackend(layered),
        lambda p, i: stream.append((np.array(p.vector, copy=True), i)),
        **kwargs,
    )
    return stream, outcome


def _serial(layered, trials):
    stream = []
    run_optimized(
        layered, trials, CompiledStatevectorBackend(layered),
        lambda p, i: stream.append((np.array(p.vector, copy=True), i)),
    )
    return stream


def _assert_same_stream(left, right):
    assert len(left) == len(right)
    for (l_state, l_indices), (r_state, r_indices) in zip(left, right):
        assert l_indices == r_indices
        assert np.array_equal(l_state, r_state)


class TestInlineTransport:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_placement_is_the_static_lpt_assignment(self, workers):
        layered, trials = _setup()
        partition = partition_plan(layered, trials)
        weights = [task.est_ops for task in partition.tasks]
        order = sorted(range(partition.num_tasks), key=lambda t: (-weights[t], t))
        transport = _InlineTransport(
            None, None, min(workers, partition.num_tasks), None, weights
        )
        for task_id in order:
            transport.submit(task_id, 0)
        placed = [
            sorted(task for _, task in transport.queues[w])
            for w in range(len(transport.queues))
        ]
        expected = partition.assign(workers)[: len(placed)]
        assert placed == expected

    def test_crash_moves_queued_tasks_and_costs_an_attempt(self):
        layered, trials = _setup()
        stream, outcome = _run(
            layered, trials, workers=2, inline=True, retries=0,
            faults=ChaosPlan(kill={0: 0}),
        )
        _assert_same_stream(_serial(layered, trials), stream)
        assert outcome.workers_lost == 1
        # retries=0: the crashed attempt was the task's only one.
        assert len(outcome.parent_tasks) == 1
        assert outcome.parent_tasks[0] in outcome.assignment[0]
        # Worker 0's other tasks ran on worker 1 instead.
        assert len(outcome.worker_ops) == 1


@needs_fork
class TestTransportParity:
    """Faults whose recovery does not depend on which worker takes which
    task must leave identical counters under either transport."""

    @pytest.mark.parametrize(
        "plan",
        [
            lambda: ChaosPlan(corrupt={0: 1}, alloc_fail={2: 1}),
            lambda: ChaosPlan(corrupt={1: 9}),
            lambda: ChaosPlan(corrupt_entries=(3,)),
        ],
    )
    def test_same_recovery_counters(self, plan):
        layered, trials = _setup()
        results = [
            _run(
                layered, trials, workers=2, inline=inline, retries=1,
                faults=plan(),
            )
            for inline in (True, False)
        ]
        (i_stream, inline), (f_stream, forked) = results
        _assert_same_stream(i_stream, f_stream)
        assert not inline.used_fork and forked.used_fork
        for name in (
            "ops_applied", "wasted_ops", "tasks_retried", "workers_lost",
            "parent_tasks", "parent_ops", "finish_calls",
        ):
            assert getattr(inline, name) == getattr(forked, name), name

    def test_recorders_merge_in_worker_order(self):
        layered, trials = _setup(num_trials=64)
        tracks = []
        for inline in (True, False):
            recorder = InMemoryRecorder()
            _run(
                layered, trials, workers=2, inline=inline, recorder=recorder
            )
            seen = []
            for event in recorder.events:
                worker = (event.args or {}).get("worker")
                if worker is not None and worker not in seen:
                    seen.append(worker)
            tracks.append(seen)
        assert tracks == [[0, 1], [0, 1]]

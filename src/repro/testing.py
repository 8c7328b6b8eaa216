"""Test utilities: random circuits/trials, comparisons, fault injection.

Shared by the repository's own test-suite and useful for downstream users
writing property tests against the simulator.  The :class:`ChaosPlan`
fault injector plugs into :func:`repro.core.parallel.run_parallel` via its
``faults=`` hook to script worker crashes, hangs, payload/entry-state
corruption and allocation failures deterministically — the chaos property
tests assert that *every* fault schedule still yields results bit-identical
to the fault-free serial run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .circuits.circuit import QuantumCircuit
from .circuits.layers import LayeredCircuit
from .core.events import ErrorEvent, Trial, make_trial
from .core.resilience import WorkerCrash

__all__ = [
    "random_circuit",
    "random_trials",
    "assert_states_close",
    "ChaosPlan",
    "ServerKilled",
    "ServiceChaosPlan",
    "GATE_POOL_1Q",
    "GATE_POOL_2Q",
]

#: Single-qubit gate names the random generator draws from.
GATE_POOL_1Q: Tuple[str, ...] = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
#: Two-qubit gate names the random generator draws from.
GATE_POOL_2Q: Tuple[str, ...] = ("cx", "cz", "swap")


def random_circuit(
    num_qubits: int,
    num_gates: int,
    rng: np.random.Generator,
    two_qubit_fraction: float = 0.3,
    measured: bool = True,
    parametric: bool = True,
) -> QuantumCircuit:
    """A random circuit over the standard gate library.

    Gates are drawn uniformly from the pools; two-qubit gates appear with
    probability ``two_qubit_fraction`` (when the circuit has 2+ qubits).
    """
    circuit = QuantumCircuit(num_qubits, name="random")
    for _ in range(num_gates):
        use_two = num_qubits >= 2 and rng.random() < two_qubit_fraction
        if use_two:
            name = GATE_POOL_2Q[int(rng.integers(len(GATE_POOL_2Q)))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.gate(name, int(a), int(b))
        elif parametric and rng.random() < 0.3:
            theta = float(rng.uniform(0, 2 * np.pi))
            name = ("rx", "ry", "rz")[int(rng.integers(3))]
            circuit.gate(name, int(rng.integers(num_qubits)), params=(theta,))
        else:
            name = GATE_POOL_1Q[int(rng.integers(len(GATE_POOL_1Q)))]
            circuit.gate(name, int(rng.integers(num_qubits)))
    if measured:
        circuit.measure_all()
    return circuit


def random_trials(
    layered: LayeredCircuit,
    num_trials: int,
    rng: np.random.Generator,
    max_errors: int = 4,
) -> List[Trial]:
    """Random trials with uniformly placed errors (model-free).

    Unlike :func:`repro.noise.sampling.sample_trials` this does not need a
    noise model — it places 0..``max_errors`` Pauli events uniformly over
    (layer, qubit) positions, which is what the reordering/property tests
    want: adversarial trial sets, not physically plausible ones.
    """
    if layered.num_layers == 0:
        raise ValueError("cannot place errors in an empty circuit")
    trials: List[Trial] = []
    paulis = ("x", "y", "z")
    for _ in range(num_trials):
        num_errors = int(rng.integers(0, max_errors + 1))
        events = {}
        for _ in range(num_errors):
            layer = int(rng.integers(layered.num_layers))
            qubit = int(rng.integers(layered.num_qubits))
            events[(layer, qubit)] = ErrorEvent(
                layer, qubit, paulis[int(rng.integers(3))]
            )
        trials.append(make_trial(tuple(events.values())))
    return trials


class ChaosPlan:
    """Deterministic fault schedule for the parallel executor.

    All triggers are scripted up front — no randomness, no wall-clock
    dependence — so a failing chaos test replays exactly.  The same plan
    object drives both pool transports through one recovery state
    machine: in fork mode a kill really calls ``os._exit`` inside the
    child and a hang really sleeps past the deadline; in inline mode both
    surface as :class:`WorkerCrash` (there is no process to kill or to
    time out).  Either way the lost attempt costs the task one retry.

    Parameters
    ----------
    kill:
        ``{worker_id: after_tasks}`` — worker ``worker_id`` dies when it
        picks up its ``after_tasks``-th task (0 = its very first).
    hang:
        ``{worker_id: (after_tasks, seconds)}`` — instead of dying, the
        worker sleeps ``seconds`` before running the task (fork mode;
        pair it with ``task_timeout`` so the parent reaps it).  Inline
        pools treat a due hang as a crash.
    corrupt:
        ``{task_id: times}`` — the first ``times`` attempts of the task
        have one payload byte flipped after the worker writes (and
        checksums) its finish states, so the parent's re-verification
        must catch it and requeue.
    alloc_fail:
        ``{task_id: times}`` — the first ``times`` attempts raise
        :class:`MemoryError` before the task runs (simulated allocation
        failure; exercises the generic retry path).
    corrupt_entries:
        Task ids whose *entry state* is corrupted in shared memory after
        the parent computed its checksum — every worker attempt fails
        entry verification, forcing the parent's regenerate-and-run-inline
        last resort.

    Note that a plan instance is forked into every worker, so mutable
    trigger state is per-process; the ``after_tasks`` counters use the
    worker-local completed-task count the pool passes in, which is
    consistent in both flavours.  Kill and hang triggers are consumed
    when they fire — a plan instance drives **one** run; build a fresh
    plan per run rather than reusing one.
    """

    def __init__(
        self,
        kill: Optional[Dict[int, int]] = None,
        hang: Optional[Dict[int, Tuple[int, float]]] = None,
        corrupt: Optional[Dict[int, int]] = None,
        alloc_fail: Optional[Dict[int, int]] = None,
        corrupt_entries: Tuple[int, ...] = (),
    ) -> None:
        self.kill = dict(kill or {})
        self.hang = dict(hang or {})
        self.corrupt = dict(corrupt or {})
        self.alloc_fail = dict(alloc_fail or {})
        self.corrupt_entries = tuple(corrupt_entries)

    def before_task(
        self,
        worker: int,
        task: int,
        attempt: int,
        tasks_done: int,
        inline: bool = False,
    ) -> None:
        """Pool hook: raise/sleep per the schedule before a task runs."""
        if worker in self.kill and tasks_done >= self.kill[worker]:
            del self.kill[worker]
            raise WorkerCrash(
                f"chaos: killing worker {worker} before task {task}"
            )
        if worker in self.hang and tasks_done >= self.hang[worker][0]:
            _, seconds = self.hang.pop(worker)
            if inline:
                # No process to reap inline — a hang degenerates to a crash.
                raise WorkerCrash(
                    f"chaos: worker {worker} hung before task {task}"
                )
            time.sleep(seconds)
        if self.alloc_fail.get(task, 0) > attempt:
            raise MemoryError(
                f"chaos: simulated allocation failure for task {task} "
                f"(attempt {attempt})"
            )

    def corrupt_payload(self, task: int, attempt: int) -> bool:
        """Pool hook: should this attempt's finish payload be corrupted?"""
        return self.corrupt.get(task, 0) > attempt

    def corrupt_entry(self, task: int) -> bool:
        """Pool hook: should this task's shared entry state be corrupted?"""
        return task in self.corrupt_entries

    def __repr__(self) -> str:
        parts = []
        for name in ("kill", "hang", "corrupt", "alloc_fail"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        if self.corrupt_entries:
            parts.append(f"corrupt_entries={self.corrupt_entries}")
        return f"ChaosPlan({', '.join(parts)})"


class ServerKilled(BaseException):
    """Simulated kill -9 of the serving process.

    Deliberately a ``BaseException``: the service tier's retry/except
    machinery catches ``Exception``, and a SIGKILL must blow straight
    through it exactly as process death would.  Raised by
    :class:`ServiceChaosPlan` from inside a job's trial stream — i.e.
    *after* the run journal wrote that trial's record to the OS — so the
    state the "dead" server leaves behind is precisely a crash-consistent
    journal tail, which the recovery tests then resume against.  The
    record need not be fsynced yet: the journal fsyncs in groups, and
    unwinding through its ``close()`` fsyncs the open one, so a test of
    an OS crash drops the unsynced bytes itself.
    """


class ServiceChaosPlan:
    """Deterministic fault schedule for the service tier.

    Plugs into :func:`repro.serve.jobs.execute_job` via its ``chaos=``
    hook, which calls :meth:`on_trial` once per streamed trial.  All
    triggers are scripted up front and keyed by job *label* (the
    client-chosen name in the spec), so a failing chaos test replays
    exactly.

    Parameters
    ----------
    kill_after:
        ``{label: trials}`` — the "server" dies (:class:`ServerKilled`)
        once the labelled job has streamed that many trials.  Consumed
        when fired; a plan drives one server lifetime.
    torn_labels:
        Labels whose run journal should have garbage appended after the
        kill (the test harness does the appending via
        :meth:`tear_journal`) — modelling a crash mid-``write`` of a
        record.

    A trial streams once its record is written, not once its group is
    fsynced, so a kill here models process death, not an OS crash.
    """

    def __init__(
        self,
        kill_after: Optional[Dict[str, int]] = None,
        torn_labels: Tuple[str, ...] = (),
    ) -> None:
        self.kill_after = dict(kill_after or {})
        self.torn_labels = tuple(torn_labels)
        self.killed: List[str] = []

    def on_trial(self, record, index: int) -> None:
        """Service hook: one trial of ``record`` is about to stream."""
        label = record.spec.label
        due = self.kill_after.get(label)
        if due is not None and record.trials_streamed >= due:
            del self.kill_after[label]
            self.killed.append(label)
            raise ServerKilled(
                f"chaos: server killed during job {label!r} after "
                f"{record.trials_streamed} streamed trials"
            )

    @staticmethod
    def tear_journal(path: str, garbage: bytes = b"\x00\xffTORN") -> None:
        """Append a torn (uncommitted, CRC-invalid) tail to a journal."""
        with open(path, "ab") as handle:
            handle.write(garbage)

    def __repr__(self) -> str:
        parts = []
        if self.kill_after:
            parts.append(f"kill_after={self.kill_after}")
        if self.torn_labels:
            parts.append(f"torn_labels={self.torn_labels}")
        return f"ServiceChaosPlan({', '.join(parts)})"


def assert_states_close(state_a, state_b, atol: float = 1e-9) -> None:
    """Raise ``AssertionError`` unless two statevectors match amplitude-wise."""
    vec_a = np.asarray(state_a.vector)
    vec_b = np.asarray(state_b.vector)
    if vec_a.shape != vec_b.shape:
        raise AssertionError(f"shape mismatch: {vec_a.shape} vs {vec_b.shape}")
    worst = float(np.max(np.abs(vec_a - vec_b)))
    if worst > atol:
        raise AssertionError(f"states differ by {worst} (> {atol})")

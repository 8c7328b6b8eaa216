"""Crash-safe journaling: kill a run mid-plan, resume with zero recompute.

The journal records finish payloads at trial granularity in the serial
finish order, each flushed to the OS as it is written and fsynced in
groups; resuming replays the committed prefix and recomputes only the
remaining trials, producing the identical ``on_finish`` stream (and
therefore identical counts for a seeded measurement RNG).
"""

import math
import os
import threading

import numpy as np
import pytest

from repro.bench.suite import build_compiled_benchmark
from repro.circuits import layerize
from repro.core import run_optimized
from repro.core.executor import RunInterrupted
from repro.core.resilience import (
    GROUP_RECORDS,
    GROUP_SECONDS,
    JournalError,
    RunJournal,
    journal_fingerprint,
    load_journal,
    run_journaled,
)
from repro.core.runner import NoisySimulator
from repro.core.schedule import build_plan
from repro.lint import lint_journal
from repro.noise import ibm_yorktown, sample_trials
from repro.sim.compiled import CompiledStatevectorBackend
from repro.sim.counting import CountingBackend


def _setup(name="bv4", num_trials=96, seed=5):
    layered = layerize(build_compiled_benchmark(name))
    trials = sample_trials(
        layered, ibm_yorktown(), num_trials, np.random.default_rng(seed)
    )
    return layered, trials


def _serial_stream(layered, trials):
    stream = []
    run_optimized(
        layered, trials, CompiledStatevectorBackend(layered),
        lambda p, i: stream.append((np.array(p.vector, copy=True), i)),
    )
    return stream


class _CrashAfter(Exception):
    pass


def _run_until(layered, trials, path, crash_after):
    """Journal a run, aborting after ``crash_after`` finishes."""
    seen = []

    def on_finish(payload, indices):
        seen.append(indices)
        if len(seen) == crash_after:
            raise _CrashAfter

    with pytest.raises(_CrashAfter):
        run_journaled(
            layered, trials,
            lambda: CompiledStatevectorBackend(layered), on_finish, path,
        )
    return seen


class TestJournalFormat:
    def test_roundtrip(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        stream = []
        outcome, summary = run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: stream.append((np.array(p.vector, copy=True), i)),
            path,
        )
        assert not summary.resumed
        replay = load_journal(path)
        assert not replay.truncated
        assert len(replay.finishes) == len(stream)
        assert replay.completed_trials == frozenset(range(len(trials)))
        for (vector, indices), (state, expected) in zip(
            replay.finishes, stream
        ):
            assert tuple(indices) == tuple(expected)
            assert np.array_equal(vector, state)

    def test_torn_tail_is_tolerated(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        intact = load_journal(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)  # tear the last commit marker
        torn = load_journal(path)
        assert torn.truncated
        assert len(torn.finishes) == len(intact.finishes) - 1

    def test_corrupt_payload_truncates_from_there(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        intact = load_journal(path)
        # Flip a byte in the middle of the file's record region.
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        damaged = load_journal(path)
        assert damaged.truncated
        assert len(damaged.finishes) < len(intact.finishes)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.journal")
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 64)
        with pytest.raises(JournalError):
            load_journal(path)

    def test_counting_backend_cannot_journal(self, tmp_path):
        layered, trials = _setup()
        journal = RunJournal.create(
            str(tmp_path / "run.journal"), layered, trials
        )
        backend = CountingBackend(layered)
        state = backend.make_initial()
        payload = backend.finish(state)
        with pytest.raises(JournalError):
            journal.record(payload, (0,))
        journal.close()

    def test_fingerprint_depends_on_inputs(self):
        layered, trials = _setup()
        other_layered, other_trials = _setup(num_trials=97)
        assert journal_fingerprint(layered, trials) != journal_fingerprint(
            other_layered, other_trials
        )


class TestResume:
    def test_resume_replays_prefix_and_recomputes_nothing_done(self, tmp_path):
        layered, trials = _setup()
        serial = _serial_stream(layered, trials)
        path = str(tmp_path / "run.journal")
        _run_until(layered, trials, path, crash_after=4)
        committed = load_journal(path)

        resumed = []
        outcome, summary = run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: resumed.append((np.array(p.vector, copy=True), i)),
            path,
        )
        assert summary.resumed
        assert summary.replayed_finishes == len(committed.finishes)
        assert len(resumed) == len(serial)
        for (s_state, s_indices), (r_state, r_indices) in zip(serial, resumed):
            assert tuple(s_indices) == tuple(r_indices)
            assert np.array_equal(s_state, r_state)
        # Zero recompute: the resumed run's ops equal the closed-form
        # plan cost of exactly the not-yet-committed trials.
        remaining = [
            trial for index, trial in enumerate(trials)
            if index not in committed.completed_trials
        ]
        planned = build_plan(layered, remaining).planned_operations(layered)
        assert outcome.ops_applied == planned

    def test_fully_committed_journal_resumes_with_zero_ops(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        outcome, summary = run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        assert outcome.ops_applied == 0
        assert summary.replayed_trials == len(trials)

    def test_resume_after_torn_tail(self, tmp_path):
        layered, trials = _setup()
        serial = _serial_stream(layered, trials)
        path = str(tmp_path / "run.journal")
        _run_until(layered, trials, path, crash_after=6)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        resumed = []
        _, summary = run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: resumed.append((np.array(p.vector, copy=True), i)),
            path,
        )
        assert summary.truncated_tail
        for (s_state, s_indices), (r_state, r_indices) in zip(serial, resumed):
            assert tuple(s_indices) == tuple(r_indices)
            assert np.array_equal(s_state, r_state)
        # The journal is now complete; a further resume replays everything.
        final = load_journal(path)
        assert not final.truncated
        assert final.completed_trials == frozenset(range(len(trials)))

    def test_foreign_journal_refused(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        _, other_trials = _setup(seed=6)
        with pytest.raises(JournalError):
            run_journaled(
                layered, other_trials,
                lambda: CompiledStatevectorBackend(layered),
                lambda p, i: None, path,
            )

class TestRunnerIntegration:
    def _simulator(self, seed=7):
        circuit = build_compiled_benchmark("bv4")
        return NoisySimulator(circuit, ibm_yorktown(), seed=seed)

    def test_journaled_counts_identical_after_crash(self, tmp_path):
        path = str(tmp_path / "run.journal")
        trials = self._simulator().sample(128)

        reference = self._simulator().run(trials=trials)

        # Crash partway: abort the journaled run by poisoning the RNG
        # stream is not possible from outside, so crash via a journal
        # written against an aborted manual run instead.
        layered = self._simulator().layered
        _run_until(layered, trials, path, crash_after=3)

        resumed = self._simulator().run(trials=trials, journal=path)
        assert resumed.journal is not None
        assert resumed.journal.resumed
        assert resumed.journal.replayed_trials > 0
        assert resumed.counts == reference.counts

    def test_journal_of_other_trials_is_refused_before_any_replay(
        self, tmp_path
    ):
        """A journal written for other trials than the seed now draws (one
        from before the sampler's stream changed, docs/architecture.md §7
        pin 4) fails P019's fingerprint check: nothing replays, nothing
        streams, and the journal stays as it was, so the two streams never
        mix."""
        path = str(tmp_path / "run.journal")
        layered = self._simulator().layered
        foreign = sample_trials(
            layered, ibm_yorktown(), 128, np.random.default_rng(99)
        )
        _run_until(layered, foreign, path, crash_after=3)
        with open(path, "rb") as handle:
            before = handle.read()
        streamed = []
        with pytest.raises(JournalError, match="P019.*fingerprint"):
            self._simulator().run(
                num_trials=128, journal=path,
                on_trial=lambda index, bits: streamed.append(index),
            )
        assert streamed == []
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_journal_requires_optimized_statevector(self, tmp_path):
        path = str(tmp_path / "run.journal")
        simulator = self._simulator()
        with pytest.raises(ValueError):
            simulator.run(num_trials=16, mode="baseline", journal=path)
        with pytest.raises(ValueError):
            simulator.run(num_trials=16, backend="counting", journal=path)


class TestJournalLint:
    def test_clean_journal_passes(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        result = lint_journal(path, layered=layered, trials=trials)
        assert result.ok
        assert result.info["completed_trials"] == len(trials)
        assert not result.info["truncated"]

    def test_structural_only_without_context(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        assert lint_journal(path).ok

    def test_fingerprint_mismatch_fires_p019(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        _, other_trials = _setup(seed=8)
        result = lint_journal(path, layered=layered, trials=other_trials)
        assert not result.ok
        assert any(d.code == "P019" for d in result.errors)

    def test_torn_tail_is_info_not_error(self, tmp_path):
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            lambda p, i: None, path,
        )
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 2)
        result = lint_journal(path, layered=layered, trials=trials)
        assert result.ok
        assert result.info["truncated"]


class _Clock:
    """A journal clock that moves only when a test moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def still_clock(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(RunJournal, "clock", staticmethod(clock))
    return clock


def _tiny_journal(path):
    """A one-qubit journal: records are cheap, so groups fill fast."""
    return RunJournal(path, num_qubits=1, num_trials=10_000, fingerprint=0)


_TINY_STATE = np.array([1.0, 0.0], dtype=np.complex128)


class TestGroupCommit:
    """Records reach the OS one at a time; fsync runs once per group."""

    def test_a_journaled_run_fsyncs_once_per_group(
        self, tmp_path, still_clock, fsync_log
    ):
        layered, trials = _setup("qft5", num_trials=256, seed=5)
        path = str(tmp_path / "run.journal")
        _, summary = run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            None, path,
        )
        finishes = summary.recorded_finishes
        assert finishes > GROUP_RECORDS
        syncs = fsync_log.sizes(path)
        # Header, one per full group, and the open group at close.
        assert len(syncs) <= math.ceil(finishes / GROUP_RECORDS) + 2
        assert len(syncs) < finishes
        assert syncs[-1] == os.path.getsize(path)

    def test_an_old_group_is_fsynced_at_the_next_append(
        self, tmp_path, still_clock, fsync_log
    ):
        path = str(tmp_path / "run.journal")
        journal = _tiny_journal(path)
        assert fsync_log.sizes(path) == [28]  # the header
        journal.record(_TINY_STATE, (0,))
        assert len(fsync_log.sizes(path)) == 1
        still_clock.now += GROUP_SECONDS * 1.01
        journal.record(_TINY_STATE, (1,))
        assert fsync_log.sizes(path)[1:] == [os.path.getsize(path)]
        journal.close()

    def test_a_full_group_is_fsynced_and_close_adds_nothing(
        self, tmp_path, still_clock, fsync_log
    ):
        path = str(tmp_path / "run.journal")
        journal = _tiny_journal(path)
        for index in range(GROUP_RECORDS - 1):
            journal.record(_TINY_STATE, (index,))
        assert len(fsync_log.sizes(path)) == 1
        journal.record(_TINY_STATE, (GROUP_RECORDS - 1,))
        assert fsync_log.sizes(path)[1:] == [os.path.getsize(path)]
        journal.close()
        assert len(fsync_log.sizes(path)) == 2

    def test_each_record_is_in_the_file_before_on_finish_sees_it(
        self, tmp_path
    ):
        """A killed process keeps what it wrote: every streamed finish
        is already a whole, verifiable record in the file."""
        layered, trials = _setup()
        path = str(tmp_path / "run.journal")
        checked = []

        def on_finish(payload, indices):
            replay = load_journal(path)
            assert not replay.truncated
            assert replay.committed_bytes == os.path.getsize(path)
            vector, recorded = replay.finishes[-1]
            assert recorded == tuple(indices)
            assert np.array_equal(vector, payload.vector)
            checked.append(len(replay.finishes))

        run_journaled(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            on_finish, path,
        )
        assert checked == list(range(1, len(checked) + 1))

    def test_a_stopped_run_leaves_no_pending_record(
        self, tmp_path, still_clock, fsync_log
    ):
        layered, trials = _setup("qft5", num_trials=256, seed=5)
        path = str(tmp_path / "run.journal")
        stop = threading.Event()
        seen = []

        def on_finish(payload, indices):
            seen.append(indices)
            if len(seen) == GROUP_RECORDS + 3:
                stop.set()

        with pytest.raises(RunInterrupted):
            run_journaled(
                layered, trials, lambda: CompiledStatevectorBackend(layered),
                on_finish, path, stop=stop,
            )
        assert fsync_log.sizes(path)[-1] == os.path.getsize(path)
        assert len(load_journal(path).finishes) == len(seen)

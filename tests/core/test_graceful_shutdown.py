"""Graceful SIGTERM/SIGINT shutdown: stop events, journal tails, no leaks."""

import os
import signal
import subprocess
import sys
import threading

import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.core.executor import RunInterrupted
from repro.core.parallel import graceful_stop


def _sim(seed=7, name="qft4"):
    return NoisySimulator(
        build_compiled_benchmark(name), ibm_yorktown(), seed=seed
    )


class TestGracefulStopContext:
    def test_sigterm_sets_the_event_and_handler_is_restored(self):
        previous = signal.getsignal(signal.SIGTERM)
        with graceful_stop() as stop:
            assert not stop.is_set()
            os.kill(os.getpid(), signal.SIGTERM)
            assert stop.wait(5.0)
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_sigint_sets_the_event(self):
        with graceful_stop() as stop:
            os.kill(os.getpid(), signal.SIGINT)
            assert stop.wait(5.0)
        # The suite must survive: the default SIGINT handler is restored
        # only after the event absorbed the signal.

    def test_custom_signal_subset(self):
        with graceful_stop(signals=(signal.SIGTERM,)) as stop:
            os.kill(os.getpid(), signal.SIGTERM)
            assert stop.wait(5.0)


class TestSerialStop:
    def test_preset_stop_interrupts_before_any_work(self):
        stop = threading.Event()
        stop.set()
        with pytest.raises(RunInterrupted) as info:
            _sim().run(num_trials=64, stop=stop)
        assert info.value.trials_completed == 0

    def test_midrun_stop_commits_journal_tail_and_resumes_exactly(
        self, tmp_path
    ):
        journal = str(tmp_path / "run.journal")
        reference = _sim().run(num_trials=200)
        stop = threading.Event()
        delivered = []

        def trip(index, bits):
            delivered.append(index)
            if len(delivered) >= 50:
                stop.set()

        with pytest.raises(RunInterrupted) as info:
            _sim().run(num_trials=200, journal=journal, stop=stop,
                       on_trial=trip)
        assert info.value.trials_completed >= 50
        resumed = _sim().run(num_trials=200, journal=journal)
        assert resumed.counts == reference.counts
        assert resumed.journal.resumed
        assert resumed.journal.replayed_trials >= 50
        assert resumed.metrics.optimized_ops < reference.metrics.optimized_ops

    def test_baseline_mode_honours_stop(self):
        stop = threading.Event()
        stop.set()
        with pytest.raises(RunInterrupted):
            _sim().run(num_trials=16, mode="baseline", stop=stop)


class TestHybridStop:

    def test_preset_stop_interrupts_before_any_work(self, monkeypatch):
        from repro.sim.compiled import CompiledStatevectorBackend

        kernel_calls = []
        real = CompiledStatevectorBackend.apply_layers

        def spy(self, *args, **kwargs):
            kernel_calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(CompiledStatevectorBackend, "apply_layers", spy)
        stop = threading.Event()
        stop.set()
        with pytest.raises(RunInterrupted) as info:
            _sim(name="qft5").run(num_trials=256, stop=stop, hybrid=True)
        assert info.value.trials_completed == 0
        assert kernel_calls == []

    def test_midrun_stop_reports_the_delivered_trials(self):
        stop = threading.Event()
        delivered = []

        def trip(index, bits):
            delivered.append(index)
            if len(delivered) >= 50:
                stop.set()

        with pytest.raises(RunInterrupted) as info:
            _sim(name="qft5").run(
                num_trials=256, stop=stop, on_trial=trip, hybrid=True
            )
        assert info.value.trials_completed == len(delivered)
        assert 50 <= len(delivered) < 256


class TestParallelStop:
    def test_interrupted_parallel_run_is_resumable(self, tmp_path):
        journal = str(tmp_path / "run.journal")
        reference = _sim(seed=3).run(num_trials=256)
        stop = threading.Event()
        stop.set()  # workers may still drain pre-queued tasks; that is fine
        try:
            interrupted = _sim(seed=3).run(
                num_trials=256, workers=2, journal=journal, stop=stop
            )
            # The pool drained everything before the parent's stop check:
            # a fully delivered run is an acceptable outcome of "drain".
            assert interrupted.counts == reference.counts
        except RunInterrupted as exc:
            assert 0 <= exc.trials_completed <= 256
            resumed = _sim(seed=3).run(num_trials=256, journal=journal)
            assert resumed.counts == reference.counts

    def test_interrupt_releases_shared_memory(self):
        import glob

        before = set(glob.glob("/dev/shm/psm_*"))
        stop = threading.Event()
        stop.set()
        try:
            _sim(seed=5).run(num_trials=128, workers=2, stop=stop)
        except RunInterrupted:
            pass
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after - before == set(), "interrupt leaked shm segments"


_CHILD = r"""
import sys, threading
from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.core.executor import RunInterrupted
from repro.core.parallel import graceful_stop

journal = sys.argv[1]
sim = NoisySimulator(build_compiled_benchmark("qft5"), ibm_yorktown(), seed=9)
with graceful_stop() as stop:
    print("STARTED", flush=True)
    try:
        sim.run(num_trials=4000, journal=journal, stop=stop)
        print("DONE", flush=True)
        sys.exit(0)
    except RunInterrupted as exc:
        print(f"INTERRUPTED {exc.trials_completed}", flush=True)
        sys.exit(42)
"""


class TestRealSignal:
    def test_sigterm_to_subprocess_leaves_resumable_journal(self, tmp_path):
        journal = str(tmp_path / "run.journal")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, journal],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        assert child.stdout is not None
        assert child.stdout.readline().strip() == "STARTED"
        child.send_signal(signal.SIGTERM)
        out, _ = child.communicate(timeout=120)
        if child.returncode == 42:
            assert "INTERRUPTED" in out
            # The committed tail must resume into the exact full result.
            reference = NoisySimulator(
                build_compiled_benchmark("qft5"), ibm_yorktown(), seed=9
            ).run(num_trials=4000)
            resumed = NoisySimulator(
                build_compiled_benchmark("qft5"), ibm_yorktown(), seed=9
            ).run(num_trials=4000, journal=journal)
            assert resumed.counts == reference.counts
        else:
            # The run beat the signal; a clean completion is not a failure.
            assert child.returncode == 0 and "DONE" in out

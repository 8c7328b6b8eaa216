"""The disabled-path contract: a falsy recorder costs literally nothing.

Every instrumentation site is guarded by ``if recorder:`` and
:class:`NullRecorder` is falsy, so a run with ``recorder=NullRecorder()``
must make *zero* recorder method calls — asserted deterministically with a
call-counting spy, which is the robust form of "no measurable slowdown"
(perfbench's ``trace.overhead_frac`` is the wall-clock form).
"""

import numpy as np

from repro.bench.suite import build_compiled_benchmark
from repro.circuits.layers import layerize
from repro.core.executor import run_baseline, run_optimized
from repro.noise.devices import ibm_yorktown
from repro.noise.sampling import sample_trials
from repro.obs import InMemoryRecorder, NullRecorder
from repro.sim.compiled import CompiledStatevectorBackend


class SpyRecorder(NullRecorder):
    """Falsy like NullRecorder, but counts any method call that slips through."""

    calls = 0

    def begin(self, name, cat="exec", **args):
        SpyRecorder.calls += 1

    def end(self, name, cat="exec", **args):
        SpyRecorder.calls += 1

    def instant(self, name, cat="exec", **args):
        SpyRecorder.calls += 1

    def counter(self, name, value=1, cat="counter", **args):
        SpyRecorder.calls += 1

    def gauge(self, name, value, cat="gauge", **args):
        SpyRecorder.calls += 1


def _setup(name="bv4", num_trials=128, seed=3):
    layered = layerize(build_compiled_benchmark(name))
    trials = sample_trials(
        layered, ibm_yorktown(), num_trials, np.random.default_rng(seed)
    )
    return layered, trials


class TestDisabledPathIsFree:
    def test_optimized_run_makes_zero_recorder_calls(self):
        layered, trials = _setup()
        SpyRecorder.calls = 0
        run_optimized(
            layered,
            trials,
            CompiledStatevectorBackend(layered),
            recorder=SpyRecorder(),
        )
        assert SpyRecorder.calls == 0

    def test_baseline_run_makes_zero_recorder_calls(self):
        layered, trials = _setup(num_trials=32)
        SpyRecorder.calls = 0
        run_baseline(
            layered,
            trials,
            CompiledStatevectorBackend(layered),
            recorder=SpyRecorder(),
        )
        assert SpyRecorder.calls == 0

    def test_null_recorder_equivalent_to_none(self):
        layered, trials = _setup()
        none_outcome = run_optimized(
            layered, trials, CompiledStatevectorBackend(layered), recorder=None
        )
        null_outcome = run_optimized(
            layered,
            trials,
            CompiledStatevectorBackend(layered),
            recorder=NullRecorder(),
        )
        assert none_outcome.ops_applied == null_outcome.ops_applied
        assert none_outcome.peak_msv == null_outcome.peak_msv
        assert none_outcome.finish_calls == null_outcome.finish_calls

    def test_recording_run_is_call_bounded_not_per_gate(self):
        """Enabled recording stays coarse: no per-gate events.

        The event count must scale with plan instructions and cache
        traffic, not with ops_applied — otherwise tracing a big run would
        perturb the very timings it reports.
        """
        layered, trials = _setup(num_trials=256)
        recorder = InMemoryRecorder()
        outcome = run_optimized(
            layered,
            trials,
            CompiledStatevectorBackend(layered),
            recorder=recorder,
        )
        assert outcome.ops_applied > 0
        # every op applied must NOT have its own event; segment-level only
        per_op_events = [
            e for e in recorder.events if e.name.startswith("gate")
        ]
        assert per_op_events == []
        assert len(recorder.events) < 20 * outcome.ops_applied


class TestDisabledPathThroughSimulator:
    """The zero-call contract holds through the public NoisySimulator API,
    including the run.host wiring."""

    def _simulator(self, name="bv4", seed=3):
        from repro.bench.suite import resolve_benchmark
        from repro.core.runner import NoisySimulator

        circuit, model = resolve_benchmark(name)
        return NoisySimulator(circuit, model, seed=seed)

    def test_serial_run_makes_zero_recorder_calls(self):
        simulator = self._simulator()
        SpyRecorder.calls = 0
        simulator.run(
            num_trials=64,
            mode="optimized",
            backend="statevector",
            recorder=SpyRecorder(),
        )
        assert SpyRecorder.calls == 0

    def test_enabled_run_emits_host_facts(self):
        simulator = self._simulator()
        recorder = InMemoryRecorder()
        simulator.run(
            num_trials=32,
            mode="optimized",
            backend="statevector",
            recorder=recorder,
        )
        host = recorder.first_instant_args("run.host")
        assert host is not None
        assert host["cpu_count"] == __import__("os").cpu_count()
        # POSIX CI: peak RSS must be a positive KB figure
        assert host["peak_rss_self_kb"] is None or host["peak_rss_self_kb"] > 0

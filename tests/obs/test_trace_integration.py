"""End-to-end acceptance: a recorded run's trace replays its own metrics.

This is the PR's headline guarantee — ``repro trace grover`` writes a
Chrome trace whose replayed counters (ops applied, peak MSV, cache hits)
exactly equal the executor's live ``RunMetrics`` / ``ExecutionOutcome``
for the same seed — asserted here without going through the CLI, plus the
CLI round trip itself.
"""

import json

import numpy as np
import pytest

from repro.bench.suite import build_compiled_benchmark
from repro.circuits.layers import layerize
from repro.core.executor import ExecutionOutcome, run_optimized
from repro.core.metrics import RunMetrics
from repro.core.runner import NoisySimulator
from repro.core.schedule import build_plan
from repro.lint import lint_trace
from repro.noise.devices import ibm_yorktown
from repro.noise.sampling import sample_trials
from repro.obs import (
    InMemoryRecorder,
    metrics_from_trace,
    outcome_from_trace,
    summarize,
    validate_chrome_trace,
    verify_trace,
    write_chrome_trace,
)
from repro.sim.compiled import CompiledStatevectorBackend


@pytest.fixture(scope="module")
def grover_recorded(tmp_path_factory):
    """One seeded grover run, recorded, exported, and its live outcome."""
    layered = layerize(build_compiled_benchmark("grover"))
    model = ibm_yorktown()
    trials = sample_trials(layered, model, 256, np.random.default_rng(2020))
    plan = build_plan(layered, trials)
    recorder = InMemoryRecorder()
    outcome = run_optimized(
        layered,
        trials,
        CompiledStatevectorBackend(layered),
        plan=plan,
        recorder=recorder,
    )
    path = tmp_path_factory.mktemp("trace") / "grover.trace.json"
    write_chrome_trace(recorder, str(path), metadata={"benchmark": "grover"})
    return layered, trials, plan, recorder, outcome, path


class TestTraceReplaysOutcome:
    def test_outcome_equality(self, grover_recorded):
        _, _, _, recorder, outcome, _ = grover_recorded
        derived = outcome_from_trace(recorder)
        assert derived.ops_applied == outcome.ops_applied
        assert derived.num_trials == outcome.num_trials
        assert derived.finish_calls == outcome.finish_calls
        assert derived.peak_msv == outcome.peak_msv
        assert derived.peak_stored == outcome.peak_stored
        assert (
            derived.cache_stats.snapshots_taken
            == outcome.cache_stats.snapshots_taken
        )
        assert (
            derived.cache_stats.snapshots_released
            == outcome.cache_stats.snapshots_released
        )

    def test_verify_trace_clean(self, grover_recorded):
        _, _, _, recorder, outcome, _ = grover_recorded
        assert verify_trace(recorder, outcome=outcome) == []

    def test_from_trace_classmethod(self, grover_recorded):
        _, _, _, recorder, outcome, _ = grover_recorded
        derived = ExecutionOutcome.from_trace(recorder)
        assert derived.ops_applied == outcome.ops_applied
        assert derived.peak_msv == outcome.peak_msv

    def test_p017_clean_against_plan(self, grover_recorded):
        _, _, plan, recorder, _, _ = grover_recorded
        assert lint_trace(plan, recorder).ok

    def test_verify_detects_tampering(self, grover_recorded):
        _, _, _, recorder, outcome, _ = grover_recorded
        tampered = ExecutionOutcome(
            ops_applied=outcome.ops_applied + 1,
            num_trials=outcome.num_trials,
            cache_stats=outcome.cache_stats,
            finish_calls=outcome.finish_calls,
        )
        problems = verify_trace(recorder, outcome=tampered)
        assert problems and "ops_applied" in problems[0]


class TestWrittenTraceReplaysMetrics:
    """Replay the counters out of the *file on disk* — the acceptance bar."""

    def test_written_document_valid(self, grover_recorded):
        *_, path = grover_recorded
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []

    def test_file_counters_equal_live_outcome(self, grover_recorded):
        _, _, _, _, outcome, path = grover_recorded
        events = json.loads(path.read_text())["traceEvents"]
        ops = sum(
            e["args"]["delta"]
            for e in events
            if e["ph"] == "C" and e["name"] == "ops.applied"
        )
        peak_msv = max(
            e["args"]["value"]
            for e in events
            if e["ph"] == "C" and e["name"] == "msv.live"
        )
        cache_hits = sum(
            1 for e in events if e["ph"] == "i" and e["name"] == "cache.hit"
        )
        assert ops == outcome.ops_applied
        assert peak_msv == outcome.peak_msv
        assert cache_hits == outcome.cache_stats.snapshots_released


class TestSimulatorRunTrace:
    def test_metrics_replay_exactly(self):
        simulator = NoisySimulator(
            build_compiled_benchmark("grover"), ibm_yorktown(), seed=2020
        )
        recorder = InMemoryRecorder()
        result = simulator.run(num_trials=128, recorder=recorder)
        assert verify_trace(recorder, metrics=result.metrics) == []
        derived = metrics_from_trace(recorder)
        assert derived.as_dict() == result.metrics.as_dict()
        assert RunMetrics.from_trace(recorder).as_dict() == result.metrics.as_dict()

    def test_baseline_mode_replays_too(self):
        simulator = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        )
        recorder = InMemoryRecorder()
        result = simulator.run(num_trials=64, mode="baseline", recorder=recorder)
        assert verify_trace(recorder, metrics=result.metrics) == []
        summary = summarize(recorder)
        assert summary.mode == "baseline"
        # baseline emits one trial span per trial, no cache traffic
        assert summary.cache_stores == 0
        trial_spans = [
            e for e in recorder.events if e.ph == "B" and e.cat == "trial"
        ]
        assert len(trial_spans) == 64

    def test_recording_does_not_change_results(self):
        simulator = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=11
        )
        trials = simulator.sample(96)
        plain = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=11
        ).run(trials=trials)
        recorded = simulator.run(trials=trials, recorder=InMemoryRecorder())
        assert plain.metrics.as_dict() == recorded.metrics.as_dict()


class TestCliTrace:
    def test_trace_command_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "grover.trace.json"
        assert (
            main(
                [
                    "trace",
                    "grover",
                    "--trials",
                    "128",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "trace cross-check : ok" in text
        assert "hottest segments" in text
        assert "MSV high-water" in text
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["benchmark"] == "grover"

"""Tests for P020, P021 and P023: certificates checked against real
execution traces.

Faithful runs — serial, and spilling under a cache budget — must pass
every rule; tampered certificates and mismatched runtime counters must
fire the matching diagnostic.
"""

import json

import numpy as np
import pytest

from repro.bench.suite import resolve_benchmark
from repro.circuits.layers import layerize
from repro.core.cache import CacheBudget
from repro.core.executor import run_optimized
from repro.core.schedule import build_plan
from repro.lint import build_certificate
from repro.lint.schedule_rules import (
    lint_budget_prediction,
    lint_certificate_trace,
    lint_memory_timeline,
)
from repro.noise.sampling import sample_trials
from repro.obs import InMemoryRecorder
from repro.sim.compiled import CompiledCircuit, CompiledStatevectorBackend
from repro.sim.counting import CountingBackend
from tests.core.test_cache_budget import budgeted_run


@pytest.fixture(scope="module")
def setup():
    circuit, model = resolve_benchmark("bv5")
    layered = layerize(circuit)
    trials = sample_trials(layered, model, 96, np.random.default_rng(7))
    compiled = CompiledCircuit(layered)
    certificate = build_certificate(
        layered, trials, benchmark="bv5", seed=7, compiled=compiled
    )
    return layered, trials, compiled, certificate


def _tampered(certificate, mutate):
    clone = json.loads(json.dumps(certificate))
    mutate(clone)
    return clone


class TestP020TraceConsistency:
    def test_serial_trace_passes(self, setup):
        layered, trials, compiled, certificate = setup
        recorder = InMemoryRecorder()
        run_optimized(
            layered,
            trials,
            CompiledStatevectorBackend(layered, compiled=compiled),
            recorder=recorder,
        )
        result = lint_certificate_trace(certificate, recorder)
        assert result.ok, result.summary()

    def test_tampered_ops_fires_p020(self, setup):
        layered, trials, compiled, certificate = setup
        recorder = InMemoryRecorder()
        run_optimized(
            layered, trials, CountingBackend(layered), recorder=recorder
        )

        def bump_ops(cert):
            cert["plan"]["ops"] += 1

        result = lint_certificate_trace(
            _tampered(certificate, bump_ops), recorder
        )
        assert not result.ok
        assert any(d.code == "P020" for d in result.errors)


class TestP021MemoryTimeline:
    @pytest.fixture(scope="class")
    def recorder(self, setup):
        layered, trials, compiled, _ = setup
        recorder = InMemoryRecorder()
        run_optimized(
            layered,
            trials,
            CompiledStatevectorBackend(layered, compiled=compiled),
            recorder=recorder,
        )
        return recorder

    def test_exact_serial_timeline_passes(self, setup, recorder):
        _, _, _, certificate = setup
        result = lint_memory_timeline(certificate, recorder, exact=True)
        assert result.ok, result.summary()

    def test_understated_peak_fires_p021(self, setup, recorder):
        _, _, _, certificate = setup

        def understate(cert):
            cert["plan"]["memory"]["peak_msv"] = 1

        result = lint_memory_timeline(
            _tampered(certificate, understate), recorder
        )
        assert not result.ok
        assert any(d.code == "P021" for d in result.errors)


class TestP023BudgetPrediction:
    def test_degradation_predicted_exactly(self, setup, tmp_path):
        layered, trials, compiled, _ = setup
        state_bytes = 16 * (1 << layered.num_qubits)
        budget = CacheBudget(max_bytes=2 * state_bytes, spill_dir=str(tmp_path))
        certificate = build_certificate(
            layered, trials, benchmark="bv5", seed=7,
            budget=budget, compiled=compiled,
        )
        outcome = budgeted_run(
            layered, trials, budget,
            make_backend=lambda: CompiledStatevectorBackend(
                layered, compiled=compiled
            ),
        )
        stats = outcome.cache_stats
        assert stats.spills > 0
        result = lint_budget_prediction(certificate, stats)
        assert result.ok, result.summary()

    def test_counter_mismatch_fires_p023(self, setup):
        layered, trials, compiled, _ = setup
        state_bytes = 16 * (1 << layered.num_qubits)
        budget = CacheBudget(max_bytes=2 * state_bytes)
        certificate = build_certificate(
            layered, trials, benchmark="bv5", seed=7,
            budget=budget, compiled=compiled,
        )
        outcome = run_optimized(
            layered, trials,
            CompiledStatevectorBackend(layered, compiled=compiled),
        )  # no budget at runtime: zero degradations, certificate predicts >0
        result = lint_budget_prediction(certificate, outcome.cache_stats)
        assert not result.ok
        assert any(d.code == "P023" for d in result.errors)

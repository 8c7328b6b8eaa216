"""Tests for the packed large-scale analysis path.

The load-bearing property: for arbitrary trial sets, the streaming packed
analysis reports the *identical* operation count and peak MSV as the real
plan executor on the counting backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuits import QuantumCircuit, layerize
from repro.core import run_optimized
from repro.core.events import ErrorEvent, make_trial
from repro.core.executor import baseline_operation_count
from repro.core.packed import (
    EVENT_BYTES,
    analyze_packed_trials,
    pack_trial,
    pack_trials,
    sample_packed_trials,
    unpack_trial_events,
)
from repro.noise import NoiseModel, sample_trials
from repro.sim import CountingBackend
from tests.core.test_reorder import trials_strategy


@pytest.fixture
def five_layer():
    circ = QuantumCircuit(5)
    for _ in range(5):
        for q in range(5):
            circ.h(q)
    return layerize(circ)


class TestPacking:
    def test_roundtrip(self):
        trial = make_trial(
            [ErrorEvent(3, 1, "y"), ErrorEvent(0, 4, "x"), ErrorEvent(3, 2, "z")]
        )
        packed = pack_trial(trial)
        assert len(packed) == 3 * EVENT_BYTES
        assert unpack_trial_events(packed) == [
            (0, 4, "x"),
            (3, 1, "y"),
            (3, 2, "z"),
        ]

    def test_empty_trial(self):
        assert pack_trial(make_trial([])) == b""
        assert unpack_trial_events(b"") == []

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            unpack_trial_events(b"abc")

    def test_large_coordinates(self):
        trial = make_trial([ErrorEvent(40_000, 50_000, "z")])
        assert unpack_trial_events(pack_trial(trial)) == [(40_000, 50_000, "z")]

    def test_overflow_rejected(self):
        trial = make_trial([ErrorEvent(70_000, 0, "x")])
        with pytest.raises(ValueError):
            pack_trial(trial)

    @given(trials_strategy())
    @settings(max_examples=150, deadline=None)
    def test_bytes_order_is_lexicographic_trial_order(self, trials):
        from repro.core import reorder_trials

        packed = pack_trials(trials)
        by_bytes = [
            trial for _, trial in sorted(zip(packed, trials), key=lambda p: p[0])
        ]
        assert [t.events for t in by_bytes] == [
            t.events for t in reorder_trials(trials)
        ]


class TestAnalysisParity:
    def check_parity(self, layered, trials):
        reference = run_optimized(layered, trials, CountingBackend(layered))
        analysis = analyze_packed_trials(layered, pack_trials(trials))
        assert analysis.optimized_ops == reference.ops_applied
        assert analysis.peak_msv == reference.peak_msv
        assert analysis.baseline_ops == baseline_operation_count(layered, trials)
        assert analysis.num_trials == len(trials)

    def test_fig2_example(self, five_layer):
        trials = [
            make_trial([]),
            make_trial([ErrorEvent(2, 0, "x")]),
            make_trial([ErrorEvent(1, 0, "x")]),
            make_trial([ErrorEvent(0, 0, "x")]),
        ]
        self.check_parity(five_layer, trials)

    def test_duplicates(self, five_layer):
        trial = make_trial([ErrorEvent(1, 1, "z")])
        self.check_parity(five_layer, [trial] * 7 + [make_trial([])] * 3)

    def test_deep_shared_prefixes(self, five_layer):
        e0, e1, e2 = (
            ErrorEvent(0, 0, "x"),
            ErrorEvent(1, 1, "y"),
            ErrorEvent(2, 2, "z"),
        )
        trials = [
            make_trial([e0]),
            make_trial([e0, e1]),
            make_trial([e0, e1, e2]),
            make_trial([e0, e1, ErrorEvent(4, 0, "x")]),
            make_trial([e0, ErrorEvent(3, 3, "y")]),
            make_trial([]),
        ]
        self.check_parity(five_layer, trials)

    @given(trials_strategy(max_trials=30))
    @settings(max_examples=300, deadline=None)
    def test_parity_property(self, trials):
        if not trials:
            return
        circ = QuantumCircuit(5)
        for _ in range(7):
            for q in range(5):
                circ.h(q)
        self.check_parity(layerize(circ), trials)

    def test_parity_on_sampled_workload(self, rng):
        from repro.bench import build_compiled_benchmark
        from repro.noise import ibm_yorktown

        layered = layerize(build_compiled_benchmark("qft4"))
        trials = sample_trials(layered, ibm_yorktown(), 3000, rng)
        self.check_parity(layered, trials)

    def test_empty_set_rejected(self, five_layer):
        with pytest.raises(ValueError):
            analyze_packed_trials(five_layer, [])

    def test_repr(self, five_layer):
        analysis = analyze_packed_trials(five_layer, [b""])
        assert "PackedAnalysis" in repr(analysis)


class TestPackedSampler:
    def test_deterministic(self, five_layer):
        model = NoiseModel.uniform(0.05)
        a = sample_packed_trials(five_layer, model, 100, np.random.default_rng(3))
        b = sample_packed_trials(five_layer, model, 100, np.random.default_rng(3))
        assert a == b

    def test_zero_trials_rejected(self, five_layer):
        with pytest.raises(ValueError):
            sample_packed_trials(
                five_layer, NoiseModel.uniform(0.1), 0, np.random.default_rng(0)
            )

    def test_events_sorted_within_trial(self, five_layer, rng):
        model = NoiseModel.uniform(0.2, two=0.8, measurement=0.2)
        for packed in sample_packed_trials(five_layer, model, 200, rng):
            events = unpack_trial_events(packed)
            assert events == sorted(events)

    @pytest.mark.parametrize("name", ["qft5", "grover", "bv14", "qv_n5d4"])
    def test_equals_object_sampler_event_for_event(self, name):
        """Same seed, same trials: the packed path draws what the executed
        path draws (flips come last, so the events never shift)."""
        from repro.bench.suite import resolve_benchmark

        circuit, model = resolve_benchmark(name)
        layered = layerize(circuit)
        for seed in (1, 7, 11):
            packed = sample_packed_trials(
                layered, model, 1024, np.random.default_rng(seed)
            )
            objects = sample_trials(
                layered, model, 1024, np.random.default_rng(seed)
            )
            assert packed == [pack_trial(trial) for trial in objects]

    def test_statistics_match_object_sampler(self, five_layer):
        """Same error-count distribution as the Trial-object sampler."""
        model = NoiseModel.uniform(0.08)
        num = 4000
        packed = sample_packed_trials(
            five_layer, model, num, np.random.default_rng(1)
        )
        objects = sample_trials(five_layer, model, num, np.random.default_rng(2))
        packed_mean = sum(len(p) // EVENT_BYTES for p in packed) / num
        object_mean = sum(t.num_errors for t in objects) / num
        assert packed_mean == pytest.approx(object_mean, rel=0.12)

    def test_analysis_agrees_with_object_path_statistically(self, five_layer):
        """Metrics from both samplers agree on large sets (same model)."""
        model = NoiseModel.uniform(0.05)
        num = 3000
        packed = sample_packed_trials(
            five_layer, model, num, np.random.default_rng(5)
        )
        objects = sample_trials(five_layer, model, num, np.random.default_rng(6))
        from_packed = analyze_packed_trials(five_layer, packed)
        reference = run_optimized(
            five_layer, objects, CountingBackend(five_layer)
        )
        assert from_packed.optimized_ops == pytest.approx(
            reference.ops_applied, rel=0.1
        )
        assert abs(from_packed.peak_msv - reference.peak_msv) <= 2

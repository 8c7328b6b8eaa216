"""Tests for the CHP stabilizer simulator and backend."""

import numpy as np
import pytest

from repro.analysis import total_variation_distance
from repro.circuits import QuantumCircuit, layerize, standard_gate
from repro.core import NoisySimulator, run_baseline, run_optimized
from repro.noise import NoiseModel
from repro.sim import (
    CLIFFORD_GATES,
    StabilizerBackend,
    StabilizerError,
    StabilizerState,
    Statevector,
    StatevectorBackend,
    is_clifford_circuit,
)
from repro.testing import random_trials

CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z", "sx", "id"]
CLIFFORD_2Q = ["cx", "cz", "cy", "swap"]


def random_clifford_circuit(num_qubits, num_gates, rng, measured=True):
    circ = QuantumCircuit(num_qubits, name="clifford")
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.4:
            name = CLIFFORD_2Q[int(rng.integers(len(CLIFFORD_2Q)))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circ.gate(name, int(a), int(b))
        else:
            name = CLIFFORD_1Q[int(rng.integers(len(CLIFFORD_1Q)))]
            circ.gate(name, int(rng.integers(num_qubits)))
    if measured:
        circ.measure_all()
    return circ


class TestTableauBasics:
    def test_initial_stabilizers(self):
        state = StabilizerState(2)
        assert state.stabilizer_strings() == ["+ZI", "+IZ"]

    def test_x_flips_measurement(self, rng):
        state = StabilizerState(1)
        state.x_gate(0)
        assert state.measure(0, rng) == 1

    def test_h_gives_plus_state(self):
        state = StabilizerState(1)
        state.h(0)
        assert state.stabilizer_strings() == ["+X"]

    def test_s_on_plus_gives_y(self):
        state = StabilizerState(1)
        state.h(0)
        state.s(0)
        assert state.stabilizer_strings() == ["+Y"]

    def test_sdg_inverts_s(self, rng):
        state = StabilizerState(1)
        state.h(0)
        state.s(0)
        state.sdg(0)
        assert state.stabilizer_strings() == ["+X"]

    def test_bell_stabilizers(self):
        state = StabilizerState(2)
        state.h(0)
        state.cx(0, 1)
        assert set(state.stabilizer_strings()) == {"+XX", "+ZZ"}

    def test_ghz_measurement_correlated(self, rng):
        for _ in range(20):
            state = StabilizerState(3)
            state.h(0)
            state.cx(0, 1)
            state.cx(1, 2)
            bits = state.measure_all(rng)
            assert bits in ("000", "111")

    def test_deterministic_measurement(self, rng):
        state = StabilizerState(2)
        state.x_gate(1)
        assert state.measure(0, rng) == 0
        assert state.measure(1, rng) == 1

    def test_measurement_collapse_is_consistent(self, rng):
        # Measuring |+> twice gives the same answer.
        for _ in range(10):
            state = StabilizerState(1)
            state.h(0)
            first = state.measure(0, rng)
            second = state.measure(0, rng)
            assert first == second

    def test_forced_outcome(self, rng):
        state = StabilizerState(1)
        state.h(0)
        assert state.measure(0, rng, forced_outcome=1) == 1
        assert state.measure(0, rng) == 1

    def test_non_clifford_rejected(self):
        state = StabilizerState(1)
        with pytest.raises(StabilizerError):
            state.apply_gate(standard_gate("t"), (0,))

    def test_bad_qubit_rejected(self, rng):
        state = StabilizerState(1)
        with pytest.raises(ValueError):
            state.h(3)
        with pytest.raises(ValueError):
            state.cx(0, 0)

    def test_copy_independent(self, rng):
        state = StabilizerState(1)
        dup = state.copy()
        dup.x_gate(0)
        assert state.measure(0, rng) == 0
        assert dup.measure(0, rng) == 1

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            StabilizerState(0)


class TestAgainstStatevector:
    @pytest.mark.parametrize("seed", range(8))
    def test_distribution_matches_statevector(self, seed):
        """Random Clifford circuits: same outcome distribution."""
        rng = np.random.default_rng(seed)
        circ = random_clifford_circuit(3, 20, rng, measured=False)
        # Statevector distribution (exact).
        state = Statevector(3)
        for op in circ.gate_ops():
            state.apply_op(op)
        exact = {
            format(i, "03b"): p
            for i, p in enumerate(state.probabilities())
            if p > 1e-12
        }
        # Stabilizer sampling.
        tableau = StabilizerState(3)
        for op in circ.gate_ops():
            tableau.apply_op(op)
        sampled = tableau.sample_counts(2000, np.random.default_rng(seed + 100))
        tv = total_variation_distance(
            {k: int(v * 2000) for k, v in exact.items()}, sampled
        )
        assert tv < 0.08

    @pytest.mark.parametrize("seed", range(4))
    def test_deterministic_outcomes_match(self, seed):
        """Basis-state outputs (permutation circuits) match exactly."""
        rng = np.random.default_rng(seed)
        circ = QuantumCircuit(3)
        for _ in range(10):
            kind = rng.integers(3)
            if kind == 0:
                circ.x(int(rng.integers(3)))
            elif kind == 1:
                a, b = rng.choice(3, size=2, replace=False)
                circ.cx(int(a), int(b))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                circ.swap(int(a), int(b))
        state = Statevector(3)
        for op in circ.gate_ops():
            state.apply_op(op)
        expected = format(int(np.argmax(state.probabilities())), "03b")
        tableau = StabilizerState(3)
        for op in circ.gate_ops():
            tableau.apply_op(op)
        assert tableau.measure_all(np.random.default_rng(0)) == expected


class TestStabilizerBackend:
    def test_rejects_non_clifford_circuit(self):
        circ = QuantumCircuit(1)
        circ.t(0)
        circ.measure_all()
        with pytest.raises(StabilizerError):
            StabilizerBackend(layerize(circ))

    def test_is_clifford_circuit(self):
        good = QuantumCircuit(2).h(0).cx(0, 1)
        bad = QuantumCircuit(1).t(0)
        assert is_clifford_circuit(good)
        assert not is_clifford_circuit(bad)

    def test_finish_lends_the_state(self, ghz3_circuit):
        backend = StabilizerBackend(layerize(ghz3_circuit))
        state = backend.make_initial()
        assert backend.finish(state) is state
        assert backend.live_states == backend.peak_live_states == 1

    def test_ops_counting_matches_statevector(self, ghz3_circuit, rng):
        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 40, rng)
        stab = StabilizerBackend(layered)
        real = StatevectorBackend(layered)
        outcome_stab = run_optimized(layered, trials, stab)
        outcome_real = run_optimized(layered, trials, real)
        assert outcome_stab.ops_applied == outcome_real.ops_applied
        assert outcome_stab.peak_msv == outcome_real.peak_msv

    def test_runner_integration(self, ghz3_circuit):
        sim = NoisySimulator(ghz3_circuit, NoiseModel.uniform(1e-3), seed=2)
        result = sim.run(num_trials=300, backend="stabilizer")
        assert sum(result.counts.values()) == 300
        top_two = sorted(result.counts, key=result.counts.get)[-2:]
        assert set(top_two) == {"000", "111"}

    def test_matches_statevector_distribution_under_noise(self, ghz3_circuit):
        model = NoiseModel.uniform(5e-3)
        stab = NoisySimulator(ghz3_circuit, model, seed=4).run(
            2000, backend="stabilizer"
        )
        vec = NoisySimulator(ghz3_circuit, model, seed=5).run(
            2000, backend="statevector"
        )
        assert total_variation_distance(stab.counts, vec.counts) < 0.06

    def test_large_ghz_with_noise(self):
        num_qubits = 40
        circ = QuantumCircuit(num_qubits)
        circ.h(0)
        for qubit in range(num_qubits - 1):
            circ.cx(qubit, qubit + 1)
        circ.measure_all()
        sim = NoisySimulator(circ, NoiseModel.uniform(1e-4), seed=6)
        result = sim.run(num_trials=100, backend="stabilizer")
        assert sum(result.counts.values()) == 100
        assert result.metrics.computation_saving > 0.8
        # The two GHZ branches dominate.
        ghz_weight = result.counts.get("0" * num_qubits, 0) + result.counts.get(
            "1" * num_qubits, 0
        )
        assert ghz_weight > 80

    def test_baseline_mode_works(self, ghz3_circuit):
        sim = NoisySimulator(ghz3_circuit, NoiseModel.uniform(1e-3), seed=2)
        result = sim.run(num_trials=50, backend="stabilizer", mode="baseline")
        assert sum(result.counts.values()) == 50


class TestFrameVerdictCaches:
    def test_layer_unitaries_leave_no_cache_keys(self, monkeypatch):
        """Below seven qubits a certificate prices frames over whole-layer
        unitaries (16 KB each at five qubits); only verdicts on at most
        two qubits are cached, so a daemon's caches stay bounded."""
        from repro.bench import build_compiled_benchmark
        from repro.lint.costmodel import build_certificate
        from repro.noise import ibm_yorktown, sample_trials
        from repro.sim import stabilizer

        monkeypatch.setattr(stabilizer, "_MATRIX_SAFETY_CACHE", {})
        monkeypatch.setattr(stabilizer, "_PHASE_TRANSPARENT_CACHE", {})
        for name in ("qft5", "grover", "qv_n5d5", "bv5"):
            layered = layerize(build_compiled_benchmark(name))
            trials = sample_trials(
                layered, ibm_yorktown(), 128, np.random.default_rng(7)
            )
            build_certificate(layered, trials, benchmark=name)
        keys = list(stabilizer._MATRIX_SAFETY_CACHE) + list(
            stabilizer._PHASE_TRANSPARENT_CACHE
        )
        assert all(len(key) <= 256 for key in keys)
        # A two-qubit verdict (a 256-byte key) is still cached.
        cx = np.asarray(standard_gate("cx").matrix, dtype=np.complex128)
        assert stabilizer.frame_safe_matrix(cx)
        assert cx.tobytes() in stabilizer._MATRIX_SAFETY_CACHE

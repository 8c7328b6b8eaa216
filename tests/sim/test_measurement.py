"""Tests for measurement sampling and readout flips."""

import numpy as np
import pytest

from repro import NoisySimulator
from repro.circuits import Measurement, QuantumCircuit, layerize, standard_gate
from repro.circuits.gates import Gate
from repro.noise import NoiseModel, sample_trials
from repro.sim import (
    Statevector,
    apply_readout_flips,
    counts_from_samples,
    merge_counts,
    sample_measurements,
)
from repro.sim.measurement import sample_outcomes


def _choice_outcome(state, rng):
    """One readout draw as ``rng.choice`` makes it (the pinned stream)."""
    probs = np.clip(np.abs(state.vector) ** 2, 0.0, None)
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def _random_state(num_qubits, rng, zero_runs=False, last_heavy=False):
    size = 2**num_qubits
    vector = rng.normal(size=size) + 1j * rng.normal(size=size)
    if zero_runs:
        # Zero-probability stretches, including a leading and a trailing
        # one, so CDF plateaus sit where uniforms land.
        for start in rng.integers(0, size, size=max(1, size // 8)):
            vector[start : start + int(rng.integers(1, 6))] = 0.0
        vector[: max(1, size // 4)] = 0.0
        vector[-max(1, size // 4) :] = 0.0
    if last_heavy:
        vector[-1] = 4.0 * np.sqrt(size)
    if not vector.any():
        vector[-1] = 1.0
    vector /= np.linalg.norm(vector)
    return Statevector(num_qubits, vector.reshape((2,) * num_qubits))


class TestSampleMeasurements:
    def test_deterministic_state(self):
        state = Statevector.from_label("10")
        clbits = sample_measurements(
            state,
            [Measurement(0, 0), Measurement(1, 1)],
            np.random.default_rng(0),
        )
        assert clbits == {0: 1, 1: 0}

    def test_clbit_remapping(self):
        state = Statevector.from_label("10")
        clbits = sample_measurements(
            state, [Measurement(0, 5)], np.random.default_rng(0)
        )
        assert clbits == {5: 1}

    def test_joint_outcome_consistency(self):
        # On a Bell state both bits must agree in every sample.
        state = Statevector(2)
        state.apply_gate(standard_gate("h"), (0,))
        state.apply_gate(standard_gate("cx"), (0, 1))
        rng = np.random.default_rng(42)
        for _ in range(50):
            clbits = sample_measurements(
                state, [Measurement(0, 0), Measurement(1, 1)], rng
            )
            assert clbits[0] == clbits[1]

    def test_statistics(self):
        state = Statevector(1).apply_gate(standard_gate("h"), (0,))
        rng = np.random.default_rng(3)
        ones = sum(
            sample_measurements(state, [Measurement(0, 0)], rng)[0]
            for _ in range(2000)
        )
        assert ones == pytest.approx(1000, abs=120)


class TestOutcomeStreamPin:
    """Readout draws equal ``rng.choice``'s, uniform for uniform.

    A numpy release that changes ``Generator.choice`` fails here instead
    of silently changing every seed's counts.
    """

    @pytest.mark.parametrize(
        "shape",
        [{}, {"zero_runs": True}, {"last_heavy": True},
         {"zero_runs": True, "last_heavy": True}],
        ids=["dense", "sparse", "last-heavy", "sparse-last-heavy"],
    )
    def test_batch_equals_per_trial_choice(self, shape):
        maker = np.random.default_rng(2024)
        for num_qubits in range(1, 15):
            state = _random_state(num_qubits, maker, **shape)
            for seed in (num_qubits, 100 + num_qubits):
                ours = np.random.default_rng(seed)
                theirs = np.random.default_rng(seed)
                count = int(maker.integers(1, 40))
                got = sample_outcomes(state, count, ours).tolist()
                want = [_choice_outcome(state, theirs) for _ in range(count)]
                assert got == want
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_basis_state_on_last_index(self):
        state = Statevector.from_label("111")
        outcomes = sample_outcomes(state, 50, np.random.default_rng(0))
        assert set(outcomes.tolist()) == {7}

    def test_drifted_norm_is_renormalised(self):
        maker = np.random.default_rng(3)
        state = _random_state(6, maker)
        state.vector[:] *= 1.0 + 1e-7
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        got = sample_outcomes(state, 30, ours).tolist()
        assert got == [_choice_outcome(state, theirs) for _ in range(30)]

    def test_sample_measurements_is_one_choice(self):
        state = _random_state(4, np.random.default_rng(1))
        measurements = [Measurement(q, 3 - q) for q in range(4)]
        ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(100):
            outcome = _choice_outcome(state, theirs)
            want = {3 - q: (outcome >> (3 - q)) & 1 for q in range(4)}
            assert sample_measurements(state, measurements, ours) == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("qubits", [None, (2, 0)])
    def test_sample_counts_equals_choice(self, qubits):
        state = _random_state(3, np.random.default_rng(4), zero_runs=True)
        ours, theirs = np.random.default_rng(12), np.random.default_rng(12)
        got = state.sample_counts(5000, ours, qubits=qubits)
        probs = np.clip(np.abs(state.vector) ** 2, 0.0, None)
        probs /= probs.sum()
        measured = (0, 1, 2) if qubits is None else qubits
        want = {}
        for outcome in theirs.choice(probs.size, size=5000, p=probs):
            bits = "".join(str((int(outcome) >> (2 - q)) & 1) for q in measured)
            want[bits] = want.get(bits, 0) + 1
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_sample_counts_zero_shots(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert Statevector(2).sample_counts(0, rng) == {}
        assert rng.bit_generator.state == before


class TestChoiceChecksKept:
    def _nan_state(self):
        state = Statevector(2)
        state.vector[1] = np.nan
        return state

    def test_nan_payload_raises(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="NaN"):
            sample_measurements(self._nan_state(), [Measurement(0, 0)], rng)
        with pytest.raises(ValueError, match="NaN"):
            self._nan_state().sample_counts(10, rng)
        # Like choice, the check runs before any uniform is drawn.
        assert rng.bit_generator.state == before

    def test_zero_norm_payload_raises(self):
        state = Statevector(1)
        state.vector[:] = 0.0
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            sample_outcomes(state, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("backend", ["statevector", "statevector-interpreted"])
    def test_run_readout_rejects_nan_payload(self, backend):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        poison = Gate("nan", 1, np.full((2, 2), np.nan), check_unitary=False)
        circuit.apply(poison, 1)
        circuit.measure_all()
        sim = NoisySimulator(circuit, NoiseModel.uniform(0.01), seed=3)
        with pytest.raises(ValueError, match="NaN"):
            sim.run(num_trials=8, backend=backend)

    def test_unmeasured_circuit_still_draws_once_per_trial(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        model = NoiseModel.uniform(0.05)
        sim = NoisySimulator(circuit, model, seed=21)
        result = sim.run(num_trials=64)
        assert result.counts == {"00": 64}
        assert all(clbits == {} for clbits in result.trial_clbits)
        reference = np.random.default_rng(21)
        sample_trials(layerize(circuit), model, 64, reference)
        reference.random(64)
        assert sim._rng.bit_generator.state == reference.bit_generator.state


class TestReadoutFlips:
    def test_flip_applies(self):
        assert apply_readout_flips({0: 0, 1: 1}, (0,)) == {0: 1, 1: 1}

    def test_double_flip_cancels(self):
        original = {0: 1}
        flipped = apply_readout_flips(apply_readout_flips(original, (0,)), (0,))
        assert flipped == original

    def test_missing_clbit_ignored(self):
        assert apply_readout_flips({0: 0}, (7,)) == {0: 0}

    def test_input_not_mutated(self):
        original = {0: 0}
        apply_readout_flips(original, (0,))
        assert original == {0: 0}


class TestCountsAggregation:
    def test_counts_from_samples(self):
        samples = [{0: 1, 1: 0}, {0: 1, 1: 0}, {0: 0, 1: 1}]
        counts = counts_from_samples(samples, 2)
        assert counts == {"10": 2, "01": 1}

    def test_unmeasured_bits_default_zero(self):
        counts = counts_from_samples([{1: 1}], 3)
        assert counts == {"010": 1}

    def test_merge_counts(self):
        merged = merge_counts({"0": 2, "1": 1}, {"1": 3, "0": 0})
        assert merged == {"0": 2, "1": 4}

"""Unit tests for Pauli channels."""

import numpy as np
import pytest

from repro.noise import (
    PauliChannel,
    bit_flip,
    depolarizing,
    pauli_label_matrix,
    pauli_matrix,
    phase_flip,
    two_qubit_depolarizing,
    uniform_pauli_channel,
)


class TestPauliMatrices:
    def test_labels(self):
        assert np.allclose(pauli_matrix("i"), np.eye(2))
        assert np.allclose(pauli_matrix("X") @ pauli_matrix("X"), np.eye(2))

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            pauli_matrix("q")

    def test_label_matrix_kron(self):
        xy = pauli_label_matrix("xy")
        assert xy.shape == (4, 4)
        assert np.allclose(xy, np.kron(pauli_matrix("x"), pauli_matrix("y")))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            pauli_label_matrix("")


class TestChannelConstruction:
    def test_depolarizing_shares(self):
        channel = depolarizing(0.3)
        assert channel.width == 1
        assert channel.total_probability == pytest.approx(0.3)
        for label in ("x", "y", "z"):
            assert channel.probabilities[label] == pytest.approx(0.1)

    def test_two_qubit_depolarizing_has_15_labels(self):
        channel = two_qubit_depolarizing(0.15)
        assert channel.width == 2
        assert len(channel.labels()) == 15
        assert channel.total_probability == pytest.approx(0.15)
        assert "ii" not in channel.labels()

    def test_uniform_channel_width3(self):
        channel = uniform_pauli_channel(0.1, 3)
        assert len(channel.labels()) == 63

    def test_zero_probability_labels_dropped(self):
        channel = PauliChannel({"x": 0.1, "z": 0.0})
        assert channel.labels() == ("x",)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            PauliChannel({"x": -0.1})

    def test_total_above_one_rejected(self):
        with pytest.raises(ValueError):
            PauliChannel({"x": 0.6, "y": 0.6})

    def test_identity_label_rejected(self):
        with pytest.raises(ValueError):
            PauliChannel({"i": 0.1})
        with pytest.raises(ValueError):
            PauliChannel({"ii": 0.1})

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            PauliChannel({"x": 0.1, "xy": 0.1})

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            PauliChannel({"w": 0.1})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PauliChannel({})

    def test_named_constructors(self):
        assert bit_flip(0.2).labels() == ("x",)
        assert phase_flip(0.2).labels() == ("z",)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            uniform_pauli_channel(0.1, 0)


class TestChannelBehaviour:
    def test_conditional_probability(self):
        channel = PauliChannel({"x": 0.2, "z": 0.1})
        assert channel.conditional_probability("x") == pytest.approx(2 / 3)
        assert channel.conditional_probability("z") == pytest.approx(1 / 3)
        assert channel.conditional_probability("y") == 0.0

    def test_sample_label_distribution(self):
        channel = PauliChannel({"x": 0.3, "z": 0.1})
        rng = np.random.default_rng(11)
        labels = channel.sample_labels(4000, rng)
        x_fraction = float(np.mean(labels == "x"))
        assert x_fraction == pytest.approx(0.75, abs=0.03)

    def test_sample_single_label(self):
        channel = bit_flip(0.1)
        rng = np.random.default_rng(0)
        assert channel.sample_label(rng) == "x"

    def test_kraus_completeness(self):
        for channel in (
            depolarizing(0.25),
            two_qubit_depolarizing(0.1),
            PauliChannel({"x": 0.07, "y": 0.02}),
        ):
            total = sum(k.conj().T @ k for k in channel.kraus_operators())
            assert np.allclose(total, np.eye(total.shape[0]), atol=1e-12)

    def test_scaled(self):
        channel = depolarizing(0.3).scaled(0.5)
        assert channel.total_probability == pytest.approx(0.15)

    def test_equality_and_hash(self):
        assert depolarizing(0.3) == depolarizing(0.3)
        assert depolarizing(0.3) != depolarizing(0.2)
        assert hash(depolarizing(0.3)) == hash(depolarizing(0.3))

    def test_repr_compact_for_wide_channels(self):
        assert "labels=15" in repr(two_qubit_depolarizing(0.1))
        assert "x=" in repr(bit_flip(0.1))


def _choice_labels(channel, count, rng):
    """The label draw as ``rng.choice`` makes it (the pinned stream)."""
    labels = channel.labels()
    if len(labels) == 1:
        return np.full(count, labels[0])
    weights = np.array([channel.probabilities[label] for label in labels])
    return rng.choice(
        np.array(labels), size=count, p=weights / channel.total_probability
    )


_PINNED_CHANNELS = {
    "depolarizing": depolarizing(0.013),
    "two-qubit": two_qubit_depolarizing(0.041),
    "asymmetric": PauliChannel({"x": 0.01, "y": 0.0025, "z": 0.031}),
    "single-label": bit_flip(0.2),
    "scaled": two_qubit_depolarizing(0.02).scaled(1.7),
}


class TestLabelStreamPin:
    """Label draws equal ``rng.choice``'s, uniform for uniform.

    A numpy release that changes ``Generator.choice`` fails here instead
    of silently changing every seed's trials.
    """

    @pytest.mark.parametrize("name", sorted(_PINNED_CHANNELS))
    def test_sample_labels_equal_choice(self, name):
        channel = _PINNED_CHANNELS[name]
        for seed in range(40):
            for count in (1, 2, 3, 7, 64):
                ours = np.random.default_rng(seed)
                theirs = np.random.default_rng(seed)
                got = channel.sample_labels(count, ours)
                want = _choice_labels(channel, count, theirs)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
                assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("name", sorted(_PINNED_CHANNELS))
    def test_sample_label_equals_choice(self, name):
        channel = _PINNED_CHANNELS[name]
        ours = np.random.default_rng(5)
        theirs = np.random.default_rng(5)
        for _ in range(200):
            got = channel.sample_label(ours)
            assert isinstance(got, str)
            assert got == str(_choice_labels(channel, 1, theirs)[0])
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_interleaved_draws_keep_one_stream(self):
        a, b = depolarizing(0.03), two_qubit_depolarizing(0.05)
        ours = np.random.default_rng(9)
        theirs = np.random.default_rng(9)
        for count in (3, 1, 5, 2):
            for channel in (a, b):
                got = channel.sample_labels(count, ours)
                want = _choice_labels(channel, count, theirs)
                assert got.tolist() == want.tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestZeroProbabilityChannels:
    @pytest.mark.parametrize(
        "channel",
        [depolarizing(0.0), PauliChannel({"x": 0.0, "z": 0.0})],
        ids=["depolarizing", "explicit-zeros"],
    )
    def test_constructs_and_never_draws(self, channel):
        assert channel.total_probability == 0.0
        assert channel.labels() == ()
        assert channel.kraus_operators()[0].shape == (2, 2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            channel.sample_labels(1, rng)
        assert rng.bit_generator.state == state

    def test_zero_channel_positions_never_fire(self):
        # An idle channel with no weight still yields error positions; the
        # sampler draws their binomial counts but never a label.
        from repro.circuits import QuantumCircuit, layerize
        from repro.noise import NoiseModel, sample_trials

        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        model = NoiseModel(
            idle_error=0.5, idle_channel=PauliChannel({"x": 0.0, "z": 0.0})
        )
        layered = layerize(circuit)
        assert model.error_positions(layered)
        trials = sample_trials(layered, model, 32, np.random.default_rng(1))
        assert all(trial.is_error_free for trial in trials)

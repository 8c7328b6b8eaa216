"""The samplers' distribution, pinned at a stated significance.

A seeded stream is not a specification: the draw order of
:func:`repro.noise.sampling.sample_trials` may change.  These tests pin
what every version must draw instead:

* every error position fires independently with its channel's total
  probability, so a channel group's fire count is binomial and, given the
  count, the set of fired positions is uniform;
* a fired position's Pauli label is i.i.d. from the channel's conditional
  distribution;
* every measurement flips independently with its readout probability.

Each assertion is a Pearson chi-square or an exact binomial test that
fails only when its p-value falls below ``ALPHA``.  The seeds are fixed,
so every test is deterministic; ``ALPHA`` bounds how often a correct
sampler could fail one on a fresh seed.  The packed sampler
(:func:`repro.core.packed.sample_packed_trials`) draws no measurement
flips, and is held to the same event distribution through
:func:`repro.core.packed.unpack_trial_events`.  ``TestTrialGuarantees``
checks what :func:`repro.core.events.make_trial` guarantees of every
sampled trial.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from repro.circuits import QuantumCircuit, layerize
from repro.core.events import ErrorEvent, Trial
from repro.core.packed import pack_trial, sample_packed_trials, unpack_trial_events
from repro.noise import (
    ErrorPosition,
    NoiseModel,
    PauliChannel,
    bit_flip,
    enumerate_trials,
    phase_flip,
    sample_trials,
)
from repro.testing import random_circuit

#: Every statistical assertion below fails only at a p-value under this.
ALPHA = 1e-4


def _chisquare_pvalue(observed, expected, num):
    """Pearson's test of ``observed`` counts against probabilities ``expected``.

    Cells whose expected count is below 5 are pooled into one cell; a pool
    that stays under 5 is folded into the smallest other cell.  A sample
    outside ``expected``'s support fails outright.
    """
    assert set(observed) <= set(expected), set(observed) - set(expected)
    cells = [(num * p, observed.get(key, 0)) for key, p in expected.items()]
    kept = [cell for cell in cells if cell[0] >= 5]
    pool = [sum(cell[i] for cell in cells if cell[0] < 5) for i in (0, 1)]
    if pool[0] >= 5 or not kept:
        kept.append(tuple(pool))
    elif pool[1] or pool[0]:
        smallest = min(range(len(kept)), key=lambda i: kept[i][0])
        kept[smallest] = (kept[smallest][0] + pool[0], kept[smallest][1] + pool[1])
    if len(kept) < 2:
        return 1.0
    exp = np.array([cell[0] for cell in kept])
    obs = np.array([cell[1] for cell in kept])
    return stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


def _binomial_pvalue(successes, num, probability):
    return stats.binomtest(int(successes), int(num), probability).pvalue


def _event_maps(trials):
    """Each sampled trial's events as ``{(layer, qubit): pauli}``."""
    return [{(e.layer, e.qubit): e.pauli for e in trial.events} for trial in trials]


def _packed_maps(packed):
    return [
        {(layer, qubit): pauli for layer, qubit, pauli in unpack_trial_events(p)}
        for p in packed
    ]


def _sample_maps(path, layered, model, num, seed):
    rng = np.random.default_rng(seed)
    if path == "objects":
        return _event_maps(sample_trials(layered, model, num, rng))
    return _packed_maps(sample_packed_trials(layered, model, num, rng))


def _fired_labels(maps, positions):
    """Per position, the label it fired in each trial in which it fired.

    An event on a place that no position covers fails with ``KeyError``.
    """
    owner = {
        (position.layer, qubit): (index, slot)
        for index, position in enumerate(positions)
        for slot, qubit in enumerate(position.qubits)
    }
    fired = [[] for _ in positions]
    for events in maps:
        labels = {}
        for place, pauli in events.items():
            index, slot = owner[place]
            width = len(positions[index].qubits)
            labels.setdefault(index, ["i"] * width)[slot] = pauli
        for index, label in labels.items():
            fired[index].append("".join(label))
    return fired


def _two_qubit_circuit():
    circuit = QuantumCircuit(2)
    circuit.h(0).cx(0, 1).measure_all()
    return layerize(circuit), NoiseModel.uniform(0.1, two=0.3, measurement=0.2)


def _three_qubit_circuit():
    """Three equal positions in one group, a two-qubit gate and a
    non-uniform idle channel; two of the three qubits are measured."""
    circuit = QuantumCircuit(3)
    circuit.h(0).h(1).h(2).cx(0, 1).measure(0).measure(1)
    model = NoiseModel(
        default_single=0.2,
        default_two=0.25,
        default_measurement=0.15,
        idle_error=0.1,
        idle_channel=PauliChannel({"x": 0.06, "y": 0.01, "z": 0.03}),
    )
    return layerize(circuit), model


TINY = {"two-qubit": _two_qubit_circuit, "three-qubit": _three_qubit_circuit}


class TestWholeTrials:
    """(a) Whole trials of tiny circuits against ``enumerate_trials``."""

    @pytest.mark.parametrize("flips", [False, True])
    @pytest.mark.parametrize("name", sorted(TINY))
    def test_objects_match_enumeration(self, name, flips):
        layered, model = TINY[name]()
        exact = Counter()
        for trial, probability in enumerate_trials(
            layered, model, include_measurement_flips=flips
        ):
            exact[trial] += probability
        num = 20_000
        sampled = sample_trials(layered, model, num, np.random.default_rng(101))
        if not flips:
            sampled = [Trial(trial.events) for trial in sampled]
        pvalue = _chisquare_pvalue(Counter(sampled), exact, num)
        assert pvalue >= ALPHA, pvalue

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_packed_matches_enumeration(self, name):
        layered, model = TINY[name]()
        exact = Counter()
        for trial, probability in enumerate_trials(layered, model):
            exact[pack_trial(trial)] += probability
        num = 20_000
        sampled = sample_packed_trials(layered, model, num, np.random.default_rng(102))
        pvalue = _chisquare_pvalue(Counter(sampled), exact, num)
        assert pvalue >= ALPHA, pvalue


class TestMultiFireGroup:
    """(b) One group of six positions at p = 0.3: given how many fired,
    every subset of that size is equally likely."""

    @pytest.fixture(scope="class")
    def six(self):
        circuit = QuantumCircuit(6)
        for qubit in range(6):
            circuit.h(qubit)
        return layerize(circuit), NoiseModel(default_single=0.3)

    @pytest.mark.parametrize("path", ["objects", "packed"])
    def test_fired_subsets_uniform_given_count(self, six, path):
        layered, model = six
        num = 20_000
        maps = _sample_maps(path, layered, model, num, 203)
        by_size = Counter(len(events) for events in maps)
        pvalue = _chisquare_pvalue(
            by_size, {k: stats.binom.pmf(k, 6, 0.3) for k in range(7)}, num
        )
        assert pvalue >= ALPHA, ("fire count", pvalue)
        for size in (1, 2, 3):
            subsets = Counter(
                tuple(sorted(q for _, q in events)) for events in maps
                if len(events) == size
            )
            support = list(itertools.combinations(range(6), size))
            pvalue = _chisquare_pvalue(
                subsets, {s: 1 / len(support) for s in support}, by_size[size]
            )
            assert pvalue >= ALPHA, (size, pvalue)


def _generated_case(seed, idle_channel):
    """A random 4-qubit circuit under a random calibration: per-qubit and
    per-pair rates, readout flips and an idle channel."""
    rng = np.random.default_rng(seed)
    layered = layerize(random_circuit(4, 24, rng))
    pairs = [frozenset(p) for p in itertools.combinations(range(4), 2)]
    model = NoiseModel(
        single_qubit_error={q: float(rng.uniform(0.02, 0.15)) for q in range(4)},
        two_qubit_error={pair: float(rng.uniform(0.05, 0.3)) for pair in pairs},
        measurement_error={q: float(rng.uniform(0.02, 0.2)) for q in range(4)},
        idle_error=0.08,
        idle_channel=idle_channel,
    )
    return layered, model


GENERATED = {
    "pauli-idle": (3, PauliChannel({"x": 0.05, "y": 0.01, "z": 0.02})),
    "bit-flip-idle": (4, bit_flip(0.06)),
    "depolarizing-idle": (5, None),
}


class TestGeneratedModels:
    """(c) and (d): per-position firing rates, per-label conditional
    frequencies and per-measurement flip rates on random circuits and
    calibrations, on the object and the packed path."""

    @pytest.mark.parametrize("path", ["objects", "packed"])
    @pytest.mark.parametrize("case", sorted(GENERATED))
    def test_positions_and_labels(self, case, path):
        layered, model = _generated_case(*GENERATED[case])
        num = 8_000
        maps = _sample_maps(path, layered, model, num, 104)
        positions = model.error_positions(layered)
        labels_by_channel = {}
        for position, fired in zip(positions, _fired_labels(maps, positions)):
            pvalue = _binomial_pvalue(
                len(fired), num, position.channel.total_probability
            )
            assert pvalue >= ALPHA, (position.layer, position.qubits, pvalue)
            labels_by_channel.setdefault(position.channel, Counter()).update(fired)
        for channel, labels in labels_by_channel.items():
            expected = {
                label: channel.conditional_probability(label)
                for label in channel.labels()
            }
            pvalue = _chisquare_pvalue(labels, expected, sum(labels.values()))
            assert pvalue >= ALPHA, (channel, pvalue)

    @pytest.mark.parametrize("case", sorted(GENERATED))
    def test_measurement_flips(self, case):
        layered, model = _generated_case(*GENERATED[case])
        num = 8_000
        trials = sample_trials(layered, model, num, np.random.default_rng(105))
        flips = Counter(clbit for trial in trials for clbit in trial.meas_flips)
        for measurement, probability in model.measurement_positions(layered):
            pvalue = _binomial_pvalue(flips[measurement.clbit], num, probability)
            assert pvalue >= ALPHA, (measurement.clbit, pvalue)
        assert all(
            list(trial.meas_flips) == sorted(set(trial.meas_flips))
            for trial in trials
        )


class _FixedPositions(NoiseModel):
    """A model whose error positions are given outright."""

    def __init__(self, positions):
        super().__init__(name="fixed")
        self._positions = positions

    def error_positions(self, layered):
        return list(self._positions)


class TestTrialGuarantees:
    """What ``make_trial`` guarantees holds for every sampled trial."""

    def test_plain_python_values_and_shared_error_free(self):
        layered, model = _three_qubit_circuit()
        trials = sample_trials(layered, model, 2_000, np.random.default_rng(106))
        error_free = [trial for trial in trials if trial == Trial((), ())]
        assert error_free and all(t is error_free[0] for t in error_free)
        for trial in trials:
            assert list(trial.events) == sorted(trial.events)
            for event in trial.events:
                assert type(event) is ErrorEvent
                assert type(event.layer) is int and type(event.qubit) is int
                assert type(event.pauli) is str
            assert all(type(clbit) is int for clbit in trial.meas_flips)

    @pytest.mark.parametrize("sampler", [sample_trials, sample_packed_trials])
    @pytest.mark.parametrize(
        "positions",
        [
            [(0, (0,), bit_flip(1.0)), (0, (0,), phase_flip(1.0))],
            [(-1, (0,), bit_flip(1.0))],
            [(0, (-1,), bit_flip(1.0))],
        ],
        ids=["two-events-on-one-place", "negative-layer", "negative-qubit"],
    )
    def test_invalid_events_rejected(self, sampler, positions):
        layered, _ = _two_qubit_circuit()
        model = _FixedPositions([ErrorPosition(*p) for p in positions])
        with pytest.raises(ValueError):
            sampler(layered, model, 4, np.random.default_rng(0))

"""The default pick: run() chooses hybrid or serial DFS from the input.

A run whose options leave the executor open takes the hybrid fast path
when its circuit is wide, mostly frame-safe and lightly errored
(``repro.core.options.HYBRID_*``), and serial DFS otherwise.  Either way
the run must be indistinguishable from a forced-DFS run (``hybrid=False``)
in everything but time: counts, per-trial clbits, the ``on_trial``
stream, every ``RunMetrics`` field, ``array_equal`` final states and the
generator state after the run.  Each case also names the executor the
rule picks, so moving a cutoff shows up as a diff here.
"""

import numpy as np
import pytest

from repro import NoisySimulator
from repro.bench.suite import all_benchmark_names, resolve_benchmark
from repro.circuits import QuantumCircuit
from repro.core.options import (
    HYBRID_MAX_ERRORS_PER_TRIAL,
    HYBRID_MIN_FRAME_SAFE,
    HYBRID_MIN_QUBITS,
    frame_safe_share,
    pick,
    validate,
)
from repro.lint import check_recorded_run
from repro.noise import NoiseModel
from repro.obs import InMemoryRecorder
from tests.obs.test_overhead import SpyRecorder

SEEDS = (1, 7, 11)
#: The suite benchmarks the rule sends to hybrid; every other one runs DFS.
SUITE_HYBRID = {"bv14"}
ONE_QUBIT = ("h", "s", "sdg", "x", "y", "z")
TWO_QUBIT = ("cx", "cz", "swap")


def _trials(name):
    return 32 if name in ("qft12", "qft14") else 64


def _run(circuit, model, seed, num_trials, **options):
    sim = NoisySimulator(circuit, model, seed=seed)
    stream = []
    result = sim.run(
        num_trials=num_trials, collect_final_states=True,
        on_trial=lambda index, bits: stream.append((index, bits)), **options,
    )
    return result, stream, sim._rng.bit_generator.state


def assert_same_as_dfs(circuit, model, seed, num_trials):
    """Run with default options and with ``hybrid=False``; require equal
    results and return the executor the default run used."""
    got, got_stream, got_rng = _run(circuit, model, seed, num_trials)
    want, want_stream, want_rng = _run(circuit, model, seed, num_trials, hybrid=False)
    assert want.executor == "dfs"
    assert got.counts == want.counts
    assert got.trial_clbits == want.trial_clbits
    assert got_stream == want_stream
    assert got.metrics.as_dict() == want.metrics.as_dict()
    assert len(got.final_states) == len(want.final_states) == num_trials
    for a, b in zip(got.final_states, want.final_states):
        assert np.array_equal(a.vector, b.vector)
    assert got_rng == want_rng
    return got.executor


def generated(num_qubits, clifford_gates, t_gates=0, seed=0):
    """A random Clifford circuit over H/S/Sdg/X/Y/Z/CX/CZ/SWAP, with
    ``t_gates`` T gates (never frame-safe) spread through it."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name="generated")
    t_slots = set(rng.choice(clifford_gates + t_gates, size=t_gates, replace=False).tolist())
    for slot in range(clifford_gates + t_gates):
        if slot in t_slots:
            circuit.gate("t", int(rng.integers(num_qubits)))
        elif rng.random() < 0.3:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.gate(TWO_QUBIT[int(rng.integers(3))], int(a), int(b))
        else:
            circuit.gate(ONE_QUBIT[int(rng.integers(6))], int(rng.integers(num_qubits)))
    circuit.measure_all()
    return circuit


class TestSuite:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", all_benchmark_names())
    def test_default_equals_forced_dfs(self, name, seed):
        circuit, model = resolve_benchmark(name)
        executor = assert_same_as_dfs(circuit, model, seed, _trials(name))
        assert executor == ("hybrid" if name in SUITE_HYBRID else "dfs")


#: (label, qubits, Clifford gates, T gates, error rate, picked executor):
#: each cutoff from both sides.
GENERATED = [
    ("clifford-14", 14, 40, 0, 0.003, "hybrid"),
    ("clifford-13", 13, 40, 0, 0.003, "dfs"),
    ("share-at-cutoff", 14, 36, 4, 0.003, "hybrid"),
    ("share-below-cutoff", 14, 35, 5, 0.003, "dfs"),
    ("errors-above-cutoff", 14, 40, 0, 0.01, "dfs"),
    ("near-clifford-12", 12, 30, 3, 0.003, "dfs"),
]


class TestGenerated:
    @pytest.mark.parametrize(
        "label, num_qubits, clifford, t_gates, rate, expected",
        GENERATED, ids=[case[0] for case in GENERATED],
    )
    def test_default_equals_forced_dfs(self, label, num_qubits, clifford, t_gates, rate, expected):
        circuit = generated(num_qubits, clifford, t_gates, seed=num_qubits + t_gates)
        model = NoiseModel.uniform(rate)
        for seed in SEEDS[:2]:
            assert assert_same_as_dfs(circuit, model, seed, 48) == expected

    def test_cases_sit_on_the_side_they_claim(self):
        """The generated cases straddle the cutoffs they are named for."""
        shares = {}
        for label, num_qubits, clifford, t_gates, rate, _ in GENERATED:
            circuit = generated(num_qubits, clifford, t_gates, seed=num_qubits + t_gates)
            for seed in SEEDS[:2]:
                sim = NoisySimulator(circuit, NoiseModel.uniform(rate), seed=seed)
                trials = sim.sample(48)
                errors = sum(trial.num_errors for trial in trials) / len(trials)
                assert (errors > HYBRID_MAX_ERRORS_PER_TRIAL) == (label == "errors-above-cutoff")
            shares[label] = frame_safe_share(sim.layered)
        assert shares["share-at-cutoff"] == HYBRID_MIN_FRAME_SAFE
        assert shares["share-below-cutoff"] < HYBRID_MIN_FRAME_SAFE
        assert shares["clifford-13"] == 1.0 and 13 < HYBRID_MIN_QUBITS


class TestExplicitOptionsForce:
    def test_hybrid_true_forces_the_fast_path_at_five_qubits(self):
        circuit, model = resolve_benchmark("bv5")
        forced = NoisySimulator(circuit, model, seed=3).run(num_trials=256, hybrid=True)
        default = NoisySimulator(circuit, model, seed=3).run(num_trials=256)
        assert (forced.executor, default.executor) == ("hybrid", "dfs")
        assert forced.counts == default.counts

    def test_hybrid_false_forces_dfs_on_bv14(self):
        circuit, model = resolve_benchmark("bv14")
        sim = NoisySimulator(circuit, model, seed=3)
        trials = sim.sample(64)
        assert pick(sim.layered, trials).name == "hybrid"
        assert pick(sim.layered, trials, hybrid=False).name == "dfs"
        assert sim.run(trials=trials, hybrid=False).executor == "dfs"

    @pytest.mark.parametrize(
        "options, executor",
        [
            ({"backend": "statevector-interpreted"}, "dfs"),
            ({"max_cache_bytes": 1 << 30}, "dfs"),
            ({"mode": "baseline"}, "baseline"),
        ],
    )
    def test_other_options_keep_their_executor_on_bv14(self, options, executor):
        circuit, model = resolve_benchmark("bv14")
        sim = NoisySimulator(circuit, model, seed=3)
        trials = sim.sample(64)
        assert validate(**options).name == pick(sim.layered, trials, **options).name == executor
        assert sim.run(trials=trials, **options).executor == executor

    def test_journaled_run_stays_dfs(self, tmp_path):
        """The journal executor's remaining-trials run is serial DFS, not
        the default pick (hybrid excludes journal)."""
        circuit, model = resolve_benchmark("bv14")
        recorder = InMemoryRecorder()
        result = NoisySimulator(circuit, model, seed=3).run(
            num_trials=64, journal=str(tmp_path / "run.journal"), recorder=recorder
        )
        assert result.executor == "journal"
        assert recorder.first_instant_args("run.meta")["mode"] == "optimized"
        assert recorder.first_instant_args("run.pick") is None
        assert result.counts == NoisySimulator(circuit, model, seed=3).run(
            num_trials=64, hybrid=False
        ).counts


class TestRecordedPick:
    @pytest.mark.parametrize("name, executor", [("bv14", "hybrid"), ("bv5", "dfs")])
    def test_one_pick_instant_and_its_evidence(self, name, executor):
        circuit, model = resolve_benchmark(name)
        sim = NoisySimulator(circuit, model, seed=5)
        trials = sim.sample(64)
        recorder = InMemoryRecorder()
        result = sim.run(trials=trials, recorder=recorder)
        picks = [event for event in recorder.events if event.name == "run.pick"]
        assert len(picks) == 1
        args = picks[0].args
        assert args["executor"] == result.executor == executor
        assert args["num_qubits"] == sim.layered.num_qubits
        assert args["frame_safe_share"] == frame_safe_share(sim.layered)
        assert args["errors_per_trial"] == sum(t.num_errors for t in trials) / len(trials)
        assert (args["min_qubits"], args["min_frame_safe"], args["max_errors_per_trial"]) == (
            HYBRID_MIN_QUBITS, HYBRID_MIN_FRAME_SAFE, HYBRID_MAX_ERRORS_PER_TRIAL,
        )
        checks = check_recorded_run(sim.layered, trials, recorder, result.metrics)
        assert list(checks) == ["replay", "P017", "P020", "P021", "P023", "P025"]
        assert not any(checks.values()), checks
        if executor == "hybrid":
            assert recorder.counter_total("hybrid.clifford_ops") > 0

    def test_forced_runs_record_no_pick(self):
        circuit, model = resolve_benchmark("bv14")
        recorder = InMemoryRecorder()
        NoisySimulator(circuit, model, seed=5).run(num_trials=32, recorder=recorder, hybrid=False)
        assert not [event for event in recorder.events if event.name == "run.pick"]

    def test_falsy_recorder_makes_zero_calls(self):
        circuit, model = resolve_benchmark("bv14")
        SpyRecorder.calls = 0
        result = NoisySimulator(circuit, model, seed=5).run(num_trials=64, recorder=SpyRecorder())
        assert result.executor == "hybrid"
        assert SpyRecorder.calls == 0

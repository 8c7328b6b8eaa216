"""``run()``'s random stream, pinned to the per-trial ``rng.choice`` recipe.

The reference rebuilds a request from public calls, the way perfbench's
traced leg does: the simulator's seed starts one generator, which samples
the trials with every error label drawn by ``rng.choice``, then reads out
each trial of each finished state with its own ``rng.choice`` draw and
applies the trial's readout flips.  Every executor ``run()`` accepts must
reproduce that stream exactly: the same counts, per-trial clbits,
``on_trial`` sequence and generator state after the run.
"""

import functools
import threading
from unittest import mock

import numpy as np
import pytest

from repro import NoisySimulator
from repro.bench.suite import benchmark_names, resolve_benchmark
from repro.core import parallel as parallel_module
from repro.core.executor import RunInterrupted, run_optimized
from repro.noise import PauliChannel, sample_trials
from repro.sim.measurement import apply_readout_flips
from tests.noise.test_channels import _choice_labels

SEED = 11
TRIALS = 64
NAMES = benchmark_names() + ["bv14"]
CLIFFORD = ["7x1mod15", "bv4", "bv5", "bv14"]

@functools.lru_cache(maxsize=None)
def _reference(name, backend="statevector"):
    circuit, model = resolve_benchmark(name)
    sim = NoisySimulator(circuit, model, seed=SEED)
    rng = np.random.default_rng(SEED)
    with mock.patch.object(PauliChannel, "sample_labels", _choice_labels):
        trials = sample_trials(sim.layered, model, TRIALS, rng)
    sampled_state = rng.bit_generator.state
    measurements = sim.layered.measurements
    num_qubits = sim.layered.num_qubits
    counts, clbits_per_trial, stream = {}, [None] * TRIALS, []

    def on_finish(payload, indices):
        for index in indices:
            probs = np.clip(np.abs(payload.vector) ** 2, 0.0, None)
            probs /= probs.sum()
            outcome = int(rng.choice(probs.size, p=probs))
            clbits = {
                meas.clbit: (outcome >> (num_qubits - 1 - meas.qubit)) & 1
                for meas in measurements
            }
            clbits = apply_readout_flips(clbits, trials[index].meas_flips)
            bits = "".join(str(clbits.get(c, 0)) for c in range(circuit.num_clbits))
            clbits_per_trial[index] = clbits
            counts[bits] = counts.get(bits, 0) + 1
            stream.append((index, bits))

    run_optimized(sim.layered, trials, sim.make_backend(backend), on_finish)
    return {
        "trials": trials,
        "sampled_state": sampled_state,
        "counts": counts,
        "clbits": clbits_per_trial,
        "stream": stream,
        "state": rng.bit_generator.state,
    }


def _simulator(name):
    circuit, model = resolve_benchmark(name)
    return NoisySimulator(circuit, model, seed=SEED)


def _run(name, **options):
    sim = _simulator(name)
    stream = []
    result = sim.run(
        num_trials=TRIALS, on_trial=lambda i, bits: stream.append((i, bits)),
        **options,
    )
    return sim, result, stream


def _assert_matches(reference, sim, result, stream):
    assert result.counts == reference["counts"]
    assert result.trial_clbits == reference["clbits"]
    assert stream == reference["stream"]
    assert sim._rng.bit_generator.state == reference["state"]


@pytest.mark.parametrize("name", NAMES)
def test_sampled_trials_equal_choice(name):
    reference = _reference(name)
    sim = _simulator(name)
    assert sim.sample(TRIALS) == reference["trials"]
    assert sim._rng.bit_generator.state == reference["sampled_state"]


@pytest.mark.parametrize("name", NAMES)
def test_dfs(name):
    _assert_matches(_reference(name), *_run(name))


@pytest.mark.parametrize("name", NAMES)
def test_interpreted_backend(name):
    backend = "statevector-interpreted"
    _assert_matches(_reference(name, backend), *_run(name, backend=backend))


@pytest.mark.parametrize("name", NAMES)
def test_inline_pool(name, monkeypatch):
    monkeypatch.setattr(parallel_module, "fork_available", lambda: False)
    _assert_matches(_reference(name), *_run(name, workers=2))


@pytest.mark.parametrize("name", CLIFFORD)
def test_hybrid(name):
    _assert_matches(_reference(name), *_run(name, hybrid=True))


@pytest.mark.parametrize("name", NAMES)
def test_journal_resumed_after_stop(name, tmp_path):
    journal = str(tmp_path / "run.journal")
    stop = threading.Event()
    # Stop once the first finished state is read out: the run ends after
    # that finish, with the rest of the plan still to execute.
    with pytest.raises(RunInterrupted) as info:
        _simulator(name).run(
            num_trials=TRIALS, journal=journal, stop=stop,
            on_trial=lambda index, bits: stop.set(),
        )
    assert 0 < info.value.trials_completed < TRIALS
    sim, result, stream = _run(name, journal=journal)
    assert result.journal.resumed
    assert result.journal.replayed_trials == info.value.trials_completed
    _assert_matches(_reference(name), sim, result, stream)

"""The execution-options table: coverage, parity, rejections, exactness."""

import inspect
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from repro import NoisySimulator
from repro.circuits import QuantumCircuit
from repro.core.options import (
    BACKENDS,
    EXECUTORS,
    MODES,
    OPTIONS,
    OptionError,
    expect,
    validate,
)
from repro.core.shared import SharedPrefixStore
from repro.noise import NoiseModel
from repro.testing import random_circuit

DOCS = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"

TRIALS = 24
SEED = 17
STATEVECTOR_FAMILY = ("statevector", "statevector-interpreted")
_HYBRID_BATCH = (
    "batch_size has no effect on the hybrid executor; "
    "it is honoured by: parallel, wavefront"
)


def _parent_guard(o):
    """The pairwise guard block ``run()`` carried before the table, kept
    verbatim as the oracle for message parity; ``None`` when it passed."""
    mode, backend = o["mode"], o["backend"]
    sv = backend in STATEVECTOR_FAMILY
    if mode not in MODES:
        return f"unknown mode {mode!r}; choose from {MODES}"
    if o["workers"]:
        if mode != "optimized":
            return ("workers requires mode='optimized' (the baseline has "
                    "no plan to partition)")
        if not sv:
            return f"workers requires a statevector-family backend, got {backend!r}"
    if o["journal"] is not None:
        if mode != "optimized":
            return ("journal requires mode='optimized' (the baseline "
                    "streams no resumable finish payloads)")
        if not sv:
            return ("journal requires a statevector-family backend "
                    f"(payload amplitudes are recorded), got {backend!r}")
    if o["max_cache_bytes"] is not None and not sv:
        return f"max_cache_bytes requires a statevector-family backend, got {backend!r}"
    if o["batch_size"]:
        if mode != "optimized":
            return ("batch_size requires mode='optimized' (the baseline "
                    "has no plan to batch over)")
        if backend != "statevector":
            return ("batch_size requires the compiled 'statevector' "
                    f"backend (batched kernel surface), got {backend!r}")
        if o["journal"] is not None:
            return ("batch_size is incompatible with journal: the "
                    "wavefront interleaves trials, so the trial-ordered "
                    "resume log cannot be replayed against it")
    if o["hybrid"]:
        if mode != "optimized":
            return ("hybrid requires mode='optimized' (the fast path "
                    "rewrites the optimized plan's trie spans)")
        if backend != "statevector":
            return ("hybrid requires the compiled 'statevector' backend "
                    f"(anchor derivation and dense handoff), got {backend!r}")
        if o["journal"] is not None:
            return ("hybrid is incompatible with journal: symbolic spans "
                    "produce no trial-ordered finish stream to journal")
        if o["max_cache_bytes"] is not None:
            return ("hybrid is incompatible with max_cache_bytes: "
                    "symbolic snapshots are O(n) Pauli frames, not "
                    "budgetable statevectors")
    if o["shared"] is not None:
        if mode != "optimized":
            return ("shared requires mode='optimized' (the baseline walks "
                    "no prefix states to share)")
        if not sv:
            return ("shared requires a statevector-family backend "
                    f"(amplitudes are published), got {backend!r}")
        if o["workers"] or o["batch_size"] or o["hybrid"]:
            return ("shared requires the serial per-trial executor "
                    "(workers=0, batch_size=0, hybrid=False); the batched "
                    "and partitioned executors do not walk the provenance "
                    "keys the store is shared under")
    return None


def _clifford_circuit(num_qubits, num_gates, rng):
    circuit = QuantumCircuit(num_qubits, name="clifford")
    one = ("h", "s", "sdg", "x", "y", "z")
    two = ("cx", "cz", "swap")
    for _ in range(num_gates):
        if rng.random() < 0.3:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.gate(two[int(rng.integers(len(two)))], int(a), int(b))
        else:
            circuit.gate(one[int(rng.integers(len(one)))], int(rng.integers(num_qubits)))
    circuit.measure_all()
    return circuit


def _payload_arrays(state):
    vector = getattr(state, "vector", None)
    return (vector,) if vector is not None else (state.x, state.z, state.r)


def _run(circuit, model, options, readout):
    sim = NoisySimulator(circuit, model, seed=SEED)
    return sim.run(num_trials=TRIALS, collect_final_states=readout, **options)


class TestTableCoversRun:
    def test_every_run_keyword_is_declared(self):
        params = set(inspect.signature(NoisySimulator.run).parameters) - {"self"}
        assert set(OPTIONS) == params

    def test_run_defaults_match_the_table(self):
        params = inspect.signature(NoisySimulator.run).parameters
        for name, option in OPTIONS.items():
            assert params[name].default == option.default, name

    def test_pick_order(self):
        assert [e.picked_by for e in EXECUTORS[:4]] == [
            "journal", "workers", "hybrid", "batch_size",
        ]
        assert validate(journal="j", workers=2).name == "journal"
        assert validate(workers=2, hybrid=True, batch_size=4).name == "parallel"
        with pytest.raises(OptionError, match=re.escape(_HYBRID_BATCH)):
            validate(hybrid=True, batch_size=4)
        assert validate(hybrid=True).name == "hybrid"
        assert validate(batch_size=4).name == "wavefront"
        assert validate().name == "dfs"
        assert validate(mode="baseline", backend="counting").name == "baseline"

    def test_stop_is_honoured_by_every_executor(self):
        assert all("stop" in executor.honours for executor in EXECUTORS)

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown execution option"):
            validate(turbo=True)


class TestNewRejections:
    """Inputs the parent accepted, or failed only mid-run."""

    @pytest.fixture
    def sim(self, bell_circuit):
        return NoisySimulator(bell_circuit, NoiseModel.uniform(0.02), seed=3)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"cache_degrade": "bogus", "max_cache_bytes": 1},
             "unknown cache degradation mode 'bogus'"),
            ({"cache_degrade": "bogus", "max_cache_bytes": 1 << 30},
             "unknown cache degradation mode 'bogus'"),
            ({"task_timeout": 0, "workers": 2}, "task_timeout must be"),
            ({"task_timeout": -1, "workers": 2}, "task_timeout must be"),
            ({"max_cache_bytes": -5}, "max_cache_bytes must be"),
            ({"task_weights": [1, 2]}, "task_weights requires workers"),
            ({"max_cache_bytes": 4096, "mode": "baseline"},
             "max_cache_bytes has no effect on the baseline executor"),
            ({"workers": -2}, "workers must be >= 1"),
            ({"check": True, "mode": "baseline"},
             "check has no effect on the baseline executor"),
            ({"cache_degrade": "drop"}, "cache_degrade requires max_cache_bytes"),
            ({"partition_depth": 2}, "partition_depth requires workers"),
            ({"retries": 5}, "retries requires workers"),
            ({"task_weights": [1], "workers": 2, "journal": "x.journal"},
             "task_weights has no effect on the journal executor"),
            ({"collect_final_states": True, "backend": "counting"},
             "collect_final_states requires a backend with readout"),
        ],
    )
    def test_rejected_before_sampling(self, sim, options, message):
        before = sim._rng.bit_generator.state
        with pytest.raises(OptionError, match=re.escape(message)):
            sim.run(num_trials=8, **options)
        assert sim._rng.bit_generator.state == before

    def test_expect_names_the_picking_option(self):
        with pytest.raises(OptionError, match="batch_size must be >= 1, got 0"):
            expect("wavefront", batch_size=0)
        with pytest.raises(OptionError, match="workers must be >= 1"):
            expect("parallel", workers=0)
        with pytest.raises(OptionError, match=re.escape(_HYBRID_BATCH)):
            expect("hybrid", hybrid=True, batch_size=64)


_BASELINE_BUDGET = (
    "max_cache_bytes has no effect on the baseline executor; "
    "it is honoured by: journal, parallel, wavefront, dfs"
)


class TestOptionGrid:
    """mode x backend x workers x batch x hybrid x budget x journal x shared.

    Every combination the table accepts matches the serial run of the same
    mode on the same backend (payloads ``array_equal``, equal counts and
    ``optimized_ops``); every rejected one raises the table's message
    before the simulator draws from its RNG, and keeps the message the
    old guard block gave it.  Two combinations the guard block let
    through are rejected by the table: a budget on the baseline, which
    dropped it, and a batch width on the in-process hybrid executor,
    which no longer runs batched fragments.
    """

    def test_grid(self, tmp_path):
        rng = np.random.default_rng(2020)
        model = NoiseModel.uniform(0.03)
        dense = random_circuit(3, 14, rng)
        clifford = _clifford_circuit(3, 14, rng)
        budget = 2 * 16 * (1 << 3)  # two resident states: forces spills
        references = {}
        accepted = rejected = 0
        grid = itertools.product(
            MODES, BACKENDS, (0, 1), (0, 3), (False, True),
            (None, budget), (False, True), (False, True),
        )
        for index, combo in enumerate(grid):
            mode, backend, workers, batch, hybrid, mcb, journal, shared = combo
            circuit = clifford if backend == "stabilizer" else dense
            readout = backend != "counting"
            options = dict(
                mode=mode, backend=backend, workers=workers,
                batch_size=batch, hybrid=hybrid, max_cache_bytes=mcb,
                journal=str(tmp_path / f"{index}.journal") if journal else None,
                shared=SharedPrefixStore() if shared else None,
            )
            parent = _parent_guard(options)
            try:
                validate(**options)
            except OptionError as exc:
                rejected += 1
                new = _HYBRID_BATCH if hybrid and batch else _BASELINE_BUDGET
                assert str(exc) == (parent or new), combo
                sim = NoisySimulator(circuit, model, seed=SEED)
                before = sim._rng.bit_generator.state
                with pytest.raises(OptionError) as info:
                    sim.run(num_trials=TRIALS, collect_final_states=readout, **options)
                assert str(info.value) == str(exc), combo
                assert sim._rng.bit_generator.state == before, combo
                continue
            assert parent is None, combo
            accepted += 1
            key = (mode, backend)
            if key not in references:
                references[key] = _run(
                    circuit, model, {"mode": mode, "backend": backend}, readout
                )
            reference = references[key]
            result = _run(circuit, model, options, readout)
            assert (
                result.metrics.optimized_ops == reference.metrics.optimized_ops
            ), combo
            assert result.counts == reference.counts, combo
            if readout:
                for got, want in zip(result.final_states, reference.final_states):
                    for a, b in zip(_payload_arrays(got), _payload_arrays(want)):
                        assert np.array_equal(a, b), combo
        assert accepted >= 30 and rejected >= 300, (accepted, rejected)


class TestDocsTable:
    """docs/architecture.md's "Execution options" table lists every
    option with the executors the table says honour it."""

    def _rows(self):
        text = DOCS.read_text()
        section = text.split("### Execution options", 1)[1].split("\n#", 1)[0]
        return {
            name: [cell.strip() for cell in rest.split("|")]
            for name, rest in re.findall(
                r"^\| *`([a-z_]+)` *\|(.*)\|$", section, re.MULTILINE
            )
        }

    def test_every_option_documented(self):
        assert set(self._rows()) == set(OPTIONS)

    def test_honoured_by_column_matches_the_table(self):
        everyone = {executor.name for executor in EXECUTORS}
        for name, cells in self._rows().items():
            honoured = {e.name for e in EXECUTORS if name in e.honours}
            cell = cells[1]
            documented = everyone if cell == "all" else {
                part.strip() for part in cell.split(",")
            }
            assert documented == honoured, name

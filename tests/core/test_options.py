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
    validate,
)
from repro.core.shared import SharedPrefixStore
from repro.noise import NoiseModel
from repro.testing import random_circuit

DOCS = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"

TRIALS = 24
SEED = 17
STATEVECTOR_FAMILY = ("statevector", "statevector-interpreted")


def _guard(o):
    """The pairwise guard block ``run()`` carried before the table, kept
    as the oracle for message parity (less the retired ``batch_size`` and
    ``workers`` checks); ``None`` when it passed."""
    mode, backend = o["mode"], o["backend"]
    sv = backend in STATEVECTOR_FAMILY
    if mode not in MODES:
        return f"unknown mode {mode!r}; choose from {MODES}"
    if o["journal"] is not None:
        if mode != "optimized":
            return ("journal requires mode='optimized' (the baseline "
                    "streams no resumable finish payloads)")
        if not sv:
            return ("journal requires a statevector-family backend "
                    f"(payload amplitudes are recorded), got {backend!r}")
    if o["max_cache_bytes"] is not None and not sv:
        return f"max_cache_bytes requires a statevector-family backend, got {backend!r}"
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
        if o["hybrid"]:
            return ("shared requires the serial per-trial executor "
                    "(hybrid=False); the hybrid executor does not walk the "
                    "provenance keys the store is shared under")
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
        assert [e.picked_by for e in EXECUTORS[:2]] == ["journal", "hybrid"]
        assert validate(journal="j", hybrid=False).name == "journal"
        assert validate(hybrid=True).name == "hybrid"
        assert validate().name == "dfs"
        assert validate(mode="baseline", backend="counting").name == "baseline"

    def test_stop_is_honoured_by_every_executor(self):
        assert all("stop" in executor.honours for executor in EXECUTORS)

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown execution option"):
            validate(turbo=True)

    def test_every_executor_names_its_evidence(self):
        from repro.lint.api import RUN_CHECKS

        for executor in EXECUTORS:
            assert executor.evidence, executor.name
            for name in executor.evidence:
                assert name in RUN_CHECKS, (executor.name, name)


class TestNewRejections:
    """Rejected inputs fail before the simulator draws from its RNG.

    The first cases were accepted before the options table existed, or
    failed only mid-run.  A case's id carries its list position, so a
    case that goes is replaced in place rather than shifting the rest.
    """

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
            ({"mode": "bogus"}, "unknown mode 'bogus'"),
            ({"backend": "bogus"}, "unknown backend 'bogus'"),
            ({"max_cache_bytes": -5}, "max_cache_bytes must be"),
            ({"max_cache_bytes": 1.5}, "max_cache_bytes must be an int >= 0, got 1.5"),
            ({"max_cache_bytes": 4096, "mode": "baseline"},
             "max_cache_bytes has no effect on the baseline executor"),
            ({"on_trial": lambda index, bits: None, "backend": "counting"},
             "on_trial requires a backend with readout"),
            ({"check": True, "mode": "baseline"},
             "check has no effect on the baseline executor"),
            ({"cache_degrade": "drop"}, "cache_degrade requires max_cache_bytes"),
            ({"max_cache_bytes": "4096"},
             "max_cache_bytes must be an int >= 0, got '4096'"),
            ({"cache_degrade": "drop", "max_cache_bytes": 4096, "hybrid": True},
             "hybrid is incompatible with max_cache_bytes"),
            # The first declared check names the error.
            ({"mode": "bogus", "backend": "bogus"}, "unknown mode 'bogus'"),
            ({"collect_final_states": True, "backend": "counting"},
             "collect_final_states requires a backend with readout"),
        ],
    )
    def test_rejected_before_sampling(self, sim, options, message):
        before = sim._rng.bit_generator.state
        with pytest.raises(OptionError, match=re.escape(message)):
            sim.run(num_trials=8, **options)
        assert sim._rng.bit_generator.state == before


_BASELINE_BUDGET = (
    "max_cache_bytes has no effect on the baseline executor; "
    "it is honoured by: journal, dfs"
)


class TestOptionGrid:
    """mode x backend x hybrid x budget x journal x shared.

    Every combination the table accepts matches the serial run of the same
    mode on the same backend (payloads ``array_equal``, equal counts and
    ``optimized_ops``); every rejected one raises the table's message
    before the simulator draws from its RNG, and keeps the message the
    old guard block gave it (``_guard``).  The one combination the guard
    block let through that the table rejects is a budget on the
    baseline, which dropped it.
    ``hybrid=None`` (the default pick) gets the verdict ``hybrid=False``
    gets everywhere: the same executor or the same message.
    """

    def test_grid(self, tmp_path):
        rng = np.random.default_rng(2020)
        model = NoiseModel.uniform(0.03)
        dense = random_circuit(3, 14, rng)
        clifford = _clifford_circuit(3, 14, rng)
        budget = 2 * 16 * (1 << 3)  # two resident states: forces spills
        references = {}
        verdicts = {}
        accepted = rejected = 0
        grid = itertools.product(
            MODES, BACKENDS, (None, False, True),
            (None, budget), (False, True), (False, True),
        )
        for index, combo in enumerate(grid):
            mode, backend, hybrid, mcb, journal, shared = combo
            circuit = clifford if backend == "stabilizer" else dense
            readout = backend != "counting"
            options = dict(
                mode=mode, backend=backend,
                hybrid=hybrid, max_cache_bytes=mcb,
                journal=str(tmp_path / f"{index}.journal") if journal else None,
                shared=SharedPrefixStore() if shared else None,
            )
            guard = _guard(options)
            try:
                verdicts[combo] = validate(**options).name
            except OptionError as exc:
                verdicts[combo] = str(exc)
                rejected += 1
                assert str(exc) == (guard or _BASELINE_BUDGET), combo
                sim = NoisySimulator(circuit, model, seed=SEED)
                before = sim._rng.bit_generator.state
                with pytest.raises(OptionError) as info:
                    sim.run(num_trials=TRIALS, collect_final_states=readout, **options)
                assert str(info.value) == str(exc), combo
                assert sim._rng.bit_generator.state == before, combo
                continue
            assert guard is None, combo
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
        assert (accepted, rejected) == (45, 147), (accepted, rejected)
        for combo, verdict in verdicts.items():
            if combo[2] is None:
                assert verdict == verdicts[combo[:2] + (False,) + combo[3:]], combo


class TestDocsTable:
    """docs/architecture.md's "Execution options" table lists every
    option with the executors the table says honour it, and the
    executors table lists each executor's evidence."""

    def test_evidence_column_matches_the_table(self):
        section = DOCS.read_text().split("## 18.", 1)[1].split("\n#", 1)[0]
        rows = {
            cells[0].strip(): cells[-1].strip()
            for cells in (
                row.split("|")[1:-1]
                for row in re.findall(r"^\|.*\|$", section, re.MULTILINE)
            )
        }
        assert rows["executor"] == "evidence"
        for executor in EXECUTORS:
            assert rows[executor.name].replace("`", "") == ", ".join(executor.evidence)

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

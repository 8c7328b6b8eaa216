"""One kernel program per layer, at every width.

Up to ``LAYER_PRODUCT_MAX_QUBITS`` qubits, while the layers' unitaries fit
under ``LAYER_PRODUCT_MAX_BYTES``, a compiled segment over layers
``[s, e)`` is ``e - s`` full-width dense kernels, one per layer, built
once from the layer's program; ``matrices(s, e)`` returns those
unitaries.  Wider circuits, and narrow ones past the byte cap, run each
layer's gate kernels, with the layer's diagonals that no X frame crosses
fused into one.  Every executor, the baseline included, stays
``np.array_equal`` to serial DFS on both sides of the cutoff, because
per-layer programs do not depend on where a segment starts or ends.
"""

import numpy as np
import pytest

from repro import NoisySimulator
from repro.circuits import QuantumCircuit, gates, layerize
from repro.circuits.circuit import GateOp
from repro.circuits.layers import LayeredCircuit
from repro.core.events import ErrorEvent, make_trial
from repro.core.executor import run_optimized
from repro.core.hybrid import classify_plan, run_hybrid
from repro.core.schedule import build_plan
from repro.core.shared import SharedPrefixStore
from repro.lint import lint_hybrid
from repro.noise import NoiseModel
from repro.sim.backend import StatevectorBackend
from repro.sim.compiled import CompiledCircuit, CompiledStatevectorBackend
from repro.sim.kernels import (
    LAYER_PRODUCT_MAX_BYTES,
    LAYER_PRODUCT_MAX_QUBITS,
    kernel_for_gate,
)
from repro.testing import random_circuit

CUTOFF = LAYER_PRODUCT_MAX_QUBITS


def _random_layered(num_qubits, num_gates=30, seed=5):
    rng = np.random.default_rng(seed + num_qubits)
    return layerize(random_circuit(num_qubits, num_gates, rng))


def _spanning_layered(num_qubits, seed=7):
    """A layer of Hadamards, then one hand-built layer: a gate on every
    qubit in ascending order, one on every qubit in descending order, and
    a run of one-qubit gates on qubit 0."""
    rng = np.random.default_rng(seed + num_qubits)
    dim = 1 << num_qubits

    def random_gate():
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return gates.unitary(np.linalg.qr(raw)[0])

    every = tuple(range(num_qubits))
    hadamards = [GateOp(gates.h(), (qubit,)) for qubit in every]
    spanning = [
        GateOp(random_gate(), every),
        GateOp(random_gate(), every[::-1]),
        GateOp(gates.h(), (0,)),
        GateOp(gates.t(), (0,)),
        GateOp(gates.sx(), (0,)),
    ]
    circuit = QuantumCircuit(num_qubits, name="spanning")
    return LayeredCircuit(circuit, [hadamards, spanning], [])


def _basis_columns(kernel, num_qubits):
    """The kernel applied to every basis state, as the columns of a matrix."""
    dim = 1 << num_qubits
    columns = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        state = np.zeros(dim, dtype=np.complex128)
        state[j] = 1.0
        result, _ = kernel.apply(
            state.reshape((2,) * num_qubits),
            np.empty((2,) * num_qubits, dtype=np.complex128),
        )
        columns[:, j] = result.reshape(-1)
    return columns


class TestNarrowSegments:
    @pytest.mark.parametrize("num_qubits", range(1, CUTOFF + 1))
    def test_one_dense_kernel_per_layer(self, num_qubits):
        layered = _random_layered(num_qubits)
        compiled = CompiledCircuit(layered)
        assert compiled.layer_products
        layers = layered.num_layers
        everything = compiled.segment(0, layers)
        assert len(everything) == layers
        every_qubit = tuple(range(num_qubits))
        assert all(k.kind == "dense" for k in everything)
        assert all(k.qubits == every_qubit for k in everything)
        # A layer's kernel is one object wherever a segment splits, so the
        # arithmetic does not depend on the split.
        middle = layers // 2
        split = compiled.segment(0, middle) + compiled.segment(middle, layers)
        assert all(a is b for a, b in zip(everything, split))

    @pytest.mark.parametrize(
        "num_qubits, build",
        [pytest.param(n, _random_layered, id=str(n)) for n in range(1, CUTOFF + 1)]
        + [
            pytest.param(n, _spanning_layered, id=f"spanning-{n}")
            for n in range(2, CUTOFF + 1)
        ],
    )
    def test_matrices_are_the_layer_unitaries(self, num_qubits, build):
        layered = build(num_qubits)
        compiled = CompiledCircuit(layered)
        dim = 1 << num_qubits
        every_qubit = tuple(range(num_qubits))
        start, end = 1, layered.num_layers
        matrices = compiled.matrices(start, end)
        kernels = compiled.segment(start, end)
        assert len(matrices) == len(kernels) == end - start
        interpreted = StatevectorBackend(layered)
        for layer, ((matrix, qubits), kernel) in enumerate(
            zip(matrices, kernels), start
        ):
            assert qubits == every_qubit
            assert matrix.shape == (dim, dim)
            # The kernel multiplies with exactly these floats ...
            assert np.array_equal(_basis_columns(kernel, num_qubits), matrix)
            # ... and they are the layer's unitary.
            for j in range(dim):
                state = interpreted.make_initial()
                basis = np.zeros(dim, dtype=np.complex128)
                basis[j] = 1.0
                state._tensor = basis.reshape((2,) * num_qubits)
                interpreted.apply_layers(state, layer, layer + 1)
                np.testing.assert_allclose(
                    matrix[:, j], state.vector, atol=1e-13
                )


class TestGateKernelsKept:
    @staticmethod
    def _one_qubit_run(num_qubits, depth):
        """``depth`` one-qubit gates on qubit 0 (one layer each), then a cx."""
        circuit = QuantumCircuit(num_qubits, name="runs")
        for index in range(depth):
            circuit.gate(("h", "t", "s")[index % 3], 0)
        circuit.gate("cx", 0, 1)
        return layerize(circuit)

    def _assert_gate_kernels(self, layered):
        compiled = CompiledCircuit(layered)
        assert not compiled.layer_products
        layers = layered.num_layers
        program = compiled.segment(0, layers)
        # A run across layers does not fuse: every layer keeps its gate's
        # own kernel, from the shared per-gate cache.
        ops = [op for layer in layered.layers for op in layer]
        assert len(ops) == layers
        assert list(program) == [
            kernel_for_gate(op.gate, op.qubits, layered.num_qubits)
            for op in ops
        ]
        assert compiled.stats()["kernels"] == layers
        assert len(compiled.matrices(0, layers)) == layers

    def test_above_the_cutoff(self):
        self._assert_gate_kernels(self._one_qubit_run(CUTOFF + 1, 6))

    def test_narrow_circuit_past_the_byte_cap(self):
        per_layer = 16 * 4**CUTOFF
        depth = LAYER_PRODUCT_MAX_BYTES // per_layer
        layered = self._one_qubit_run(CUTOFF, depth)
        assert layered.num_layers * per_layer > LAYER_PRODUCT_MAX_BYTES
        self._assert_gate_kernels(layered)
        # One layer fewer fits under the cap.
        assert CompiledCircuit(self._one_qubit_run(CUTOFF, depth - 1)).layer_products


class TestFramesCrossTwoQubitLayers:
    """Frame images are searched on matrices of at most two qubits, so at
    1-2 qubits a Pauli frame can cross a whole layer's product; after the
    ``t`` layer every layer here is a phase permutation, whose outputs are
    one product plus exact zeros, so the crossing is bit-exact."""

    def test_forced_hybrid_is_active_and_bit_identical(self):
        circuit = QuantumCircuit(2, name="phase-permutation-layers")
        for gates in (("h", "h"), ("t", "t")):
            for qubit, name in enumerate(gates):
                circuit.gate(name, qubit)
        circuit.gate("cx", 0, 1)
        circuit.gate("s", 0).gate("x", 1)
        circuit.gate("cz", 0, 1)
        circuit.gate("sdg", 0).gate("y", 1)
        circuit.gate("swap", 0, 1)
        circuit.measure_all()
        layered = layerize(circuit)
        assert CompiledCircuit(layered).layer_products
        trials = [make_trial([])]
        for layer in (1, 2, 3):
            for qubit in (0, 1):
                for pauli in ("x", "y", "z"):
                    first = ErrorEvent(layer, qubit, pauli)
                    trials.append(make_trial([first]))
                    trials.append(
                        make_trial([first, ErrorEvent(layer + 2, 1 - qubit, "y")])
                    )
        plan = build_plan(layered, trials)
        assert classify_plan(layered, plan).active
        streams = []
        for runner in (run_optimized, run_hybrid):
            stream = []
            runner(
                layered, trials, CompiledStatevectorBackend(layered),
                plan=plan,
                on_finish=lambda payload, indices: stream.append(
                    (tuple(indices), payload.vector.copy())
                ),
            )
            streams.append(stream)
        serial, hybrid = streams
        assert len(serial) == len(hybrid) == len(set(trials))
        for (s_idx, s_vec), (h_idx, h_vec) in zip(serial, hybrid):
            assert s_idx == h_idx
            assert np.array_equal(s_vec, h_vec), s_idx


def _final_states(result):
    return [state.vector for state in result.final_states]


#: Gates of the generated mixed layers, by kind: diagonals that fuse,
#: diagonals that X frames cross, and dense and permutation gates, as
#: ``(name, arity, takes an angle)``.
MIXED_KINDS = (
    (("t", 1, False), ("rz", 1, True), ("cu1", 2, True), ("rzz", 2, True)),
    (("z", 1, False), ("s", 1, False), ("cz", 2, False)),
    (("h", 1, False), ("sx", 1, False), ("ry", 1, True), ("x", 1, False),
     ("cx", 2, False), ("swap", 2, False)),
)


def mixed_circuit(num_qubits, depth, seed):
    """``depth`` generated layers, each covering every qubit with gates of
    all three kinds of :data:`MIXED_KINDS`, so every layer has diagonals
    to fuse beside gates that keep their own kernels."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"mixed{num_qubits}")
    for _ in range(depth):
        free = [int(q) for q in rng.permutation(num_qubits)]
        position = 0
        while free:
            kinds = MIXED_KINDS[position % 3]
            name, arity, angled = kinds[int(rng.integers(len(kinds)))]
            if arity > len(free):
                name, arity, angled = kinds[0]
            qubits = [free.pop() for _ in range(arity)]
            params = (float(rng.uniform(0.1, 3.0)),) if angled else ()
            circuit.gate(name, *qubits, params=params)
            position += 1
    circuit.measure_all()
    return circuit


class TestExecutorsMatchSerialDfs:
    """On random circuits at the cutoff and one qubit above it, and on
    generated mixed layers at 7 and 10 qubits, every executor's payloads
    are ``np.array_equal`` to serial DFS with equal operation counts, the
    baseline's included."""

    TRIALS = 64
    SEED = 31

    @pytest.fixture(
        params=(CUTOFF, CUTOFF + 1, "mixed-7", "mixed-10"),
        ids=("cutoff", "above", "mixed-7", "mixed-10"),
    )
    def case(self, request):
        if isinstance(request.param, int):
            num_qubits = request.param
            rng = np.random.default_rng(40 + num_qubits)
            circuit = random_circuit(num_qubits, 36, rng)
            narrow = num_qubits <= CUTOFF
            assert CompiledCircuit(layerize(circuit)).layer_products == narrow
            return circuit, NoiseModel.uniform(0.04)
        num_qubits = int(request.param.split("-")[1])
        circuit = mixed_circuit(num_qubits, 8, seed=num_qubits)
        layered = layerize(circuit)
        compiled = CompiledCircuit(layered)
        assert layered.num_layers == 8
        # Every layer fuses diagonals: it has fewer kernels than gates.
        for index, layer in enumerate(layered.layers):
            assert len(compiled.segment(index, index + 1)) < len(layer)
        # Pauli errors and readout flips.
        return circuit, NoiseModel.uniform(0.01, two=0.03, measurement=0.05)

    def _run(self, circuit, model, **options):
        simulator = NoisySimulator(circuit, model, seed=self.SEED)
        return simulator.run(
            num_trials=self.TRIALS, collect_final_states=True, **options
        )

    def _assert_equal(self, result, reference, context, ops=None):
        want = reference.metrics.optimized_ops if ops is None else ops
        assert result.metrics.optimized_ops + result.ops_shared == want, context
        if result.mode == reference.mode:
            # The baseline reads out trial by trial, on its own stream.
            assert result.counts == reference.counts, context
        assert len(result.final_states) == len(reference.final_states)
        for got, expected in zip(
            _final_states(result), _final_states(reference)
        ):
            assert np.array_equal(got, expected), context

    def test_every_executor(self, case, tmp_path):
        circuit, model = case
        reference = self._run(circuit, model, hybrid=False)
        assert reference.executor == "dfs"
        simulator = NoisySimulator(circuit, model, seed=self.SEED)
        plan = build_plan(simulator.layered, simulator.sample(self.TRIALS))
        planned = plan.planned_operations(simulator.layered)
        assert reference.metrics.optimized_ops == planned
        # Above the cutoff the forced hybrid crosses frames, through fused
        # diagonals too; P026 proves its schedule.
        wide = circuit.num_qubits > CUTOFF
        assert classify_plan(simulator.layered, plan).active == wide
        assert not lint_hybrid(simulator.layered, plan).diagnostics
        runs = {
            "journal": dict(journal=str(tmp_path / "run.journal")),
            "spill": dict(max_cache_bytes=2 * 16 * (1 << circuit.num_qubits)),
            "hybrid": dict(hybrid=True),
        }
        for context, options in runs.items():
            result = self._run(circuit, model, **options)
            self._assert_equal(result, reference, context, ops=planned)
            if context == "spill":
                assert result.metrics.peak_msv > 2, "the budget must spill"
        store = SharedPrefixStore()
        for context in ("shared-publish", "shared-adopt"):
            self._assert_equal(
                self._run(circuit, model, shared=store), reference, context
            )
        assert store.stats().hits > 0
        baseline = self._run(circuit, model, mode="baseline")
        self._assert_equal(
            baseline, reference, "baseline",
            ops=reference.metrics.baseline_ops,
        )

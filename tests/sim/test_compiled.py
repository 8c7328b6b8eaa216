"""Compiled-vs-interpreted equivalence for circuits, layer programs and full runs.

The compiled execution layer's contract: identical ``ops_applied``
counters, identical ``peak_msv``, and final states ``allclose`` to the
interpreted path — for every gate of the standard library, for seeded
random circuits, and for full noisy runs through both ``run_optimized``
and ``run_baseline``.
"""

import itertools

import numpy as np
import pytest

from repro.bench.suite import (
    benchmark_names,
    build_compiled_benchmark,
    resolve_benchmark,
)
from repro.circuits import QuantumCircuit, gates, layerize
from repro.core.executor import run_baseline, run_optimized
from repro.core.runner import NoisySimulator
from repro.core.schedule import build_plan
from repro.noise import NoiseModel, ibm_yorktown
from repro.noise.sampling import sample_trials
from repro.sim.backend import StatevectorBackend
from repro.sim.kernels import (
    LAYER_PRODUCT_MAX_BYTES,
    LAYER_PRODUCT_MAX_QUBITS,
    diagonal_bytes,
)
from repro.sim.compiled import CompiledCircuit, CompiledStatevectorBackend

GATE_POOL = (
    lambda rng: ("h", ()),
    lambda rng: ("x", ()),
    lambda rng: ("y", ()),
    lambda rng: ("z", ()),
    lambda rng: ("s", ()),
    lambda rng: ("t", ()),
    lambda rng: ("sx", ()),
    lambda rng: ("rx", (rng.uniform(0, np.pi),)),
    lambda rng: ("ry", (rng.uniform(0, np.pi),)),
    lambda rng: ("rz", (rng.uniform(0, np.pi),)),
    lambda rng: ("u3", tuple(rng.uniform(0, np.pi, size=3))),
)
TWO_QUBIT_POOL = ("cx", "cz", "cy", "ch", "swap", "rzz", "rxx", "crz", "cu1")


def random_circuit(num_qubits, num_gates, seed):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random{seed}")
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.35:
            name = TWO_QUBIT_POOL[rng.integers(len(TWO_QUBIT_POOL))]
            q1, q2 = rng.choice(num_qubits, size=2, replace=False)
            params = (
                (rng.uniform(0, np.pi),)
                if name in ("rzz", "rxx", "crz", "cu1")
                else ()
            )
            circuit.apply(gates.standard_gate(name, params), int(q1), int(q2))
        else:
            name, params = GATE_POOL[rng.integers(len(GATE_POOL))](rng)
            circuit.apply(
                gates.standard_gate(name, params),
                int(rng.integers(num_qubits)),
            )
    return circuit


def run_full_circuit(backend, layered):
    state = backend.make_initial()
    backend.apply_layers(state, 0, layered.num_layers)
    return state, backend.ops_applied


class TestCompiledCircuit:
    def test_segment_memoized(self, ghz3_circuit):
        compiled = CompiledCircuit(layerize(ghz3_circuit))
        assert compiled.segment(0, 2) is compiled.segment(0, 2)

    def test_segment_bad_range_rejected(self, ghz3_circuit):
        compiled = CompiledCircuit(layerize(ghz3_circuit))
        with pytest.raises(ValueError):
            compiled.segment(0, 99)

    def test_empty_segment(self, ghz3_circuit):
        compiled = CompiledCircuit(layerize(ghz3_circuit))
        assert compiled.segment(1, 1) == ()

    def test_mismatched_layering_rejected(self, ghz3_circuit, bell_circuit):
        compiled = CompiledCircuit(layerize(ghz3_circuit))
        with pytest.raises(ValueError):
            CompiledStatevectorBackend(layerize(bell_circuit), compiled=compiled)

    def test_stats_count_one_program_per_layer(self):
        # Wider than the layer-product cutoff.  Runs of one-qubit gates in
        # consecutive layers do not fuse: each layer has its own program.
        circuit = QuantumCircuit(LAYER_PRODUCT_MAX_QUBITS + 1, name="runs")
        circuit.h(0).t(0).h(0).cx(0, 1).s(1).t(1)
        compiled = CompiledCircuit(layerize(circuit))
        compiled.segment(0, layerize(circuit).num_layers)
        stats = compiled.stats()
        assert stats["gates"] == 6
        assert stats["kernels"] == 6


class TestFusion:
    """Fusion is per layer: above the cutoff, a layer's diagonals that no
    X frame crosses run as one diagonal kernel; every other gate keeps
    its own kernel, and nothing fuses across layers."""

    @staticmethod
    def _mixed_layer():
        circuit = QuantumCircuit(LAYER_PRODUCT_MAX_QUBITS + 3, name="mixed")
        circuit.t(0).rz(0.4, 1).cu1(0.3, 2, 3).rzz(0.5, 4, 5)
        circuit.s(6).cz(7, 8)
        return layerize(circuit)

    def test_diagonals_fuse_into_one_kernel(self):
        layered = self._mixed_layer()
        assert layered.num_layers == 1
        compiled = CompiledCircuit(layered)
        program = compiled.segment(0, 1)
        # s and cz are crossed by X frames, so they keep their kernels.
        assert [(k.kind, k.qubits) for k in program] == [
            ("diagonal", (6,)),
            ("diagonal", (7, 8)),
            ("diagonal", (0, 1, 2, 3, 4, 5)),
        ]
        # The fused entry is a 1-D factor: the diagonals' product, with
        # qubit 0 most significant (the gates sit on qubits 0..5 in order).
        factor, qubits = compiled.matrices(0, 1)[-1]
        assert qubits == (0, 1, 2, 3, 4, 5)
        expected = np.ones(1)
        for op in layered.layers[0][:4]:
            expected = np.kron(expected, np.diagonal(op.gate.matrix))
        np.testing.assert_allclose(factor, expected, atol=1e-15)

    def test_segment_is_its_layers_programs(self):
        circuit = random_circuit(LAYER_PRODUCT_MAX_QUBITS + 2, 60, seed=3)
        compiled = CompiledCircuit(layerize(circuit))
        layers = compiled.layered.num_layers
        whole = compiled.segment(0, layers)
        split = compiled.segment(0, layers // 2) + compiled.segment(
            layers // 2, layers
        )
        assert all(a is b for a, b in zip(whole, split))
        assert len(compiled.matrices(0, layers)) == len(whole)

    def test_qft14_program_pin(self):
        """QFT(14)'s 112 gates, 91 of them cu1, run as 46 kernels, 25 of
        them diagonal."""
        layered = layerize(resolve_benchmark("qft14")[0])
        program = CompiledCircuit(layered).segment(0, layered.num_layers)
        assert layered.num_gates == 112
        assert len(program) == 46
        assert sum(kernel.kind == "diagonal" for kernel in program) == 25

    @pytest.mark.parametrize("depth", (8, 9))
    def test_factors_past_the_byte_cap_do_not_fuse(self, depth):
        """A layer of t on all 14 qubits fuses into a factor of
        ``diagonal_bytes`` 512 KiB: eight such layers fit under the cap,
        nine do not, and then no layer fuses."""
        circuit = QuantumCircuit(14, name="t-layers")
        for _ in range(depth):
            for qubit in range(14):
                circuit.t(qubit)
        assert 8 * diagonal_bytes(range(14), 14) == LAYER_PRODUCT_MAX_BYTES
        program = CompiledCircuit(layerize(circuit)).segment(0, depth)
        assert len(program) == (depth if depth == 8 else 14 * depth)

    def test_fusion_preserves_state(self):
        for num_qubits, seed in itertools.product(
            (4, LAYER_PRODUCT_MAX_QUBITS + 2), range(5)
        ):
            circuit = random_circuit(num_qubits, 40, seed=seed)
            layered = layerize(circuit)
            interp_state, interp_ops = run_full_circuit(
                StatevectorBackend(layered), layered
            )
            comp_state, comp_ops = run_full_circuit(
                CompiledStatevectorBackend(layered), layered
            )
            assert interp_ops == comp_ops == layered.num_gates
            assert comp_state.allclose(interp_state)

    def test_multi_qubit_gate_flushes_pending_run(self):
        # x then cx on the same qubit: the x's layer runs before the cx's.
        circuit = QuantumCircuit(2, name="order")
        circuit.x(0).cx(0, 1)
        layered = layerize(circuit)
        state, _ = run_full_circuit(CompiledStatevectorBackend(layered), layered)
        assert state.probability_of("11") == pytest.approx(1.0)


class TestStandardGateEquivalence:
    @pytest.mark.parametrize(
        "name", sorted(gates.STANDARD_GATE_ARITY)
    )
    def test_every_standard_gate(self, name, rng):
        arity = gates.STANDARD_GATE_ARITY[name]
        nparams = {"u2": 2, "u3": 3}.get(name, 1)
        params = (
            tuple(rng.uniform(0, np.pi, size=nparams))
            if name in ("rx", "ry", "rz", "u1", "u2", "u3", "crz", "cu1",
                        "cp", "rzz", "rxx")
            else ()
        )
        circuit = QuantumCircuit(4, name=f"one-{name}")
        # Surround with h walls so the gate acts on a non-trivial state.
        for q in range(4):
            circuit.h(q)
        circuit.apply(gates.standard_gate(name, params), *range(arity))
        layered = layerize(circuit)
        interp_state, interp_ops = run_full_circuit(
            StatevectorBackend(layered), layered
        )
        comp_state, comp_ops = run_full_circuit(
            CompiledStatevectorBackend(layered), layered
        )
        assert interp_ops == comp_ops
        assert comp_state.allclose(interp_state)


class TestFullNoisyRunEquivalence:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_optimized_and_baseline_paths(self, name):
        layered = layerize(build_compiled_benchmark(name))
        trials = sample_trials(
            layered, ibm_yorktown(), 48, np.random.default_rng(11)
        )
        plan = build_plan(layered, trials)

        def collect(backend, runner, **kw):
            states = []
            outcome = runner(
                layered, trials, backend,
                lambda payload, idx: states.append((idx, payload.vector.copy())),
                **kw,
            )
            return outcome, states

        interp_opt, interp_states = collect(
            StatevectorBackend(layered), run_optimized, plan=plan
        )
        comp_opt, comp_states = collect(
            CompiledStatevectorBackend(layered), run_optimized, plan=plan
        )
        assert interp_opt.ops_applied == comp_opt.ops_applied
        assert interp_opt.peak_msv == comp_opt.peak_msv
        for (i_idx, i_vec), (c_idx, c_vec) in zip(interp_states, comp_states):
            assert i_idx == c_idx
            assert np.allclose(i_vec, c_vec, atol=1e-8)

        interp_base, interp_bstates = collect(
            StatevectorBackend(layered), run_baseline
        )
        comp_base, comp_bstates = collect(
            CompiledStatevectorBackend(layered), run_baseline
        )
        assert interp_base.ops_applied == comp_base.ops_applied
        assert interp_base.peak_msv == comp_base.peak_msv == 1
        for (i_idx, i_vec), (c_idx, c_vec) in zip(interp_bstates, comp_bstates):
            assert i_idx == c_idx
            assert np.allclose(i_vec, c_vec, atol=1e-8)

    def test_simulator_backends_agree(self, bell_circuit):
        model = NoiseModel.uniform(0.01)
        sim = NoisySimulator(bell_circuit, model, seed=3)
        trials = sim.sample(64)
        compiled_run = NoisySimulator(bell_circuit, model, seed=3).run(
            trials=trials, collect_final_states=True
        )
        interpreted_run = NoisySimulator(bell_circuit, model, seed=3).run(
            trials=trials,
            backend="statevector-interpreted",
            collect_final_states=True,
        )
        assert (
            compiled_run.metrics.optimized_ops
            == interpreted_run.metrics.optimized_ops
        )
        assert compiled_run.metrics.peak_msv == interpreted_run.metrics.peak_msv
        assert compiled_run.counts == interpreted_run.counts
        for a, b in zip(compiled_run.final_states, interpreted_run.final_states):
            assert a.allclose(b)

    def test_injected_operators_through_kernel_cache(self, bell_circuit):
        layered = layerize(bell_circuit)
        backend = CompiledStatevectorBackend(layered)
        kernel = backend.compiled.operator_kernel(gates.x(), (0,))
        assert backend.compiled.operator_kernel(gates.x(), (0,)) is kernel


class TestBufferDiscipline:
    def test_scratch_never_aliases_state(self, ghz3_circuit):
        layered = layerize(ghz3_circuit)
        backend = CompiledStatevectorBackend(layered)
        state = backend.make_initial()
        snapshot = backend.copy_state(state)
        backend.apply_layers(state, 0, layered.num_layers)
        assert state._tensor is not backend._scratch
        assert snapshot._tensor is not backend._scratch
        assert snapshot._tensor is not state._tensor
        # The snapshot must be untouched by the working state's evolution.
        assert snapshot.probability_of("000") == pytest.approx(1.0)

    def test_steady_state_reuses_two_buffers(self, ghz3_circuit):
        layered = layerize(ghz3_circuit)
        backend = CompiledStatevectorBackend(layered)
        state = backend.make_initial()
        buffers = {id(state._tensor), id(backend._scratch)}
        backend.apply_layers(state, 0, layered.num_layers)
        assert {id(state._tensor), id(backend._scratch)} == buffers

"""Compiled-vs-interpreted equivalence for circuits, fusion and full runs.

The compiled execution layer's contract: identical ``ops_applied``
counters, identical ``peak_msv``, and final states ``allclose`` to the
interpreted path — for every gate of the standard library, for seeded
random circuits, and for full noisy runs through both ``run_optimized``
and ``run_baseline``.
"""

import numpy as np
import pytest

from repro.bench.suite import benchmark_names, build_compiled_benchmark
from repro.circuits import QuantumCircuit, gates, layerize
from repro.core.executor import run_baseline, run_optimized
from repro.core.runner import NoisySimulator
from repro.core.schedule import build_plan
from repro.noise import NoiseModel, ibm_yorktown
from repro.noise.sampling import sample_trials
from repro.sim.backend import StatevectorBackend
from repro.sim.kernels import LAYER_PRODUCT_MAX_QUBITS
from repro.sim.compiled import (
    CompiledCircuit,
    CompiledStatevectorBackend,
    _compile_ops,
)

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

    def test_stats_account_fusion(self):
        # Wider than the layer-product cutoff, where segments fuse runs.
        circuit = QuantumCircuit(LAYER_PRODUCT_MAX_QUBITS + 1, name="runs")
        circuit.h(0).t(0).h(0).cx(0, 1).s(1).t(1)
        compiled = CompiledCircuit(layerize(circuit))
        compiled.segment(0, layerize(circuit).num_layers)
        stats = compiled.stats()
        assert stats["gates"] == 6
        # h-t-h fuses to one kernel, s-t fuses to one kernel, plus cx.
        assert stats["kernels"] == 3


class TestFusion:
    def test_single_qubit_run_fuses_to_one_kernel(self, rng):
        circuit = QuantumCircuit(1, name="run")
        circuit.h(0).t(0).s(0).h(0).rz(0.4, 0)
        layered = layerize(circuit)
        program, fused_runs, fused_gates = _compile_ops(
            [op for layer in layered.layers for op in layer], 1
        )
        assert len(program) == 1
        assert fused_runs == 1
        assert fused_gates == 5

    def test_fusion_preserves_state(self, rng):
        for seed in range(5):
            circuit = random_circuit(4, 30, seed=seed)
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
        # x then cx on the same qubit: the pending x must land before cx.
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

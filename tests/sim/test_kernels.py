"""Kernel classification and application correctness.

Every kernel class is checked against the interpreted reference
(:func:`repro.sim.statevector.apply_gate_matrix`) on random states, across
every gate of the standard library and at assorted qubit placements
(including reversed / non-adjacent orders).
"""

import sys
import threading

import numpy as np
import pytest

from repro import NoisySimulator
from repro.bench.suite import benchmark_names, resolve_benchmark
from repro.circuits import gates
from repro.noise import NoiseModel
from repro.sim import kernels
from repro.sim.kernels import (
    KERNEL_CACHE_MAX_ENTRIES,
    ControlledKernel,
    DenseKernel,
    DiagonalKernel,
    PermutationKernel,
    clear_kernel_cache,
    compile_matrix,
    controlled_split,
    is_permutation_matrix,
    kernel_cache_info,
    kernel_for_gate,
)
from repro.testing import random_circuit
from repro.sim.statevector import apply_gate_matrix


def random_tensor(num_qubits, rng):
    vector = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(
        2**num_qubits
    )
    vector /= np.linalg.norm(vector)
    return vector.reshape((2,) * num_qubits)


def apply_kernel(kernel, tensor):
    work = tensor.copy()
    scratch = np.empty_like(work)
    result, _ = kernel.apply(work, scratch)
    return result


# Every standard gate at a representative placement, with its expected kind.
STANDARD_CASES = [
    ("id", (), (1,), DiagonalKernel),
    ("x", (), (2,), PermutationKernel),
    ("y", (), (0,), PermutationKernel),
    ("z", (), (3,), DiagonalKernel),
    ("h", (), (1,), DenseKernel),
    ("s", (), (0,), DiagonalKernel),
    ("sdg", (), (2,), DiagonalKernel),
    ("t", (), (3,), DiagonalKernel),
    ("tdg", (), (1,), DiagonalKernel),
    ("sx", (), (0,), DenseKernel),
    ("rx", (0.37,), (2,), DenseKernel),
    ("ry", (1.1,), (3,), DenseKernel),
    ("rz", (0.9,), (0,), DiagonalKernel),
    ("u1", (0.4,), (1,), DiagonalKernel),
    ("u2", (0.3, 0.8), (2,), DenseKernel),
    ("u3", (0.2, 0.5, 1.3), (3,), DenseKernel),
    ("cx", (), (0, 2), ControlledKernel),
    ("cx", (), (3, 1), ControlledKernel),
    ("cy", (), (2, 0), ControlledKernel),
    ("cz", (), (1, 3), DiagonalKernel),
    ("ch", (), (0, 3), ControlledKernel),
    ("swap", (), (1, 2), PermutationKernel),
    ("crz", (0.6,), (2, 1), DiagonalKernel),
    ("cu1", (0.7,), (3, 0), DiagonalKernel),
    ("cp", (1.2,), (0, 1), DiagonalKernel),
    ("rzz", (0.8,), (1, 3), DiagonalKernel),
    ("rxx", (0.5,), (2, 3), DenseKernel),
    ("ccx", (), (0, 1, 2), ControlledKernel),
    ("ccx", (), (3, 1, 0), ControlledKernel),
    ("cswap", (), (1, 3, 2), ControlledKernel),
]


class TestClassification:
    @pytest.mark.parametrize(
        "name,params,qubits,expected", STANDARD_CASES,
        ids=[f"{c[0]}@{c[2]}" for c in STANDARD_CASES],
    )
    def test_standard_gate_kind(self, name, params, qubits, expected):
        gate = gates.standard_gate(name, params)
        kernel = compile_matrix(gate.matrix, qubits, 4)
        assert type(kernel) is expected

    def test_random_su4_is_dense(self, rng):
        gate = gates.random_su4(rng)
        assert type(compile_matrix(gate.matrix, (0, 1), 3)) is DenseKernel

    def test_controlled_split_cx(self):
        split = controlled_split(gates.cx().matrix, 2)
        assert split is not None
        controls, inner = split
        assert controls == 1
        assert np.allclose(inner, gates.x().matrix)

    def test_controlled_split_ccx_uses_two_controls(self):
        controls, inner = controlled_split(gates.ccx().matrix, 3)
        assert controls == 2
        assert np.allclose(inner, gates.x().matrix)

    def test_controlled_split_rejects_h(self):
        assert controlled_split(gates.h().matrix, 1) is None

    def test_permutation_detection(self):
        assert is_permutation_matrix(gates.swap().matrix)
        assert is_permutation_matrix(gates.y().matrix)
        assert not is_permutation_matrix(gates.h().matrix)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            compile_matrix(np.eye(4), (0,), 3)


class TestApplication:
    @pytest.mark.parametrize(
        "name,params,qubits,expected", STANDARD_CASES,
        ids=[f"{c[0]}@{c[2]}" for c in STANDARD_CASES],
    )
    def test_matches_interpreted_reference(
        self, name, params, qubits, expected, rng
    ):
        gate = gates.standard_gate(name, params)
        tensor = random_tensor(4, rng)
        reference = apply_gate_matrix(tensor, gate.matrix, qubits)
        kernel = compile_matrix(gate.matrix, qubits, 4)
        assert np.allclose(apply_kernel(kernel, tensor), reference)

    def test_single_qubit_register(self, rng):
        # The degenerate case where every tensor axis is fixed by the gate.
        tensor = random_tensor(1, rng)
        for name in ("x", "y", "z", "h", "s"):
            gate = gates.standard_gate(name)
            kernel = compile_matrix(gate.matrix, (0,), 1)
            reference = apply_gate_matrix(tensor, gate.matrix, (0,))
            assert np.allclose(apply_kernel(kernel, tensor), reference), name

    def test_dense_on_reversed_qubits(self, rng):
        gate = gates.random_su4(rng)
        tensor = random_tensor(4, rng)
        for qubits in ((0, 1), (1, 0), (3, 1), (2, 0)):
            reference = apply_gate_matrix(tensor, gate.matrix, qubits)
            kernel = compile_matrix(gate.matrix, qubits, 4)
            assert np.allclose(apply_kernel(kernel, tensor), reference)

    def test_kernel_sequence_ping_pong(self, rng):
        # A chain of buffer-swapping kernels must thread the pair correctly
        # and finish with two distinct buffers.
        tensor = random_tensor(3, rng)
        kernels = [
            compile_matrix(gates.x().matrix, (0,), 3),  # swaps
            compile_matrix(gates.h().matrix, (1,), 3),  # swaps
            compile_matrix(gates.rz(0.3).matrix, (2,), 3),  # in place
            compile_matrix(gates.cx().matrix, (0, 2), 3),  # in place
            compile_matrix(gates.swap().matrix, (1, 2), 3),  # swaps
        ]
        reference = tensor
        for gate, qubits in (
            (gates.x(), (0,)),
            (gates.h(), (1,)),
            (gates.rz(0.3), (2,)),
            (gates.cx(), (0, 2)),
            (gates.swap(), (1, 2)),
        ):
            reference = apply_gate_matrix(reference, gate.matrix, qubits)
        work = tensor.copy()
        scratch = np.empty_like(work)
        original = {id(work), id(scratch)}
        for kernel in kernels:
            work, scratch = kernel.apply(work, scratch)
        assert np.allclose(work, reference)
        assert {id(work), id(scratch)} == original
        assert work is not scratch

    def test_diagonal_is_in_place(self, rng):
        tensor = random_tensor(3, rng)
        work = tensor.copy()
        scratch = np.empty_like(work)
        kernel = compile_matrix(gates.rz(0.7).matrix, (1,), 3)
        result, result_scratch = kernel.apply(work, scratch)
        assert result is work
        assert result_scratch is scratch

    def test_controlled_touches_only_control_slice(self, rng):
        tensor = random_tensor(3, rng)
        work = tensor.copy()
        scratch = np.empty_like(work)
        kernel = compile_matrix(gates.cx().matrix, (0, 1), 3)
        result, _ = kernel.apply(work, scratch)
        assert result is work
        # The control-0 half must be bitwise untouched.
        assert np.array_equal(result[0], tensor[0])


class TestGateKernelCache:
    def test_cache_shared_by_gate_key(self):
        a = kernel_for_gate(gates.x(), (1,), 4)
        b = kernel_for_gate(gates.standard_gate("x"), (1,), 4)
        assert a is b

    def test_cache_distinguishes_placement_and_width(self):
        a = kernel_for_gate(gates.x(), (0,), 4)
        assert kernel_for_gate(gates.x(), (1,), 4) is not a
        assert kernel_for_gate(gates.x(), (0,), 5) is not a

    def test_error_operators_hit_the_same_cache(self):
        from repro.core.events import ErrorEvent

        event = ErrorEvent(layer=0, qubit=2, pauli="x")
        assert kernel_for_gate(event.gate, (2,), 5) is kernel_for_gate(
            gates.x(), (2,), 5
        )

    def test_many_circuits_stay_within_the_bound(self):
        """400 distinct random 5-qubit circuits, as a ``repro serve``
        daemon meets them, keep the cache at or under its bound; unbounded,
        they left 3,504 entries."""
        clear_kernel_cache()
        rng = np.random.default_rng(26)
        model = NoiseModel.uniform(0.01)
        try:
            for seed in range(400):
                circuit = random_circuit(5, 40, rng)
                NoisySimulator(circuit, model, seed=seed).run(num_trials=16)
                assert kernel_cache_info()["size"] <= KERNEL_CACHE_MAX_ENTRIES
            assert kernel_cache_info()["misses"] > KERNEL_CACHE_MAX_ENTRIES
        finally:
            clear_kernel_cache()

    def test_a_table1_pass_evicts_nothing(self):
        clear_kernel_cache()
        for name in benchmark_names():
            circuit, model = resolve_benchmark(name)
            NoisySimulator(circuit, model, seed=11).run(num_trials=1024)
        info = kernel_cache_info()
        assert info["misses"] == info["size"] <= KERNEL_CACHE_MAX_ENTRIES

    def test_concurrent_misses_keep_the_bound(self, monkeypatch):
        """Threads that miss at once evict under one lock: no thread fails
        on an entry another already evicted, and the cache never passes
        its bound."""
        monkeypatch.setattr(kernels, "KERNEL_CACHE_MAX_ENTRIES", 8)
        clear_kernel_cache()
        errors, sizes = [], []

        def miss(offset):
            try:
                for step in range(300):
                    kernel_for_gate(gates.rz(offset + 1e-3 * step), (0,), 2)
                    sizes.append(kernel_cache_info()["size"])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=miss, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            clear_kernel_cache()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(sizes) == 4 * 300
        assert max(sizes) <= 8

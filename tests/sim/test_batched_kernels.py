"""Kernel layouts: strided input equals contiguous input, bit for bit.

The contiguous fast paths (the diagonal's pre-broadcast block, the
two-product dense form on its ``(pre, 2, post)`` view) must match the
general strided fallbacks exactly (``array_equal``, not ``allclose``) —
they reorder axes, never the per-element arithmetic.
:class:`TestLayoutSweep` walks every kernel class over every target
position on both sides of ``DENSE_PRODUCT_MIN_QUBITS`` and holds every
result ``allclose`` to the interpreted ``apply_gate_matrix``.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.sim.kernels import (
    DENSE_PRODUCT_MIN_QUBITS,
    ControlledKernel,
    DenseKernel,
    DiagonalKernel,
    PermutationKernel,
)
from repro.sim.statevector import (
    StateLayoutError,
    apply_gate_matrix,
    require_state_layout,
)


def random_unitary(dim, rng):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, _ = np.linalg.qr(raw)
    return unitary


def random_phase_permutation(dim, rng):
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    phases = np.exp(1j * rng.standard_normal(dim))
    matrix[rng.permutation(dim), np.arange(dim)] = phases
    return matrix


def controlled_matrix(inner):
    matrix = np.eye(4, dtype=np.complex128)
    matrix[2:, 2:] = inner
    return matrix


def _sweep_kernel(name, num_qubits, target, rng):
    """``(kernel, full matrix, qubits)`` of one sweep class at ``target``.

    Two-qubit classes pair the target with the qubit before it (wrapping),
    so the placement is descending everywhere but at target 0.
    """
    pair = (target, (target - 1) % num_qubits)
    if name == "diagonal-1q":
        matrix = np.diag(np.exp(1j * rng.standard_normal(2)))
        return DiagonalKernel(matrix, (target,), num_qubits), matrix, (target,)
    if name == "diagonal-2q":
        matrix = np.diag(np.exp(1j * rng.standard_normal(4)))
        return DiagonalKernel(matrix, pair, num_qubits), matrix, pair
    if name == "permutation":
        matrix = random_phase_permutation(4, rng)
        return PermutationKernel(matrix, pair, num_qubits), matrix, pair
    if name == "dense-1q":
        matrix = random_unitary(2, rng)
        return DenseKernel(matrix, (target,), num_qubits), matrix, (target,)
    if name == "dense-2q":
        matrix = random_unitary(4, rng)
        return DenseKernel(matrix, pair, num_qubits), matrix, pair
    inner = (
        random_unitary(2, rng)
        if name == "controlled-dense"
        else random_phase_permutation(2, rng)
    )
    qubits = (pair[1], target)
    kernel = ControlledKernel(inner, qubits[:1], qubits[1:], num_qubits)
    return kernel, controlled_matrix(inner), qubits


SWEEP_CLASSES = (
    "diagonal-1q",
    "diagonal-2q",
    "permutation",
    "dense-1q",
    "dense-2q",
    "controlled-dense",
    "controlled-permutation",
)
SWEEP_WIDTHS = sorted(
    {5, DENSE_PRODUCT_MIN_QUBITS - 1, DENSE_PRODUCT_MIN_QUBITS, 14}
)


@lru_cache(maxsize=None)
def sweep_states(num_qubits, count=3):
    """Random states of one width, shared read-only by every sweep case."""
    rng = np.random.default_rng(num_qubits)
    shape = (2,) * num_qubits
    states = []
    for _ in range(count):
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        state /= np.linalg.norm(state)
        state.setflags(write=False)
        states.append(state)
    return tuple(states)


def strided(array):
    """A non-contiguous copy of ``array`` (every other element of a buffer
    twice its size)."""
    wide = np.empty(array.shape + (2,), dtype=array.dtype)
    view = wide[..., 0]
    view[...] = array
    assert not view.flags.c_contiguous
    return view


class TestLayoutSweep:
    """Every class, every target, both sides of the two-product width.

    Random complex unitaries on random states: strided input (state and
    scratch both strided) equals contiguous input bitwise, and every
    result is ``allclose`` to the interpreted ``apply_gate_matrix``.
    """

    @pytest.mark.parametrize("num_qubits", SWEEP_WIDTHS, ids=lambda n: f"{n}q")
    @pytest.mark.parametrize("name", SWEEP_CLASSES)
    def test_every_target(self, name, num_qubits):
        rng = np.random.default_rng(
            [SWEEP_CLASSES.index(name), num_qubits]
        )
        for target in range(num_qubits):
            kernel, matrix, qubits = _sweep_kernel(name, num_qubits, target, rng)
            context = (name, num_qubits, qubits)
            for state in sweep_states(num_qubits):
                # A copy: from DENSE_PRODUCT_MIN_QUBITS a one-qubit dense
                # kernel consumes its input.
                serial, _ = kernel.apply(state.copy(), np.empty_like(state))
                out, _ = kernel.apply(
                    strided(state), strided(np.empty_like(state))
                )
                assert np.array_equal(serial, out), context
                expected = apply_gate_matrix(state, matrix, qubits)
                assert np.allclose(serial, expected), context


class TestStateLayout:
    def test_accepts_contiguous_complex128(self):
        state = np.zeros((2, 2, 2), dtype=np.complex128)
        require_state_layout(state, "test")  # should not raise

    def test_rejects_wrong_dtype(self):
        state = np.zeros((2, 2, 2), dtype=np.complex64)
        with pytest.raises(StateLayoutError, match="complex128"):
            require_state_layout(state, "test")

    def test_rejects_noncontiguous(self):
        wide = np.zeros((2, 2, 4), dtype=np.complex128)
        view = wide[..., ::2]
        assert not view.flags.c_contiguous
        with pytest.raises(StateLayoutError, match="C-contiguous"):
            require_state_layout(view, "test")

"""Batched kernel application: bit-exactness across the trial axis.

The wavefront executor's correctness rests on one property per kernel
class: ``apply_batch`` on a batch-last ``(2,)*n + (B,)`` array produces,
in every column, the **bit-identical** amplitudes of serial ``apply`` on
that column alone (``array_equal``, not ``allclose``).  The collapsed
fast paths (contiguous diagonal broadcast, reshaped low-rank dense
einsum, two-product dense form) must match their general fallbacks
exactly as well — they reorder axes, never the per-element arithmetic.
:class:`TestLayoutSweep` walks every kernel class over every target
position on both sides of ``DENSE_PRODUCT_MIN_QUBITS``.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.circuits import gates
from repro.sim.kernels import (
    DENSE_PRODUCT_MIN_QUBITS,
    ControlledKernel,
    DenseKernel,
    DiagonalKernel,
    PermutationKernel,
    kernel_for_gate,
)
from repro.sim.statevector import (
    StateLayoutError,
    apply_gate_matrix,
    require_state_layout,
)

BATCH_WIDTHS = (1, 2, 7, 64)


def random_batch(num_qubits, width, rng):
    shape = (2,) * num_qubits + (width,)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for j in range(width):
        block[..., j] /= np.linalg.norm(block[..., j])
    return np.ascontiguousarray(block, dtype=np.complex128)


def apply_serial_per_column(kernel, batch):
    """Reference: peel each column out contiguously and apply serially."""
    out = np.empty_like(batch)
    for j in range(batch.shape[-1]):
        # .copy() (not ascontiguousarray): the j-slice of a width-1 batch
        # is already contiguous, and a view would let in-place kernels
        # mutate the shared batch.
        column = batch[..., j].copy()
        scratch = np.empty_like(column)
        result, _ = kernel.apply(column, scratch)
        out[..., j] = result
    return out


def apply_batched(kernel, batch):
    work = batch.copy()
    scratch = np.empty_like(work)
    result, _ = kernel.apply_batch(work, scratch)
    return result


def assert_batch_bit_identical(kernel, num_qubits, rng, widths=BATCH_WIDTHS):
    for width in widths:
        batch = random_batch(num_qubits, width, rng)
        expected = apply_serial_per_column(kernel, batch)
        actual = apply_batched(kernel, batch)
        assert actual.shape == batch.shape
        assert np.array_equal(expected, actual), (
            kernel.kind, kernel.qubits, width,
        )


# (kind, gate factory, qubit placements) — placements include reversed and
# non-adjacent orders so the axis-order bookkeeping is exercised.
KERNEL_CASES = [
    ("diagonal-1q", lambda: gates.standard_gate("t"), [(0,), (2,), (5,)]),
    (
        "diagonal-2q",
        lambda: gates.standard_gate("rzz", (0.7,)),
        [(0, 1), (4, 1), (1, 4)],
    ),
    ("permutation-1q", lambda: gates.x(), [(0,), (3,), (5,)]),
    ("permutation-2q", lambda: gates.swap(), [(0, 5), (4, 2)]),
    ("dense-1q", lambda: gates.standard_gate("h"), [(0,), (3,), (5,)]),
    (
        "dense-2q",
        lambda: gates.standard_gate("u3", (0.2, 0.5, 1.3)),
        [(2,)],
    ),
]


class TestKernelClasses:
    @pytest.mark.parametrize(
        "label,factory,placements", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES]
    )
    def test_apply_batch_equals_per_column(self, label, factory, placements):
        rng = np.random.default_rng(13)
        num_qubits = 6
        gate = factory()
        for qubits in placements:
            kernel = kernel_for_gate(gate, qubits, num_qubits)
            assert_batch_bit_identical(kernel, num_qubits, rng)

    @pytest.mark.parametrize("qubits", [(1,), (0, 3), (3, 0), (2, 5)])
    def test_dense_random_unitary(self, qubits):
        rng = np.random.default_rng(29)
        dim = 2 ** len(qubits)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        unitary, _ = np.linalg.qr(raw)
        kernel = DenseKernel(unitary, qubits, 6)
        assert_batch_bit_identical(kernel, 6, rng)

    @pytest.mark.parametrize(
        "controls,targets",
        [((0,), (2,)), ((3,), (1,)), ((0, 4), (2,)), ((5,), (0,))],
    )
    def test_controlled_random_inner(self, controls, targets):
        rng = np.random.default_rng(31)
        dim = 2 ** len(targets)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        unitary, _ = np.linalg.qr(raw)
        kernel = ControlledKernel(unitary, controls, targets, 6)
        assert kernel.kind == "controlled"
        assert_batch_bit_identical(kernel, 6, rng)

    def test_cx_ccx_as_compiled(self):
        rng = np.random.default_rng(37)
        for gate, qubits in [
            (gates.cx(), (0, 2)),
            (gates.cx(), (3, 1)),
            (gates.ccx(), (0, 2, 4)),
        ]:
            kernel = kernel_for_gate(gate, qubits, 6)
            assert_batch_bit_identical(kernel, 6, rng, widths=(1, 7))


class TestFastPathsMatchFallbacks:
    """The collapsed contiguous paths and the general strided fallbacks
    must be bit-equal: a non-contiguous view of the same data takes the
    fallback branch, a fresh contiguous copy takes the fast path."""

    def _noncontiguous_copy(self, batch):
        wide = np.empty(batch.shape[:-1] + (2 * batch.shape[-1],), dtype=batch.dtype)
        view = wide[..., :: 2]
        view[...] = batch
        assert not view.flags.c_contiguous
        return view

    @pytest.mark.parametrize("qubits", [(0,), (1, 4), (4, 1)])
    def test_diagonal_collapsed_vs_strided(self, qubits):
        rng = np.random.default_rng(41)
        phases = np.exp(1j * rng.standard_normal(2 ** len(qubits)))
        kernel = DiagonalKernel(np.diag(phases), qubits, 6)
        batch = random_batch(6, 7, rng)
        fast = apply_batched(kernel, batch)
        strided = self._noncontiguous_copy(batch)
        scratch = np.empty_like(strided)
        result, _ = kernel.apply_batch(strided, scratch)
        assert np.array_equal(fast, result)

    @pytest.mark.parametrize("qubits", [(2,), (0, 4), (4, 0)])
    def test_dense_reshaped_vs_full_rank(self, qubits):
        rng = np.random.default_rng(43)
        dim = 2 ** len(qubits)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        unitary, _ = np.linalg.qr(raw)
        kernel = DenseKernel(unitary, qubits, 6)
        batch = random_batch(6, 7, rng)
        fast = apply_batched(kernel, batch)
        strided = self._noncontiguous_copy(batch)
        scratch = np.empty_like(batch)  # contiguous scratch, strided input
        result, _ = kernel.apply_batch(strided, scratch)
        assert np.array_equal(fast, result)

    def test_permutation_batch_is_apply(self):
        # Permutations share one strided loop: apply_batch IS apply.
        kernel = PermutationKernel(gates.swap().matrix, (1, 4), 6)
        assert kernel.apply_batch.__func__ is kernel.apply.__func__


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
def sweep_batch(num_qubits, width):
    """One random batch per shape, shared read-only by every sweep case."""
    batch = random_batch(num_qubits, width, np.random.default_rng(num_qubits))
    batch.setflags(write=False)
    return batch


def strided(array):
    """A non-contiguous view holding ``array`` (every other element of the
    last axis of a wider buffer)."""
    wide = np.empty(array.shape[:-1] + (2 * array.shape[-1],), dtype=array.dtype)
    view = wide[..., ::2]
    view[...] = array
    assert not view.flags.c_contiguous
    return view


class TestLayoutSweep:
    """Every class, every target, both sides of the two-product width.

    Random complex unitaries, batch widths 1/2/7/64, contiguous and
    strided input: each batched column equals serial ``apply`` bitwise,
    every strided fallback equals its contiguous fast path bitwise, and
    every result is ``allclose`` to the interpreted ``apply_gate_matrix``.
    """

    @pytest.mark.parametrize("num_qubits", SWEEP_WIDTHS, ids=lambda n: f"{n}q")
    @pytest.mark.parametrize("name", SWEEP_CLASSES)
    def test_every_target(self, name, num_qubits):
        rng = np.random.default_rng(
            [SWEEP_CLASSES.index(name), num_qubits]
        )
        for target in range(num_qubits):
            kernel, matrix, qubits = _sweep_kernel(name, num_qubits, target, rng)
            for width in BATCH_WIDTHS:
                batch = sweep_batch(num_qubits, width)
                context = (name, num_qubits, qubits, width)
                serial = apply_serial_per_column(kernel, batch)
                batched = apply_batched(kernel, batch)
                assert np.array_equal(serial, batched), context
                view = strided(batch)
                result, _ = kernel.apply_batch(view, np.empty_like(view))
                assert np.array_equal(batched, result), context
                # Serial strided input (state and scratch both strided),
                # and the interpreted oracle, on the first and last column.
                for j in {0, width - 1}:
                    column = strided(batch[..., j, None])[..., 0]
                    spare = strided(np.empty_like(batch[..., j, None]))[..., 0]
                    out, _ = kernel.apply(column, spare)
                    assert np.array_equal(serial[..., j], out), context
                    expected = apply_gate_matrix(batch[..., j], matrix, qubits)
                    assert np.allclose(serial[..., j], expected), context


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

"""Compiled gate kernels: classify once, apply in place forever.

The interpreted hot path (:func:`repro.sim.statevector.apply_gate_matrix`)
re-derives everything on every application: it rescans the matrix for
diagonality, rebuilds broadcast shapes, and allocates a fresh ``2**n``
tensor per gate.  A :class:`Kernel` hoists all of that to compile time.
Each gate of a circuit is classified **once** into the cheapest applicable
kernel class and every per-application quantity (broadcast diagonal,
permutation moves, einsum subscripts, control-slice indices) is
precomputed, so the steady state is a handful of numpy calls writing into
preallocated buffers — nothing is allocated per gate.

Kernel taxonomy (classification priority top to bottom):

``diagonal``
    The matrix is diagonal (rz, z, s, t, cz, cu1, rzz, ...), or the 1-D
    product of a layer's diagonals (:mod:`repro.sim.compiled`).  Applied
    as a single in-place broadcast multiply: ``tensor *= diag``, with the
    factor pre-broadcast over the trailing ``2**DIAGONAL_BLOCK_QUBITS``
    amplitudes so the inner loop is long wherever the targets sit.
``controlled``
    Identity except a bottom-right block — a gate on the trailing target
    qubits fired only when all leading control qubits are 1 (cx, ccx, ch,
    cswap, ...).  Applied to the control slice only, touching ``2**(n-c)``
    amplitudes instead of ``2**n``; the inner block is itself compiled
    recursively (so a CX costs one slice-permutation of half the state).
``permutation``
    One nonzero of unit modulus per column (x, y, swap).  Applied as
    ``2**k`` strided copy/scale moves into the scratch buffer, then the
    buffers are swapped — no contraction at all.
``dense``
    Everything else (h, sx, u3, rxx, Haar-random su4, fused runs).  A
    preplanned ``einsum`` contraction into the scratch buffer, except a
    one-target kernel at ``num_qubits >= DENSE_PRODUCT_MIN_QUBITS``: it
    computes each output amplitude as ``u[i,0]*x0 + u[i,1]*x1`` — two
    complex products with the scalar gate entries and one add — as numpy
    ufuncs on the ``(pre, 2, post)`` view of the state.  A kernel over
    all of two or more qubits in ascending order (a whole layer's
    unitary, see :mod:`repro.sim.compiled`) is one ``np.dot``
    matrix-vector product into the scratch buffer.

Apply contract
--------------
``kernel.apply(tensor, scratch)`` returns ``(tensor, scratch)`` *possibly
swapped*: kernels that write out of place return the scratch as the new
state tensor and the old tensor as the new scratch.  Both arrays must have
shape ``(2,) * num_qubits`` and be distinct.  Callers thread the pair
through a kernel sequence and adopt the final ``tensor``.  An out-of-place
kernel may **consume** its input: the two-product dense form uses the old
tensor as working space, so after a swap its contents are undefined —
keep a copy of anything still needed.  No kernel keeps a temporary of its
own; the kernel cache is shared by every thread of the process.

The module-level :func:`kernel_for_gate` cache is keyed by
:attr:`Gate._key` (name, arity, params, rounded matrix bytes) plus the
qubit placement, so error-injection operators and circuit gates share one
compilation cache across all circuits of the same width.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate

__all__ = [
    "Kernel",
    "KernelCost",
    "DiagonalKernel",
    "PermutationKernel",
    "ControlledKernel",
    "DenseKernel",
    "compile_matrix",
    "diagonal_bytes",
    "kernel_for_gate",
    "kernel_cost",
    "kernel_cache_info",
    "controlled_split",
    "is_permutation_matrix",
    "clear_kernel_cache",
]

_ATOL = 1e-12

#: Widths from which a one-target :class:`DenseKernel` computes each output
#: as two products and an add instead of an ``einsum``; measured per
#: target with :func:`repro.perf.kernel_microbench` (docs/architecture.md
#: §9).  Below it the einsum's lower per-call cost wins.
DENSE_PRODUCT_MIN_QUBITS = 10

#: log2 of the trailing amplitude block a :class:`DiagonalKernel`
#: pre-broadcasts its factor over (the whole state below this width).
DIAGONAL_BLOCK_QUBITS = 8

#: Widths up to which a compiled segment applies each layer as one
#: matrix-vector product with the layer's ``2**n x 2**n`` unitary instead
#: of the layer's gate kernels; measured with the ``layer`` class of
#: :func:`repro.perf.kernel_microbench` (docs/architecture.md §9).  Above
#: it one product costs about as much as a layer's kernels.
LAYER_PRODUCT_MAX_QUBITS = 6

#: Byte cap on a circuit's layer unitaries (``16 * 4**n`` bytes a layer),
#: and on its layers' fused diagonals (:func:`diagonal_bytes` each): a
#: narrow circuit whose unitaries would hold more keeps its layers' gate
#: kernels, and a circuit whose fused diagonals would, each gate's own.
LAYER_PRODUCT_MAX_BYTES = 4 << 20

#: index tuple addressing a sub-array: ints on some axes, full slices elsewhere
_Index = Tuple[object, ...]


def _basis_index(bits: int, qubits: Sequence[int], num_qubits: int) -> _Index:
    """Index tuple selecting the sub-array where ``qubits`` read ``bits``.

    ``bits`` follows the matrix convention: ``qubits[0]`` is the most
    significant bit.  Fixed axes use length-1 slices (not ints) so the
    result is always an array view — even when every axis is fixed —
    which keeps it usable as an ``out=`` target.
    """
    index: List[object] = [slice(None)] * num_qubits
    k = len(qubits)
    for position, qubit in enumerate(qubits):
        bit = (bits >> (k - 1 - position)) & 1
        index[qubit] = slice(bit, bit + 1)
    return tuple(index)


class Kernel:
    """One compiled gate application.  Subclasses fill ``kind`` and apply."""

    __slots__ = ("qubits",)

    kind = "abstract"

    def __init__(self, qubits: Sequence[int]) -> None:
        self.qubits = tuple(qubits)

    def apply(
        self, tensor: np.ndarray, scratch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(qubits={self.qubits})"


def _collapse_axes(
    num_qubits: int, qubits: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """Coalesce the non-target axes of a ``(2,)*n`` tensor.

    Returns ``(shape, diag_shape, post)``: a reshape template where every
    run of consecutive non-target axes is merged into one axis (the
    trailing run's size is returned separately as ``post``), and the
    matching broadcast shape with 1s on the merged axes and 2s on the
    targets.  Reshaping a C-contiguous tensor this way is free, and
    collapsing e.g. 14 axes to 3 makes numpy's broadcast iterator several
    times cheaper per call.
    """
    targets = set(qubits)
    shape: List[int] = []
    diag_shape: List[int] = []
    run = 1
    for axis in range(num_qubits):
        if axis in targets:
            if run > 1:
                shape.append(run)
                diag_shape.append(1)
                run = 1
            shape.append(2)
            diag_shape.append(2)
        else:
            run *= 2
    post = run
    return tuple(shape), tuple(diag_shape), post


class DiagonalKernel(Kernel):
    """Diagonal gate as one in-place broadcast multiply.

    ``matrix`` is the gate's matrix or its diagonal as a 1-D factor, in
    the matrix convention (``qubits[0]`` most significant).
    """

    __slots__ = ("_diag", "_bshape", "_block")

    kind = "diagonal"

    def __init__(
        self, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
    ) -> None:
        super().__init__(qubits)
        k = len(qubits)
        if np.ndim(matrix) == 2:
            matrix = np.diagonal(matrix)
        diagonal = np.ascontiguousarray(
            matrix, dtype=np.complex128
        ).reshape((2,) * k)
        # The diagonal's axes follow the qubits argument order; transpose
        # them into ascending-qubit order so a plain reshape broadcasts.
        order = np.argsort(qubits)
        diagonal = np.ascontiguousarray(np.transpose(diagonal, order))
        shape = [1] * num_qubits
        for qubit in qubits:
            shape[qubit] = 2
        self._diag = diagonal.reshape(shape)
        # Contiguous path: the factor pre-broadcast over the trailing
        # ``2**block`` amplitudes, so numpy's inner loop runs over a long
        # contiguous block wherever the targets sit (a target on the last
        # qubit would otherwise leave an inner loop of 2).  Each
        # amplitude still meets the same factor entry.
        block = min(num_qubits, DIAGONAL_BLOCK_QUBITS)
        lead = num_qubits - block
        bshape, bdiag, run = _collapse_axes(
            lead, [q for q in qubits if q < lead]
        )
        if run > 1:
            bshape, bdiag = bshape + (run,), bdiag + (1,)
        self._bshape = bshape + (1 << block,)
        self._block = np.ascontiguousarray(
            np.broadcast_to(self._diag, tuple(shape[:lead]) + (2,) * block)
        ).reshape(bdiag + (1 << block,))

    def apply(
        self, tensor: np.ndarray, scratch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if tensor.flags.c_contiguous:
            view = tensor.reshape(self._bshape)
            np.multiply(view, self._block, out=view)
            return tensor, scratch
        np.multiply(tensor, self._diag, out=tensor)
        return tensor, scratch


def diagonal_bytes(qubits: Sequence[int], num_qubits: int) -> int:
    """Bytes a :class:`DiagonalKernel` on ``qubits`` holds: its factor,
    and the factor pre-broadcast over the trailing block."""
    block = min(num_qubits, DIAGONAL_BLOCK_QUBITS)
    lead = sum(1 for qubit in qubits if qubit < num_qubits - block)
    return _AMP_BYTES * ((1 << len(qubits)) + (1 << (lead + block)))


class PermutationKernel(Kernel):
    """Phase-permutation gate as ``2**k`` strided moves into scratch."""

    __slots__ = ("_moves",)

    kind = "permutation"

    def __init__(
        self, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
    ) -> None:
        super().__init__(qubits)
        dim = matrix.shape[0]
        moves: List[Tuple[_Index, _Index, complex]] = []
        for column in range(dim):
            rows = np.nonzero(np.abs(matrix[:, column]) > _ATOL)[0]
            if len(rows) != 1:
                raise ValueError("matrix is not a phase permutation")
            row = int(rows[0])
            phase = complex(matrix[row, column])
            moves.append(
                (
                    _basis_index(row, qubits, num_qubits),
                    _basis_index(column, qubits, num_qubits),
                    phase,
                )
            )
        self._moves = tuple(moves)

    def apply(
        self, tensor: np.ndarray, scratch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        for dest, src, phase in self._moves:
            if phase == 1.0:
                scratch[dest] = tensor[src]
            else:
                np.multiply(tensor[src], phase, out=scratch[dest])
        return scratch, tensor


class ControlledKernel(Kernel):
    """Controlled gate applied only to the all-controls-1 slice.

    The inner block is compiled recursively against the sliced view, so
    e.g. CX becomes a permutation over half the state and CH a dense 2x2
    contraction over half the state.  The full tensor is never rewritten,
    so this kernel does not swap buffers.
    """

    __slots__ = ("_ctrl_index", "_inner")

    kind = "controlled"

    def __init__(
        self,
        inner_matrix: np.ndarray,
        controls: Sequence[int],
        targets: Sequence[int],
        num_qubits: int,
    ) -> None:
        super().__init__(tuple(controls) + tuple(targets))
        index: List[object] = [slice(None)] * num_qubits
        for qubit in controls:
            index[qubit] = 1
        self._ctrl_index = tuple(index)
        # Axis numbering inside the sliced view: control axes vanish.
        remaining = [a for a in range(num_qubits) if a not in set(controls)]
        view_targets = tuple(remaining.index(q) for q in targets)
        self._inner = compile_matrix(inner_matrix, view_targets, len(remaining))

    def apply(
        self, tensor: np.ndarray, scratch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        view = tensor[self._ctrl_index]
        result, _ = self._inner.apply(view, scratch[self._ctrl_index])
        if result is not view:
            # Inner kernel wrote out of place into the scratch slice.
            view[...] = result
        return tensor, scratch


class DenseKernel(Kernel):
    """General gate as one preplanned einsum contraction into scratch.

    A one-target kernel at ``num_qubits >= DENSE_PRODUCT_MIN_QUBITS``
    instead computes each output amplitude as ``u[i,0]*x0 + u[i,1]*x1``:
    two complex products with the gate entries and one add, as numpy
    ufuncs on the ``(pre, 2, post)`` view of the state.  That form
    consumes its input (see the module's apply contract).

    A kernel on two or more qubits that are ``0 .. n-1`` in order acts on
    the flat state index directly, so it is one ``np.dot`` of its matrix
    with the flat state into the flat scratch.
    """

    __slots__ = (
        "_gate_tensor", "_gate_sub", "_in_sub", "_out_sub",
        "_rshape", "_rpost", "_factors", "_halves", "_matrix",
    )

    kind = "dense"

    def __init__(
        self, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
    ) -> None:
        super().__init__(qubits)
        k = len(qubits)
        self._gate_tensor = np.ascontiguousarray(
            matrix, dtype=np.complex128
        ).reshape((2,) * (2 * k))
        # Full-width form.  One target keeps the einsum below: its
        # two-term sum is what lets a Pauli frame cross a one-qubit
        # matrix bit-exactly (repro.sim.stabilizer._matrix_safety).
        self._matrix: Optional[np.ndarray] = None
        if k >= 2 and self.qubits == tuple(range(num_qubits)):
            self._matrix = self._gate_tensor.reshape(1 << k, 1 << k)
        # Integer-subscript einsum: state axes are 0..n-1; the gate's k
        # output axes get fresh labels n..n+k-1 and its k input axes take
        # the target-qubit labels, which einsum then contracts away.
        self._gate_sub = [num_qubits + i for i in range(k)] + list(qubits)
        self._in_sub = list(range(num_qubits))
        out_sub = list(range(num_qubits))
        for i, qubit in enumerate(qubits):
            out_sub[qubit] = num_qubits + i
        self._out_sub = out_sub
        # Two-product form: the gate entries as factors over the target
        # axis — ``(u00, u11)`` for the products that land in place,
        # ``(u10, u01)`` for the cross products — the ``(pre, 2)`` head
        # and ``post`` size a contiguous state reshapes to for free, and
        # index views of the two target halves for input that cannot.
        self._rshape: Tuple[int, ...] = ()
        self._rpost = 0
        self._factors: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._halves: Tuple[_Index, ...] = ()
        if k == 1 and num_qubits >= DENSE_PRODUCT_MIN_QUBITS:
            qubit = qubits[0]
            self._rshape = (1 << qubit, 2)
            self._rpost = 1 << (num_qubits - 1 - qubit)
            gate = self._gate_tensor
            self._factors = (
                np.array([gate[0, 0], gate[1, 1]]).reshape(2, 1),
                np.array([gate[1, 0], gate[0, 1]]).reshape(2, 1),
            )
            self._halves = (
                _basis_index(0, qubits, num_qubits),
                _basis_index(1, qubits, num_qubits),
            )

    def _products(
        self, tensor: np.ndarray, scratch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``out_i = x0*u[i,0] + x1*u[i,1]`` into scratch; consumes tensor.

        Every form multiplies each amplitude by the same factor entry and
        adds the same two products, so all are bit-identical.  The cross
        products always overwrite their own operands in place: a product
        written into the *other* half — an overlapping view of the same
        buffer — is rounded differently on some layouts, which would
        break strided == contiguous bit-exactness (``TestLayoutSweep`` in
        ``tests/sim/test_batched_kernels.py``).
        """
        direct, cross = self._factors
        post = self._rpost
        if post > 1 and tensor.flags.c_contiguous and scratch.flags.c_contiguous:
            # Three ufuncs over the whole ``(pre, 2, post)`` view.
            shape = self._rshape + (post,)
            state, out = tensor.reshape(shape), scratch.reshape(shape)
            np.multiply(state, direct, out=out)
            np.multiply(state, cross, out=state)
            np.add(out, state[:, ::-1], out=out)
            return scratch, tensor
        # Strided input, or half-rows of one amplitude (the last qubit),
        # where the whole view would iterate rows of length one but each
        # half is a single strided run: six ufuncs over the halves.
        low, high = self._halves
        x0, x1, y0, y1 = tensor[low], tensor[high], scratch[low], scratch[high]
        np.multiply(x0, direct[0], out=y0)
        np.multiply(x1, direct[1], out=y1)
        np.multiply(x0, cross[0], out=x0)
        np.multiply(x1, cross[1], out=x1)
        np.add(y0, x1, out=y0)
        np.add(y1, x0, out=y1)
        return scratch, tensor

    def _product(
        self, tensor: np.ndarray, scratch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``scratch = U @ tensor`` over the flat index: one ``np.dot``.

        Strided input is flattened into a contiguous copy first and a
        strided output takes the result by assignment, so every layout
        multiplies the same contiguous vector with the same call.
        """
        vector = tensor.reshape(-1)
        if scratch.flags.c_contiguous:
            np.dot(self._matrix, vector, out=scratch.reshape(-1))
        else:
            scratch[...] = np.dot(self._matrix, vector).reshape(scratch.shape)
        return scratch, tensor

    def apply(
        self, tensor: np.ndarray, scratch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._matrix is not None:
            return self._product(tensor, scratch)
        if self._factors is not None:
            return self._products(tensor, scratch)
        np.einsum(
            self._gate_tensor,
            self._gate_sub,
            tensor,
            self._in_sub,
            self._out_sub,
            out=scratch,
        )
        return scratch, tensor


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _is_diagonal_matrix(matrix: np.ndarray) -> bool:
    return bool(
        np.count_nonzero(matrix - np.diag(np.diagonal(matrix))) == 0
    )


def is_permutation_matrix(matrix: np.ndarray, atol: float = _ATOL) -> bool:
    """One nonzero per row and column (unit modulus follows from unitarity)."""
    mask = np.abs(matrix) > atol
    return bool(
        np.all(mask.sum(axis=0) == 1) and np.all(mask.sum(axis=1) == 1)
    )


def controlled_split(
    matrix: np.ndarray, num_qubits: int, atol: float = _ATOL
) -> Optional[Tuple[int, np.ndarray]]:
    """Split a controlled gate into ``(num_controls, inner_block)``.

    Detects the standard leading-control structure: the matrix is the
    identity except for the bottom-right ``2**(k-c)`` block, which acts on
    the trailing target qubits when all ``c`` leading controls read 1.
    Returns the split with the **largest** viable control count (smallest
    active block), or ``None`` when the gate is not of this form.
    """
    dim = matrix.shape[0]
    for controls in range(num_qubits - 1, 0, -1):
        split = dim - 2 ** (num_qubits - controls)
        top_left = matrix[:split, :split]
        if (
            np.all(np.abs(top_left - np.eye(split)) <= atol)
            and np.all(np.abs(matrix[:split, split:]) <= atol)
            and np.all(np.abs(matrix[split:, :split]) <= atol)
        ):
            return controls, np.array(matrix[split:, split:])
    return None


def compile_matrix(
    matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> Kernel:
    """Classify ``matrix`` on ``qubits`` into its cheapest kernel."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    qubits = tuple(qubits)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not act on {k} qubit(s)"
        )
    if _is_diagonal_matrix(matrix):
        return DiagonalKernel(matrix, qubits, num_qubits)
    if k >= 2:
        split = controlled_split(matrix, k)
        if split is not None:
            num_controls, inner = split
            return ControlledKernel(
                inner, qubits[:num_controls], qubits[num_controls:], num_qubits
            )
    if is_permutation_matrix(matrix):
        return PermutationKernel(matrix, qubits, num_qubits)
    return DenseKernel(matrix, qubits, num_qubits)


# ---------------------------------------------------------------------------
# The shared per-gate kernel cache
# ---------------------------------------------------------------------------

#: Entries the shared per-gate kernel cache holds.  A miss past it
#: evicts the oldest entry (insertion order), so a long-lived process that
#: meets many circuits (``repro serve``) stays bounded.  A Table I pass
#: uses 216 entries and qft14 154.
KERNEL_CACHE_MAX_ENTRIES = 1024

_GATE_KERNEL_CACHE: Dict[tuple, Kernel] = {}
# Guards eviction against a concurrent miss; a hit takes no lock.
_CACHE_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0


def kernel_for_gate(
    gate: Gate, qubits: Sequence[int], num_qubits: int
) -> Kernel:
    """Compile (or fetch) the kernel for ``gate`` at a qubit placement.

    Keyed by ``Gate._key`` — name, arity, params and rounded matrix bytes —
    so circuit gates and injected error operators with equal matrices share
    one compiled kernel per placement.  Holds at most
    :data:`KERNEL_CACHE_MAX_ENTRIES` kernels.
    """
    global _CACHE_HITS, _CACHE_MISSES
    key = (gate._key, tuple(qubits), num_qubits)
    kernel = _GATE_KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = compile_matrix(gate.matrix, qubits, num_qubits)
        with _CACHE_LOCK:
            _CACHE_MISSES += 1
            if len(_GATE_KERNEL_CACHE) >= KERNEL_CACHE_MAX_ENTRIES:
                del _GATE_KERNEL_CACHE[next(iter(_GATE_KERNEL_CACHE))]
            _GATE_KERNEL_CACHE[key] = kernel
    else:
        _CACHE_HITS += 1
    return kernel


class KernelCost(NamedTuple):
    """Static per-application cost of one compiled kernel.

    ``flops`` counts real floating-point operations (a complex multiply is
    6 real ops, a complex multiply-add 8) and ``bytes_moved`` the memory
    traffic of one application against a ``2**num_qubits`` complex128
    state.  Both are *model* quantities — deterministic functions of the
    kernel's compiled structure, not measurements — which is exactly what
    makes them usable inside a :class:`~repro.lint.costmodel`
    ResourceCertificate: the same kernel always costs the same.
    """

    flops: int
    bytes_moved: int

    def __add__(self, other: "KernelCost") -> "KernelCost":  # type: ignore[override]
        return KernelCost(
            self.flops + other.flops, self.bytes_moved + other.bytes_moved
        )


#: bytes of one complex128 amplitude
_AMP_BYTES = 16


def kernel_cost(kernel: Kernel, num_qubits: int) -> KernelCost:
    """Static flop/byte cost of applying ``kernel`` to a ``2**n`` state.

    The model mirrors each kernel's ``apply`` body:

    * ``diagonal`` — one in-place broadcast multiply: 6 flops per
      amplitude; every amplitude is read and written once.
    * ``permutation`` — ``2**k`` strided moves of ``2**(n-k)`` amplitudes
      each; a unit-phase move is a pure copy (0 flops), a scaled move is a
      complex scalar multiply (6 flops per amplitude); every amplitude is
      read and written once in total.
    * ``controlled`` — the inner kernel applied to the all-controls-1
      slice, i.e. recursion at ``n - num_controls`` qubits; the untouched
      rest of the state costs nothing.
    * ``dense`` — ``2**k`` complex multiply-adds (8 flops) per output
      amplitude; the state is streamed in and out.  The two-product form
      is priced the same as the einsum, so a certificate does not depend
      on ``DENSE_PRODUCT_MIN_QUBITS``.
    """
    dim = 2**num_qubits
    if isinstance(kernel, DiagonalKernel):
        return KernelCost(6 * dim, 2 * _AMP_BYTES * dim)
    if isinstance(kernel, PermutationKernel):
        per_move = 2 ** (num_qubits - len(kernel.qubits))
        flops = sum(
            0 if phase == 1.0 else 6 * per_move
            for _, _, phase in kernel._moves
        )
        return KernelCost(flops, 2 * _AMP_BYTES * dim)
    if isinstance(kernel, ControlledKernel):
        num_controls = len(kernel.qubits) - len(kernel._inner.qubits)
        return kernel_cost(kernel._inner, num_qubits - num_controls)
    if isinstance(kernel, DenseKernel):
        k = len(kernel.qubits)
        return KernelCost(8 * dim * 2**k, 2 * _AMP_BYTES * dim)
    raise TypeError(f"no cost model for kernel kind {kernel.kind!r}")


def kernel_cache_info() -> Dict[str, int]:
    """Lifetime statistics of the shared per-gate kernel cache.

    ``hits``/``misses`` count :func:`kernel_for_gate` lookups since the
    last :func:`clear_kernel_cache`; ``size`` is the number of distinct
    compiled (gate, placement) entries currently held.
    """
    return {
        "size": len(_GATE_KERNEL_CACHE),
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
    }


def clear_kernel_cache() -> None:
    """Drop every cached compiled kernel (tests / memory pressure)."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _GATE_KERNEL_CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0

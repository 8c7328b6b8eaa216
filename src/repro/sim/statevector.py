"""Full statevector simulation engine.

A :class:`Statevector` holds the ``2**n`` complex amplitudes of an
``n``-qubit register as an ``(2,) * n`` numpy tensor and applies gates with
``tensordot`` contractions — the standard dense full-state technique used by
QX, qHiPSTER and friends, and the "basic operation" (matrix-vector
multiplication) whose count is the paper's computation metric.

Conventions
-----------
Qubit 0 is the **most significant** bit of the computational-basis index
(big-endian): the amplitude of ``|q0 q1 ... q_{n-1}>`` lives at flat index
``q0 * 2**(n-1) + ... + q_{n-1}``.  Bitstrings returned by measurement
follow the same order, so ``"10"`` on two qubits means qubit 0 measured 1.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import GateOp, Measurement, QuantumCircuit
from ..circuits.gates import Gate

__all__ = [
    "StateLayoutError",
    "Statevector",
    "apply_gate_matrix",
    "require_state_layout",
    "run_circuit",
]

_ATOL = 1e-9


class StateLayoutError(TypeError):
    """An amplitude buffer violates the kernel memory-layout contract.

    Every compiled kernel (and the no-copy ``from_buffer`` path) requires
    **C-contiguous complex128** storage.  A
    Fortran-ordered, strided or narrower-dtype array would not fail — it
    would silently degrade: ``reshape`` falls back to a copy, severing
    write-through to the underlying buffer, and kernels would run against
    an implicit converted temporary.  This error names the offending
    dtype and strides instead.
    """


def require_state_layout(array: np.ndarray, context: str) -> None:
    """Raise :class:`StateLayoutError` unless ``array`` is C-contiguous complex128."""
    if array.dtype != np.complex128:
        raise StateLayoutError(
            f"{context}: amplitude buffer must be complex128, got dtype "
            f"{array.dtype} (shape {array.shape}, strides {array.strides})"
        )
    if not array.flags.c_contiguous:
        raise StateLayoutError(
            f"{context}: amplitude buffer must be C-contiguous, got strides "
            f"{array.strides} for shape {array.shape} (itemsize "
            f"{array.itemsize}); a reshape of this buffer would silently "
            f"copy instead of aliasing it"
        )


def _is_diagonal(matrix: np.ndarray) -> bool:
    return bool(np.count_nonzero(matrix - np.diag(np.diagonal(matrix))) == 0)


def apply_gate_matrix(
    tensor: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    diagonal: Optional[bool] = None,
) -> np.ndarray:
    """Apply a ``2**k x 2**k`` unitary to ``qubits`` of a state tensor.

    ``tensor`` has shape ``(2,) * n``; returns a new tensor (the input is
    not modified).  This is one "basic operation" in the paper's metric.

    Diagonal gates (rz, u1, cz, cu1, z, s, t, ...) take a fast path: the
    diagonal is broadcast-multiplied into the amplitudes, avoiding the
    axis-permuting ``tensordot`` contraction.  The result is numerically
    identical (element-wise product vs the same product inside a matmul).

    ``diagonal`` lets callers that already know the matrix structure (a
    :class:`Gate` caches it at construction) skip the per-application scan;
    ``None`` keeps the old behaviour of detecting it from the raw matrix.
    """
    k = len(qubits)
    if diagonal is None:
        diagonal = _is_diagonal(matrix)
    if diagonal:
        num_axes = tensor.ndim
        shape = [1] * num_axes
        for qubit in qubits:
            shape[qubit] = 2
        diagonal = np.diagonal(matrix).reshape((2,) * k)
        # Arrange the diagonal's axes to line up with the target qubits.
        expanded = np.ones(shape, dtype=np.complex128)
        index_order = np.argsort(qubits)
        ordered_axes = [qubits[i] for i in index_order]
        diagonal = np.transpose(diagonal, index_order)
        expanded = diagonal.reshape(
            [2 if axis in ordered_axes else 1 for axis in range(num_axes)]
        )
        return tensor * expanded
    gate_tensor = matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(gate_tensor, tensor, axes=(tuple(range(k, 2 * k)), qubits))
    # tensordot puts the new qubit axes first; restore original axis order.
    return np.moveaxis(moved, tuple(range(k)), qubits)


class Statevector:
    """Mutable ``n``-qubit pure state with gate application and sampling."""

    __slots__ = ("num_qubits", "_tensor")

    def __init__(self, num_qubits: int, tensor: Optional[np.ndarray] = None) -> None:
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        if tensor is None:
            tensor = np.zeros((2,) * self.num_qubits, dtype=np.complex128)
            tensor[(0,) * self.num_qubits] = 1.0
        else:
            tensor = np.asarray(tensor, dtype=np.complex128)
            if tensor.size != 2**self.num_qubits:
                raise ValueError(
                    f"tensor has {tensor.size} amplitudes, expected "
                    f"{2 ** self.num_qubits}"
                )
            tensor = tensor.reshape((2,) * self.num_qubits).copy()
        self._tensor = tensor

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a computational-basis state from a bitstring like ``"010"``."""
        if not label or set(label) - {"0", "1"}:
            raise ValueError(f"bad basis label {label!r}")
        state = cls(len(label))
        state._tensor[(0,) * len(label)] = 0.0
        state._tensor[tuple(int(b) for b in label)] = 1.0
        return state

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "Statevector":
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        num_qubits = int(round(math.log2(amplitudes.size)))
        if 2**num_qubits != amplitudes.size:
            raise ValueError(f"{amplitudes.size} amplitudes is not a power of two")
        norm = np.linalg.norm(amplitudes)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state not normalized (norm {norm})")
        return cls(num_qubits, amplitudes)

    # -- views ------------------------------------------------------------------

    @property
    def tensor(self) -> np.ndarray:
        """The ``(2,) * n`` amplitude tensor (live view)."""
        return self._tensor

    @property
    def vector(self) -> np.ndarray:
        """The flat ``2**n`` amplitude vector (copy-free reshape)."""
        return self._tensor.reshape(-1)

    @classmethod
    def from_buffer(cls, buffer: np.ndarray, num_qubits: int) -> "Statevector":
        """Wrap an existing complex128 buffer *without copying*.

        ``buffer`` must hold exactly ``2**num_qubits`` amplitudes; it is
        reshaped (a view) into the ``(2,) * n`` tensor and becomes the
        state's storage.  Used wherever amplitudes come back from outside
        the executor: a journal replay's finish payloads, a reloaded
        spilled snapshot and a state adopted from the cross-job prefix
        store — mutations write through to the underlying buffer, and
        the state is only valid while the buffer is.

        Raises :class:`StateLayoutError` for non-complex128 or
        non-C-contiguous buffers — the reshape below would silently copy
        such a buffer, breaking the write-through contract.
        """
        require_state_layout(buffer, "Statevector.from_buffer")
        if buffer.size != 2**num_qubits:
            raise ValueError(
                f"buffer has {buffer.size} amplitudes, expected {2 ** num_qubits}"
            )
        state = cls.__new__(cls)
        state.num_qubits = int(num_qubits)
        state._tensor = buffer.reshape((2,) * num_qubits)
        return state

    def copy(self) -> "Statevector":
        dup = Statevector.__new__(Statevector)
        dup.num_qubits = self.num_qubits
        dup._tensor = self._tensor.copy()
        return dup

    def norm(self) -> float:
        return float(np.linalg.norm(self._tensor))

    # -- evolution ---------------------------------------------------------------

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> "Statevector":
        """Apply ``gate`` in place; returns self for chaining."""
        self._check_qubits(qubits, gate.num_qubits)
        self._tensor = apply_gate_matrix(
            self._tensor, gate.matrix, qubits, diagonal=gate.is_diagonal
        )
        return self

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "Statevector":
        self._tensor = apply_gate_matrix(self._tensor, np.asarray(matrix), qubits)
        return self

    def apply_op(self, op: GateOp) -> "Statevector":
        return self.apply_gate(op.gate, op.qubits)

    def _check_qubits(self, qubits: Sequence[int], arity: int) -> None:
        if len(qubits) != arity:
            raise ValueError(f"gate arity {arity} but got qubits {tuple(qubits)}")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for {self.num_qubits} qubits"
                )

    # -- readout -------------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Probability of each computational-basis outcome (length ``2**n``)."""
        return np.abs(self.vector) ** 2

    def probability_of(self, label: str) -> float:
        if len(label) != self.num_qubits or set(label) - {"0", "1"}:
            raise ValueError(f"bad basis label {label!r}")
        return float(abs(self._tensor[tuple(int(b) for b in label)]) ** 2)

    def marginal_probability(self, qubit: int, outcome: int) -> float:
        """Probability that measuring ``qubit`` yields ``outcome``."""
        axes = tuple(i for i in range(self.num_qubits) if i != qubit)
        per_outcome = np.sum(np.abs(self._tensor) ** 2, axis=axes)
        return float(per_outcome[outcome])

    def sample_counts(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
    ) -> Dict[str, int]:
        """Sample ``shots`` measurement outcomes; returns bitstring counts.

        ``qubits`` restricts (and orders) the measured subset; by default all
        qubits are measured in index order.
        """
        from .measurement import sample_outcomes

        outcomes = sample_outcomes(self, shots, rng)
        measured = tuple(range(self.num_qubits)) if qubits is None else tuple(qubits)
        # Vectorized tally: collapse the shots to their distinct basis
        # indices first, then extract the measured bits for those few
        # distinct values only — the Python-level loop is over unique
        # outcomes (<= 2**n), not over shots.
        values, frequencies = np.unique(outcomes, return_counts=True)
        shifts = np.array(
            [self.num_qubits - 1 - q for q in measured], dtype=np.int64
        )
        bit_rows = (values.astype(np.int64)[:, None] >> shifts[None, :]) & 1
        counts: Dict[str, int] = {}
        for row, frequency in zip(bit_rows, frequencies):
            bits = "".join("1" if b else "0" for b in row)
            # Distinct outcomes can collapse to one bitstring when only a
            # subset of qubits is measured.
            counts[bits] = counts.get(bits, 0) + int(frequency)
        return counts

    def measure(
        self, qubit: int, rng: np.random.Generator, collapse: bool = True
    ) -> int:
        """Projectively measure one qubit, collapsing the state in place."""
        p_one = self.marginal_probability(qubit, 1)
        outcome = int(rng.random() < p_one)
        if collapse:
            index = [slice(None)] * self.num_qubits
            index[qubit] = 1 - outcome
            self._tensor[tuple(index)] = 0.0
            norm = np.linalg.norm(self._tensor)
            if norm < _ATOL:
                raise RuntimeError("measurement collapsed to zero-norm state")
            self._tensor /= norm
        return outcome

    def fidelity(self, other: "Statevector") -> float:
        """``|<self|other>|**2``."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        return float(abs(np.vdot(self.vector, other.vector)) ** 2)

    def allclose(self, other: "Statevector", atol: float = 1e-8) -> bool:
        return bool(np.allclose(self.vector, other.vector, atol=atol))

    def equiv_up_to_global_phase(self, other: "Statevector", atol: float = 1e-8) -> bool:
        return self.fidelity(other) > 1.0 - atol

    def __repr__(self) -> str:
        return f"Statevector(qubits={self.num_qubits})"


def run_circuit(
    circuit: QuantumCircuit,
    initial: Optional[Statevector] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Statevector, Dict[int, int]]:
    """Run a (noise-free) circuit; returns the final state and clbit values.

    Mid-circuit measurement is supported here (the plain simulator has no
    reuse constraint); measured clbit values are returned as a dict.
    """
    state = initial.copy() if initial is not None else Statevector(circuit.num_qubits)
    clbits: Dict[int, int] = {}
    for instr in circuit:
        if isinstance(instr, GateOp):
            state.apply_op(instr)
        elif isinstance(instr, Measurement):
            if rng is None:
                rng = np.random.default_rng()
            clbits[instr.clbit] = state.measure(instr.qubit, rng)
    return state, clbits

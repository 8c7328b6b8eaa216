"""Stabilizer (CHP) simulation: the Clifford fast path.

The paper positions its inter-trial optimization as *orthogonal* to
single-trial accelerations such as stabilizer simulation (Sec. II,
refs. [17, 18]).  This module demonstrates the composition: an
Aaronson-Gottesman tableau simulator whose states plug into the same
trial-reordering executor through :class:`StabilizerBackend`.  Because
the injected error operators are Paulis (Clifford), *any* Clifford
circuit — GHZ chains, stabilizer codes, the ``rb``/``bv`` benchmarks —
can be noisily simulated with hundreds of qubits, with the trial
reordering still eliminating the redundant tableau updates.

Tableau layout (Aaronson & Gottesman, PRA 70, 052328): binary matrices
``x`` and ``z`` of shape ``(2n, n)`` plus a phase column ``r``; rows
``0..n-1`` are destabilizers, rows ``n..2n-1`` stabilizers.  All row
updates are numpy-vectorized.

The module also holds the Pauli-frame algebra of the hybrid fast path
(:mod:`repro.core.hybrid`): :class:`PauliFrame` is a deferred Pauli error
that crosses a segment one kernel's matrix at a time, through
:meth:`PauliFrame.try_conjugate_matrix` — the only crossing rule, which
checks bitwise commutation and the odd-phase rule on the very floats the
compiled kernel applies.  :func:`frame_safe_matrix` (and
:func:`frame_safe_gate` over a gate's matrix) says whether *every* frame
crosses a matrix.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _iter_product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import GateOp, Measurement, QuantumCircuit
from ..circuits.gates import Gate
from ..circuits.layers import LayeredCircuit
from .backend import SimulationBackend
from .kernels import is_permutation_matrix

__all__ = [
    "CLIFFORD_GATES",
    "PauliFrame",
    "StabilizerError",
    "StabilizerState",
    "StabilizerBackend",
    "frame_safe_gate",
    "frame_safe_matrix",
    "is_clifford_circuit",
]

#: Gate names the tableau simulator implements directly or by composition.
CLIFFORD_GATES = frozenset(
    ["id", "x", "y", "z", "h", "s", "sdg", "sx", "cx", "cz", "cy", "swap"]
)


class StabilizerError(ValueError):
    """Raised for non-Clifford input."""


def is_clifford_circuit(circuit: QuantumCircuit) -> bool:
    """Whether every gate of ``circuit`` is in the supported Clifford set."""
    return all(
        op.gate.name in CLIFFORD_GATES for op in circuit.gate_ops()
    )


# ---------------------------------------------------------------------------
# Pauli frames: deferred error deltas for the hybrid Clifford fast path
# ---------------------------------------------------------------------------

#: The four exact quarter-turn units ``i**k`` as complex128 scalars.  Every
#: frame phase is one of these; multiplying an amplitude by them is exact
#: in IEEE arithmetic (component swap / sign flip, no rounding).
_UNITS = (
    np.complex128(1.0),
    np.complex128(1.0j),
    np.complex128(-1.0),
    np.complex128(-1.0j),
)

#: Placeholder generator for forced replays; every branch that could draw
#: from it is handed an explicit ``forced_outcome``, so it is never consulted.
_REPLAY_RNG = np.random.default_rng(0)

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_IDENTITY2 = np.eye(2, dtype=np.complex128)


@lru_cache(maxsize=None)
def _local_pauli_matrix(x_bits: Tuple[int, ...], z_bits: Tuple[int, ...]) -> np.ndarray:
    """The exact matrix of ``prod_j X_j^{x_j} Z_j^{z_j}`` on ``len(x_bits)`` qubits.

    Entries are drawn from ``{0, +-1, +-i}`` with no rounding: products of
    the exact generator matrices stay exact.  Memoized; callers only read
    it.
    """
    result = None
    for x_bit, z_bit in zip(x_bits, z_bits):
        factor = _IDENTITY2
        if x_bit:
            factor = _PAULI_X
        if z_bit:
            factor = factor @ _PAULI_Z if x_bit else _PAULI_Z
        result = factor if result is None else np.kron(result, factor)
    return result


#: Generator images are searched, and frame verdicts cached, only for
#: matrices on at most this many qubits.  A wider matrix (the layer
#: unitary of a narrow circuit) has no images, its verdict costs about
#: what building its cache key does, and its distinct keys would grow
#: the caches for the life of the process.
_IMAGE_MAX_QUBITS = 2


def _search_images(matrix: np.ndarray, num_qubits: int) -> Dict:
    """Conjugation images ``M P M^dagger = i^k P'`` for each Pauli generator.

    For every generator ``P`` in ``{X_j, Z_j}`` on the matrix's qubit
    positions, searches the canonical Pauli candidates for ``(x', z', k)``
    such that ``M @ P == _UNITS[k] * (P' @ M)`` holds **bitwise**
    (``np.array_equal``).  Both sides are exact rearrangements of the
    float entries of ``M`` (``P``/``P'`` have one exact-unit entry per
    column/row), so the check itself introduces no rounding: a hit proves
    the commutation identity holds for the stored float matrix exactly.
    Returns a possibly **partial** dict — generators without an image are
    simply absent (e.g. ``t`` maps ``Z`` to ``Z`` but has no ``X`` image),
    which lets frames whose support only touches the safe generators
    still cross the matrix.
    """
    if num_qubits > _IMAGE_MAX_QUBITS:
        return {}
    bit_space = list(_iter_product((0, 1), repeat=num_qubits))
    images: Dict = {}
    for position in range(num_qubits):
        for kind in ("x", "z"):
            bits = tuple(1 if j == position else 0 for j in range(num_qubits))
            zeros = (0,) * num_qubits
            x_bits, z_bits = (bits, zeros) if kind == "x" else (zeros, bits)
            pauli = _local_pauli_matrix(x_bits, z_bits)
            lhs = matrix @ pauli
            nonzero = lhs != 0
            found = None
            for cand_x in bit_space:
                # ``P' @ M`` is M with its rows permuted by the X bits; a
                # candidate whose nonzero pattern differs cannot match.
                flip = int("".join(map(str, cand_x)), 2)
                rows = np.arange(len(matrix)) ^ flip
                if not np.array_equal(nonzero, matrix[rows] != 0):
                    continue
                for cand_z in bit_space:
                    rhs = _local_pauli_matrix(cand_x, cand_z) @ matrix
                    for k in range(4):
                        if np.array_equal(lhs, _UNITS[k] * rhs):
                            found = (cand_x, cand_z, k)
                            break
                    if found:
                        break
                if found:
                    break
            if found is not None:
                images[(position, kind)] = found
    return images


def _exact_entries(matrix: np.ndarray) -> bool:
    """True when every entry of ``matrix`` is exactly in ``{0, +-1, +-i}``."""
    flat = np.asarray(matrix, dtype=np.complex128).reshape(-1)
    allowed = np.zeros(flat.shape, dtype=bool)
    for value in (0.0,) + tuple(_UNITS):
        allowed |= flat == value
    return bool(allowed.all())


_PHASE_TRANSPARENT_CACHE: Dict[bytes, bool] = {}


def _phase_transparent(matrix: np.ndarray) -> bool:
    """True when a global ``i^{+-1}`` factor commutes bitwise through it.

    An odd frame phase swaps the real and imaginary component of *every*
    amplitude.  NumPy's vectorized complex multiply fuses one of the two
    cross products per component (FMA), and the swap exchanges which
    product lands in the fused slot — so ``c * (i*v)`` and ``i * (c*v)``
    can differ by one ulp whenever ``c`` has both a nonzero real and a
    nonzero imaginary part.  Purely real and purely imaginary entries
    keep each fused product on the same operand pair under the swap, so
    a matrix whose entries all satisfy ``re == 0 or im == 0`` is
    transparent to odd phases; anything else (e.g. the ``e^{-i pi/4}``
    diagonal of a device-basis QFT) is not, even on disjoint qubits.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
    key = matrix.tobytes()
    cached = _PHASE_TRANSPARENT_CACHE.get(key)
    if cached is None:
        flat = matrix.reshape(-1)
        cached = bool(((flat.real == 0.0) | (flat.imag == 0.0)).all())
        if matrix.shape[0] <= 1 << _IMAGE_MAX_QUBITS:
            _PHASE_TRANSPARENT_CACHE[key] = cached
    return cached


#: matrix bytes -> (arith_safe, partial images dict); the safety verdict of
#: one float matrix is a pure function of its bytes, so fused kernel
#: products and gate matrices share one cache.
_MATRIX_SAFETY_CACHE: Dict[bytes, Tuple[bool, Dict]] = {}


def _matrix_safety(matrix: np.ndarray) -> Tuple[bool, Dict]:
    """(arithmetic-transfer ok, partial generator images) for a matrix.

    ``arith_safe`` answers: does a bitwise matrix-level commutation
    identity transfer to the kernel-application level?  True when

    * the matrix acts on one qubit — every 1q kernel computes each output
      amplitude from at most a two-term sum (the einsum below
      ``DENSE_PRODUCT_MIN_QUBITS``, ``x0*u[i,0] + x1*u[i,1]`` — two
      products with the operands in that order, then one add — from it
      up), and two-term IEEE sums commute with the operand reorder a Pauli
      induces, or
    * every entry is an exact unit (``{0, +-1, +-i}``) — an exact-entry
      unitary is monomial, so its kernels only copy and unit-scale, or
    * the matrix is a phase permutation (diagonals included) — each
      output amplitude is a single product, and pulling an exact unit
      through a single complex multiply is rounding-free.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
    key = matrix.tobytes()
    cached = _MATRIX_SAFETY_CACHE.get(key)
    if cached is not None:
        return cached
    num_qubits = int(matrix.shape[0]).bit_length() - 1
    arith_safe = (
        num_qubits == 1
        or _exact_entries(matrix)
        or is_permutation_matrix(matrix)
    )
    images = _search_images(matrix, num_qubits) if arith_safe else {}
    result = (arith_safe, images)
    if num_qubits <= _IMAGE_MAX_QUBITS:
        _MATRIX_SAFETY_CACHE[key] = result
    return result


def frame_safe_gate(gate: Gate) -> bool:
    """Whether *any* Pauli frame may cross ``gate`` bit-exactly.

    Three conditions, all decided from the gate's float matrix:

    * every Pauli generator on the gate's qubits has an exact conjugation
      image (``_search_images``),
    * the commutation identity transfers from the matrix level to the
      kernel-application level (``_matrix_safety``), and
    * an odd global frame phase commutes through the kernel
      (:func:`_phase_transparent`) — "any frame" includes ``i^{+-1}``
      frames, which re/im-swap every amplitude.

    Frames whose support only touches a gate's *safe* generators may
    still cross a gate that fails this full check — e.g. a ``Z`` frame
    commutes exactly with the non-Clifford ``t`` — which
    :meth:`PauliFrame.try_conjugate_matrix` decides per frame.

    The cheap phase check runs first, so a matrix it rejects (a QFT's
    controlled phases) never pays for the image search.
    """
    return frame_safe_matrix(gate.matrix)


def frame_safe_matrix(matrix: np.ndarray) -> bool:
    """:func:`frame_safe_gate` for a raw unitary matrix (fused kernels)."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if not _phase_transparent(matrix):
        return False
    arith_safe, images = _matrix_safety(matrix)
    num_qubits = int(matrix.shape[0]).bit_length() - 1
    return arith_safe and len(images) == 2 * num_qubits


def _compose_images(
    images: Dict,
    num_qubits: int,
    x_bits: Tuple[int, ...],
    z_bits: Tuple[int, ...],
) -> Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """Image ``(k, x', z')`` of a local Pauli under ``M . M^dagger``.

    Composes the generator images in the canonical factor order
    ``X_0^{x_0} Z_0^{z_0} X_1^{x_1} Z_1^{z_1}``; the Pauli-product phase
    bookkeeping is exact integer arithmetic mod 4.  Returns ``None`` when
    a needed generator has no image.
    """
    acc_phase = 0
    acc_x = [0] * num_qubits
    acc_z = [0] * num_qubits
    for position in range(num_qubits):
        for kind, present in (("x", x_bits[position]), ("z", z_bits[position])):
            if not present:
                continue
            image = images.get((position, kind))
            if image is None:
                return None
            img_x, img_z, img_k = image
            # acc := acc * image  (i^a X^ax Z^az)(i^b X^bx Z^bz)
            acc_phase += img_k + 2 * sum(
                acc_z[j] & img_x[j] for j in range(num_qubits)
            )
            for j in range(num_qubits):
                acc_x[j] ^= img_x[j]
                acc_z[j] ^= img_z[j]
    return (acc_phase % 4, tuple(acc_x), tuple(acc_z))


class PauliFrame:
    """A deferred Pauli error: ``i^phase * prod_q X_q^{x_q} Z_q^{z_q}``.

    The hybrid executor carries one frame per trie node instead of a full
    materialized statevector: injected Pauli errors left-multiply the
    frame, segment advances conjugate it through each kernel's matrix
    (:meth:`try_conjugate_matrix`), and materialization applies it to the
    shared anchor state with exact arithmetic only (axis flips, sign
    flips, quarter-turn units) — so the materialized amplitudes are
    bit-identical to the serial dense execution.
    """

    __slots__ = ("num_qubits", "x", "z", "phase")

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = int(num_qubits)
        self.x = np.zeros(self.num_qubits, dtype=bool)
        self.z = np.zeros(self.num_qubits, dtype=bool)
        self.phase = 0  # exponent of i, mod 4

    def copy(self) -> "PauliFrame":
        dup = PauliFrame.__new__(PauliFrame)
        dup.num_qubits = self.num_qubits
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        dup.phase = self.phase
        return dup

    @property
    def is_identity(self) -> bool:
        return self.phase == 0 and not self.x.any() and not self.z.any()

    def key(self) -> Tuple:
        """Hashable identity (for materialization memo keys)."""
        return (self.phase, self.x.tobytes(), self.z.tobytes())

    # -- composition ---------------------------------------------------------

    def inject(self, pauli: str, qubit: int) -> None:
        """Left-multiply by an injected Pauli error operator on ``qubit``."""
        if pauli == "x":
            self.x[qubit] ^= True
        elif pauli == "z":
            self.phase = (self.phase + 2 * int(self.x[qubit])) % 4
            self.z[qubit] ^= True
        elif pauli == "y":
            # Y = i X Z: right factor first, then X, then the i.
            self.phase = (self.phase + 2 * int(self.x[qubit]) + 1) % 4
            self.z[qubit] ^= True
            self.x[qubit] ^= True
        else:
            raise StabilizerError(f"not a Pauli error: {pauli!r}")

    def try_conjugate_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> bool:
        """Push the frame through a kernel matrix, ``F <- M F M^dagger``,
        if bit-exactly safe.

        The one way a frame crosses a gate: the hybrid executor crosses
        frames through the *same* entries the compiled segment programs
        apply (:meth:`repro.sim.compiled.CompiledCircuit.matrices`), so
        the commutation identity it relies on is checked against exactly
        the floats the serial path multiplies with.  Only the bits on the
        matrix's qubits change.  Returns ``True`` and mutates the frame on
        success; returns ``False`` with the frame unchanged when the
        matrix is arithmetically unsafe or a generator in the frame's
        support has no exact image.

        A 1-D entry is a layer's fused diagonal, whose gates no X frame
        crosses: it is crossed only by a frame with no X bit on its
        qubits, which it leaves unchanged (a sign flip commutes with a
        single complex multiply bitwise).

        A frame with an odd global phase (``i^{+-1}``) additionally
        requires the matrix to be :func:`_phase_transparent` — even on
        disjoint qubits — because the serial reference bakes the ``i``
        into every amplitude *before* the kernel multiplies, and NumPy's
        fused complex multiply rounds re/im-swapped operands differently
        for entries with both components nonzero.
        """
        if self.phase & 1 and not _phase_transparent(matrix):
            return False
        x_bits = tuple(int(self.x[q]) for q in qubits)
        z_bits = tuple(int(self.z[q]) for q in qubits)
        if not any(x_bits) and not any(z_bits):
            return True
        if np.ndim(matrix) == 1:
            return not any(x_bits)
        arith_safe, images = _matrix_safety(np.asarray(matrix))
        if not arith_safe:
            return False
        image = _compose_images(images, len(qubits), x_bits, z_bits)
        if image is None:
            return False
        delta, new_x, new_z = image
        self.phase = (self.phase + delta) % 4
        for position, qubit in enumerate(qubits):
            self.x[qubit] = bool(new_x[position])
            self.z[qubit] = bool(new_z[position])
        return True

    # -- application ---------------------------------------------------------

    def apply_to_tensor(self, tensor: np.ndarray) -> np.ndarray:
        """Apply the frame to a ``(2,)*n`` amplitude tensor, exactly.

        Returns a fresh C-contiguous array; ``tensor`` is not modified.
        Z factors flip signs on the ``1`` slices, X factors reverse axes,
        and the global ``i^phase`` is an exact quarter-turn — every step
        is rounding-free, so the result is bitwise equal to applying the
        same Paulis through the kernel path.
        """
        out = tensor.copy()
        for qubit in np.nonzero(self.z)[0]:
            index = [slice(None)] * out.ndim
            index[qubit] = 1
            out[tuple(index)] *= -1.0
        x_axes = tuple(int(q) for q in np.nonzero(self.x)[0])
        view = np.flip(out, axis=x_axes) if x_axes else out
        if self.phase:
            return np.ascontiguousarray(view * _UNITS[self.phase])
        return np.ascontiguousarray(view)

    def __repr__(self) -> str:
        paulis = []
        for qubit in range(self.num_qubits):
            xb, zb = bool(self.x[qubit]), bool(self.z[qubit])
            if xb or zb:
                label = "Y" if xb and zb else "X" if xb else "Z"
                paulis.append(f"{label}{qubit}")
        body = ".".join(paulis) if paulis else "I"
        return f"PauliFrame(i^{self.phase} * {body})"


class StabilizerState:
    """An ``n``-qubit stabilizer state as a CHP tableau."""

    __slots__ = ("num_qubits", "x", "z", "r")

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        n = self.num_qubits
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        self.x[np.arange(n), np.arange(n)] = True          # destabilizers X_i
        self.z[n + np.arange(n), np.arange(n)] = True      # stabilizers   Z_i

    def copy(self) -> "StabilizerState":
        dup = StabilizerState.__new__(StabilizerState)
        dup.num_qubits = self.num_qubits
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        dup.r = self.r.copy()
        return dup

    # -- elementary gates ----------------------------------------------------

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit {qubit} out of range for {self.num_qubits} qubits"
            )

    def h(self, qubit: int) -> None:
        self._check_qubit(qubit)
        xa, za = self.x[:, qubit].copy(), self.z[:, qubit].copy()
        self.r ^= xa & za
        self.x[:, qubit], self.z[:, qubit] = za, xa

    def s(self, qubit: int) -> None:
        self._check_qubit(qubit)
        xa, za = self.x[:, qubit], self.z[:, qubit]
        self.r ^= xa & za
        self.z[:, qubit] = za ^ xa

    def sdg(self, qubit: int) -> None:
        # S^dagger = Z S
        self.z_gate(qubit)
        self.s(qubit)

    def x_gate(self, qubit: int) -> None:
        self._check_qubit(qubit)
        self.r ^= self.z[:, qubit]

    def z_gate(self, qubit: int) -> None:
        self._check_qubit(qubit)
        self.r ^= self.x[:, qubit]

    def y_gate(self, qubit: int) -> None:
        self._check_qubit(qubit)
        self.r ^= self.x[:, qubit] ^ self.z[:, qubit]

    def cx(self, control: int, target: int) -> None:
        self._check_qubit(control)
        self._check_qubit(target)
        if control == target:
            raise ValueError("control equals target")
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self.r ^= xc & zt & (xt ^ zc ^ True)
        self.x[:, target] = xt ^ xc
        self.z[:, control] = zc ^ zt

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def cy(self, control: int, target: int) -> None:
        self.sdg(target)
        self.cx(control, target)
        self.s(target)

    def swap(self, a: int, b: int) -> None:
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)

    def sx(self, qubit: int) -> None:
        # sqrt(X) = H S H up to global phase (irrelevant for stabilizers).
        self.h(qubit)
        self.s(qubit)
        self.h(qubit)

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> "StabilizerState":
        name = gate.name
        if name not in CLIFFORD_GATES:
            raise StabilizerError(f"gate {name!r} is not Clifford")
        if name == "id":
            pass
        elif name == "x":
            self.x_gate(*qubits)
        elif name == "y":
            self.y_gate(*qubits)
        elif name == "z":
            self.z_gate(*qubits)
        elif name == "h":
            self.h(*qubits)
        elif name == "s":
            self.s(*qubits)
        elif name == "sdg":
            self.sdg(*qubits)
        elif name == "sx":
            self.sx(*qubits)
        elif name == "cx":
            self.cx(*qubits)
        elif name == "cz":
            self.cz(*qubits)
        elif name == "cy":
            self.cy(*qubits)
        elif name == "swap":
            self.swap(*qubits)
        return self

    def apply_op(self, op: GateOp) -> "StabilizerState":
        return self.apply_gate(op.gate, op.qubits)

    # -- measurement ------------------------------------------------------------

    def _rowsum_into(self, target_row: int, source_row: int) -> None:
        """Row ``target`` *= row ``source`` with correct phase tracking."""
        self.r[target_row] = self._product_phase(
            self.x[target_row],
            self.z[target_row],
            self.r[target_row],
            self.x[source_row],
            self.z[source_row],
            self.r[source_row],
        )
        self.x[target_row] ^= self.x[source_row]
        self.z[target_row] ^= self.z[source_row]

    @staticmethod
    def _product_phase(xh, zh, rh, xi, zi, ri) -> bool:
        """Phase bit of the Pauli product row_i * row_h (CHP's rowsum)."""
        # g(x1,z1,x2,z2) per Aaronson-Gottesman, vectorized over columns.
        x1, z1 = xi.astype(np.int8), zi.astype(np.int8)
        x2, z2 = xh.astype(np.int8), zh.astype(np.int8)
        g = np.zeros_like(x1)
        y_mask = (x1 == 1) & (z1 == 1)
        x_mask = (x1 == 1) & (z1 == 0)
        z_mask = (x1 == 0) & (z1 == 1)
        g[y_mask] = (z2 - x2)[y_mask]
        g[x_mask] = (z2 * (2 * x2 - 1))[x_mask]
        g[z_mask] = (x2 * (1 - 2 * z2))[z_mask]
        total = 2 * int(rh) + 2 * int(ri) + int(g.sum())
        remainder = total % 4
        # For stabilizer-row products the phase is always real (0 or 2).
        # Destabilizer rows can pick up imaginary phases (1 or 3) when
        # rowsummed with their anticommuting stabilizer partner; their
        # phase bit is never read by the algorithm, so any consistent
        # convention works — we round the phase's real sign.
        return remainder >= 2

    def measure(
        self,
        qubit: int,
        rng: np.random.Generator,
        forced_outcome: Optional[int] = None,
    ) -> int:
        """Measure ``qubit`` in the Z basis, collapsing the tableau.

        ``forced_outcome`` substitutes the coin flip for a random result
        (used by tests); it must not be supplied for deterministic
        outcomes.
        """
        self._check_qubit(qubit)
        n = self.num_qubits
        stabilizer_rows = np.nonzero(self.x[n:, qubit])[0]
        if stabilizer_rows.size:
            # Random outcome: some stabilizer anticommutes with Z_qubit.
            pivot = int(stabilizer_rows[0]) + n
            for row in range(2 * n):
                if row != pivot and self.x[row, qubit]:
                    self._rowsum_into(row, pivot)
            # Destabilizer takes the old stabilizer; new stabilizer = Z_q.
            self.x[pivot - n] = self.x[pivot]
            self.z[pivot - n] = self.z[pivot]
            self.r[pivot - n] = self.r[pivot]
            outcome = (
                int(forced_outcome)
                if forced_outcome is not None
                else int(rng.integers(2))
            )
            self.x[pivot] = False
            self.z[pivot] = False
            self.z[pivot, qubit] = True
            self.r[pivot] = bool(outcome)
            return outcome
        # Deterministic outcome: accumulate into a scratch row.
        scratch_x = np.zeros(n, dtype=bool)
        scratch_z = np.zeros(n, dtype=bool)
        scratch_r = False
        for destab_row in range(n):
            if self.x[destab_row, qubit]:
                stab_row = destab_row + n
                scratch_r = self._product_phase(
                    scratch_x,
                    scratch_z,
                    scratch_r,
                    self.x[stab_row],
                    self.z[stab_row],
                    self.r[stab_row],
                )
                scratch_x ^= self.x[stab_row]
                scratch_z ^= self.z[stab_row]
        return int(scratch_r)

    def measure_all(self, rng: np.random.Generator) -> str:
        """Measure every qubit in index order; returns the bitstring."""
        return "".join(
            str(self.measure(qubit, rng)) for qubit in range(self.num_qubits)
        )

    def _forced_replay(
        self, coins: Sequence[int]
    ) -> Tuple[np.ndarray, int]:
        """Replay ``measure_all`` on a copy with explicit coin bits.

        Each random branch consumes the next entry of ``coins`` as its
        forced outcome; deterministic branches consume nothing.  Returns
        the outcome bits (qubit order) and the number of coins consumed.
        """
        scratch = self.copy()
        n = self.num_qubits
        outcomes = np.zeros(n, dtype=np.uint8)
        consumed = 0
        for qubit in range(n):
            forced: Optional[int] = 0
            if scratch.x[n:, qubit].any():
                forced = int(coins[consumed]) if consumed < len(coins) else 0
                consumed += 1
            outcomes[qubit] = scratch.measure(
                qubit, _REPLAY_RNG, forced_outcome=forced
            )
        return outcomes, consumed

    def sample_counts(
        self, shots: int, rng: np.random.Generator
    ) -> Dict[str, int]:
        """Sample ``shots`` full measurements, vectorized over shots.

        Sequential measurement outcomes are affine over GF(2) in the
        random coin bits: which branches are random (and the pivot
        structure) depends only on the coin-independent x/z evolution,
        and phase rows update by XOR.  So ``shots`` independent replays
        collapse to ``k + 1`` forced replays (baseline plus one per
        coin) and one boolean matrix product, tallied via ``np.unique``
        — the same idiom ``Statevector.sample_counts`` uses.
        """
        if shots <= 0:
            return {}
        n = self.num_qubits
        zeros = np.zeros(n, dtype=np.uint8)
        base, num_coins = self._forced_replay(zeros)
        if num_coins == 0:
            bits = "".join(str(int(b)) for b in base)
            return {bits: int(shots)}
        columns = np.zeros((num_coins, n), dtype=np.uint8)
        for coin in range(num_coins):
            unit = zeros.copy()
            unit[coin] = 1
            outcome, _ = self._forced_replay(unit)
            columns[coin] = outcome ^ base
        draws = rng.integers(0, 2, size=(shots, num_coins), dtype=np.uint8)
        parity = (draws.astype(np.int64) @ columns.astype(np.int64)) & 1
        outcomes = base ^ parity.astype(np.uint8)
        unique_rows, tallies = np.unique(outcomes, axis=0, return_counts=True)
        return {
            "".join(str(int(b)) for b in row): int(count)
            for row, count in zip(unique_rows, tallies)
        }

    def to_statevector(self) -> np.ndarray:
        """Dense amplitudes of the stabilized state, shape ``(2**n,)``.

        Projects a deterministic basis state onto the stabilizer group:
        ``v = prod_i (I + S_i) |b>`` where ``b`` comes from a forced
        all-zero-coin replay, then normalizes.  The global phase is fixed
        by the ``b`` amplitude being real positive.  This is the
        check-mode oracle (compare up to global phase) — the hybrid
        executor's bit-exact materialization path never uses it.
        """
        n = self.num_qubits
        base, _ = self._forced_replay(np.zeros(n, dtype=np.uint8))
        tensor = np.zeros((2,) * n, dtype=np.complex128)
        tensor[tuple(int(b) for b in base)] = 1.0
        for row in range(n, 2 * n):
            image = tensor.copy()
            for qubit in np.nonzero(self.z[row])[0]:
                index = [slice(None)] * n
                index[qubit] = 1
                image[tuple(index)] *= -1.0
            x_axes = tuple(int(q) for q in np.nonzero(self.x[row])[0])
            if x_axes:
                image = np.flip(image, axis=x_axes)
            unit = (
                2 * int(self.r[row])
                + int(np.count_nonzero(self.x[row] & self.z[row]))
            ) % 4
            if unit:
                image = image * _UNITS[unit]
            tensor = tensor + image
        vector = tensor.reshape(-1)
        return vector / np.linalg.norm(vector)

    # -- inspection ---------------------------------------------------------------

    def stabilizer_strings(self) -> List[str]:
        """The n stabilizer generators as signed Pauli strings."""
        n = self.num_qubits
        strings = []
        for row in range(n, 2 * n):
            chars = []
            for qubit in range(n):
                xb, zb = self.x[row, qubit], self.z[row, qubit]
                chars.append(
                    "Y" if xb and zb else "X" if xb else "Z" if zb else "I"
                )
            sign = "-" if self.r[row] else "+"
            strings.append(sign + "".join(chars))
        return strings

    def __repr__(self) -> str:
        return f"StabilizerState(qubits={self.num_qubits})"


class StabilizerBackend(SimulationBackend):
    """Tableau execution behind the trial-reordering scheduler.

    Restricted to Clifford circuits (checked at construction); error
    operators are Paulis, so every noise model in this package is
    compatible.  Operation counting matches the other backends: one unit
    per gate application and per injected error.
    """

    def __init__(self, layered: LayeredCircuit) -> None:
        super().__init__(layered)
        not_clifford = sorted(
            {
                op.gate.name
                for layer in layered.layers
                for op in layer
                if op.gate.name not in CLIFFORD_GATES
            }
        )
        if not_clifford:
            raise StabilizerError(
                f"circuit contains non-Clifford gates: {not_clifford}"
            )
        self.live_states = 0
        self.peak_live_states = 0

    def _track_new_state(self) -> None:
        self.live_states += 1
        self.peak_live_states = max(self.peak_live_states, self.live_states)
        if self.recorder:
            self.recorder.gauge("tableau.live", self.live_states)

    def make_initial(self) -> StabilizerState:
        self._track_new_state()
        return StabilizerState(self.layered.num_qubits)

    def copy_state(self, state: StabilizerState) -> StabilizerState:
        self._track_new_state()
        return state.copy()

    def release_state(self, state: StabilizerState) -> None:
        self.live_states -= 1
        if self.recorder:
            self.recorder.gauge("tableau.live", self.live_states)

    def apply_layers(
        self, state: StabilizerState, start_layer: int, end_layer: int
    ) -> None:
        for layer_index in range(start_layer, end_layer):
            for op in self.layered.layers[layer_index]:
                state.apply_op(op)
        self.ops_applied += self.layered.gates_between(start_layer, end_layer)

    def apply_operator(
        self, state: StabilizerState, gate: Gate, qubits: Sequence[int]
    ) -> None:
        state.apply_gate(gate, qubits)
        self.ops_applied += 1

    def finish(self, state: StabilizerState) -> StabilizerState:
        """The final tableau itself, lent to ``on_finish``."""
        return state

    def sample_clbits(
        self,
        payload: StabilizerState,
        measurements: Sequence[Measurement],
        rng: np.random.Generator,
    ) -> Dict[int, int]:
        """One joint measurement outcome from a final stabilizer state."""
        scratch = payload.copy()
        return {
            meas.clbit: scratch.measure(meas.qubit, rng)
            for meas in measurements
        }

"""Compiled-circuit execution: one kernel program per layer, in-place backend.

:class:`CompiledCircuit` turns a :class:`~repro.circuits.layers.LayeredCircuit`
into kernel programs exactly once.  Errors enter only at layer boundaries,
so every range the trial-reordering executor replays is a range of whole
layers: each layer's program is built once, on first use, and the program
of layers ``[s, e)`` is the concatenation of its layers' programs,
memoized per range.  The arithmetic does not depend on where segments
split.

A layer's program follows one rule at every width:

* its diagonal gates that no X or Y frame crosses (:func:`_fuses`: t,
  generic rz, cu1, rzz) become one
  :class:`~repro.sim.kernels.DiagonalKernel` over the union of their
  qubits, built from the product of their diagonals and never from a
  ``2**k x 2**k`` matrix, so a layer of QFT phases is one pass over the
  state.  A circuit whose fused factors together would hold more than
  :data:`~repro.sim.kernels.LAYER_PRODUCT_MAX_BYTES` fuses none;
* every other gate gets its :func:`~repro.sim.kernels.kernel_for_gate`
  kernel, from the cache error-injection operators also go through.  A
  diagonal that some X or Y frame crosses (z, s, sdg, cz) keeps its own
  kernel, so fusing takes no crossing away from an X or Y frame of the
  hybrid Clifford fast path.

Narrow circuits apply one product per layer.  At widths up to
:data:`~repro.sim.kernels.LAYER_PRODUCT_MAX_QUBITS`, when the layers'
``2**n x 2**n`` unitaries fit under ``LAYER_PRODUCT_MAX_BYTES``, a layer's
program is one full-width dense kernel, one matrix-vector product — at 32
amplitudes a gate kernel is nearly all dispatch.  The unitary is built by
the layer's own program at width ``2n`` (:meth:`CompiledCircuit._layer`).

:meth:`CompiledCircuit.matrices` lists what a segment applies, one
``(matrix, qubits)`` entry per kernel: a gate's matrix, a fused diagonal
as its 1-D factor, a narrow layer as its unitary.  The hybrid Clifford
fast path (:mod:`repro.core.hybrid`) conjugates its Pauli frames through
that list, so a frame-safety verdict holds for the very floats the
kernels multiply with.

Per-layer programs never change the paper's accounting: ``ops_applied``
is charged from :meth:`LayeredCircuit.gates_between` (the gate count of
the range), not from the number of kernel applications, and snapshots are
untouched, so ``peak_msv`` is identical to the interpreted path.

:class:`CompiledStatevectorBackend` drives the kernels against the working
state's tensor and one preallocated scratch buffer, threading the
``(tensor, scratch)`` pair through each kernel's ping-pong contract — the
steady state allocates nothing per gate.  It subclasses
:class:`~repro.sim.backend.StatevectorBackend`, so live-state tracking,
``finish`` snapshots and measurement sampling are inherited unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate
from ..circuits.layers import LayeredCircuit
from .backend import StatevectorBackend
from .kernels import (
    LAYER_PRODUCT_MAX_BYTES,
    LAYER_PRODUCT_MAX_QUBITS,
    DenseKernel,
    DiagonalKernel,
    Kernel,
    _is_diagonal_matrix,
    diagonal_bytes,
    kernel_for_gate,
)
from .stabilizer import _matrix_safety
from .statevector import Statevector

__all__ = ["CompiledCircuit", "CompiledStatevectorBackend"]

#: One pass of a layer's program: its matrix, qubits and kernel.
_Entry = Tuple[np.ndarray, Tuple[int, ...], Kernel]


def _fuses(gate: Gate) -> bool:
    """Whether ``gate`` joins its layer's fused diagonal: its matrix is
    diagonal and no X or Y frame crosses it (``_matrix_safety`` finds no
    exact image for an X generator)."""
    matrix = gate.matrix
    if not _is_diagonal_matrix(matrix):
        return False
    _, images = _matrix_safety(matrix)
    return all(kind != "x" for _, kind in images)


def _diagonal_product(ops: Sequence) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """The product of the ops' diagonals, in op order, as one 1-D factor
    over the union of their qubits in ascending order (the first qubit
    most significant)."""
    qubits = tuple(sorted({qubit for op in ops for qubit in op.qubits}))
    factor = np.ones((2,) * len(qubits), dtype=np.complex128)
    for op in ops:
        axes = [qubits.index(qubit) for qubit in op.qubits]
        diagonal = np.diagonal(op.gate.matrix).reshape((2,) * len(axes))
        shape = [1] * len(qubits)
        for axis in axes:
            shape[axis] = 2
        factor *= np.transpose(diagonal, np.argsort(axes)).reshape(shape)
    return factor.reshape(-1), qubits


class CompiledCircuit:
    """Lazy, memoized kernel programs for every layer range of a circuit.

    With a :class:`~repro.obs.recorder.TraceRecorder` attached (the
    compiled backend forwards the executor's recorder here), every
    first-use compilation of a range becomes a ``compile[s,e)`` span
    carrying its kernel and gate counts, and every memoized reuse bumps
    the ``segment.hit`` counter.
    """

    def __init__(self, layered: LayeredCircuit) -> None:
        self.layered = layered
        self.num_qubits = layered.num_qubits
        #: Whether a layer's program is its unitary (module docstring).
        self.layer_products = (
            self.num_qubits <= LAYER_PRODUCT_MAX_QUBITS
            and layered.num_layers * 16 * 4**self.num_qubits
            <= LAYER_PRODUCT_MAX_BYTES
        )
        self._fused: Optional[FrozenSet[int]] = None
        # layer -> (its kernel program, its matrices() entries).
        self._layers: Dict[
            int,
            Tuple[Tuple[Kernel, ...], List[Tuple[np.ndarray, Tuple[int, ...]]]],
        ] = {}
        self._segments: Dict[Tuple[int, int], Tuple[Kernel, ...]] = {}
        self.recorder = None

    def _check_range(self, start_layer: int, end_layer: int) -> None:
        if not 0 <= start_layer <= end_layer <= self.layered.num_layers:
            raise ValueError(
                f"bad layer range [{start_layer}, {end_layer}) for "
                f"{self.layered.num_layers} layer(s)"
            )

    def _fused_layers(self) -> FrozenSet[int]:
        """The layers whose diagonals fuse, decided once for the circuit:
        those where two or more gates fuse, or none when their factors
        together would hold more than ``LAYER_PRODUCT_MAX_BYTES``."""
        if self._fused is None:
            fused, total = set(), 0
            for index, layer in enumerate(self.layered.layers):
                ops = [op for op in layer if _fuses(op.gate)]
                if len(ops) > 1:
                    fused.add(index)
                    union = {qubit for op in ops for qubit in op.qubits}
                    total += diagonal_bytes(union, self.num_qubits)
            self._fused = frozenset(
                fused if total <= LAYER_PRODUCT_MAX_BYTES else ()
            )
        return self._fused

    def _program(self, layer: int, width: int) -> List[_Entry]:
        """Layer ``layer``'s program at ``width`` qubits, in order: each
        gate that does not fuse, then the fused diagonal."""
        fuse = layer in self._fused_layers()
        together: List = []
        program: List[_Entry] = []
        for op in self.layered.layers[layer]:
            if fuse and _fuses(op.gate):
                together.append(op)
            else:
                program.append((
                    op.gate.matrix, op.qubits,
                    kernel_for_gate(op.gate, op.qubits, width),
                ))
        if together:
            factor, qubits = _diagonal_product(together)
            program.append(
                (factor, qubits, DiagonalKernel(factor, qubits, width))
            )
        return program

    def _layer(
        self, layer: int
    ) -> Tuple[Tuple[Kernel, ...], List[Tuple[np.ndarray, Tuple[int, ...]]]]:
        """One layer's kernel program and its ``matrices()`` entries, built
        once.  With layer products, the identity, as a ``2n``-qubit state,
        holds the row index on qubits ``0 .. n-1`` and the column index on
        ``n .. 2n-1``; the layer's program at width ``2n`` acts on the row
        qubits only, so it advances every column ``j`` from the basis state
        ``j`` to the unitary's column ``j``."""
        built = self._layers.get(layer)
        if built is None:
            n = self.num_qubits
            if self.layer_products:
                dim = 1 << n
                tensor = np.eye(dim, dtype=np.complex128).reshape((2,) * 2 * n)
                scratch = np.empty_like(tensor)
                for _, _, kernel in self._program(layer, 2 * n):
                    tensor, scratch = kernel.apply(tensor, scratch)
                unitary = tensor.reshape(dim, dim)
                every = tuple(range(n))
                built = ((DenseKernel(unitary, every, n),), [(unitary, every)])
            else:
                program = self._program(layer, n)
                built = (
                    tuple(kernel for _, _, kernel in program),
                    [(matrix, qubits) for matrix, qubits, _ in program],
                )
            self._layers[layer] = built
        return built

    def matrices(
        self, start_layer: int, end_layer: int
    ) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
        """The ``(matrix, qubits)`` entries layers ``start .. end - 1``
        apply, one per kernel of :meth:`segment`, in order: a gate's
        matrix, a fused diagonal as its 1-D factor, or with layer products
        one unitary per layer on every qubit.

        The hybrid classifier and lint rule P026 conjugate Pauli frames
        through this list, so a frame-safety verdict holds for the very
        floats the kernels multiply with.  Compiles no segment and
        records nothing.
        """
        self._check_range(start_layer, end_layer)
        return [
            entry
            for layer in range(start_layer, end_layer)
            for entry in self._layer(layer)[1]
        ]

    def segment(self, start_layer: int, end_layer: int) -> Tuple[Kernel, ...]:
        """The compiled kernel program for layers ``start .. end - 1``."""
        key = (start_layer, end_layer)
        program = self._segments.get(key)
        recorder = self.recorder
        if program is None:
            self._check_range(start_layer, end_layer)
            if recorder:
                recorder.begin(
                    f"compile[{start_layer},{end_layer})", cat="compile"
                )
            program = tuple(
                kernel
                for layer in range(start_layer, end_layer)
                for kernel in self._layer(layer)[0]
            )
            self._segments[key] = program
            if recorder:
                recorder.end(
                    f"compile[{start_layer},{end_layer})",
                    cat="compile",
                    kernels=len(program),
                    gates=self.layered.gates_between(start_layer, end_layer),
                )
                recorder.counter("segment.compile", 1)
                for kernel in program:
                    recorder.counter(f"kernel.{kernel.kind}", 1)
        elif recorder:
            recorder.counter("segment.hit", 1)
        return program

    def operator_kernel(self, gate: Gate, qubits: Sequence[int]) -> Kernel:
        """Kernel for an injected error operator (same ``Gate._key`` cache)."""
        return kernel_for_gate(gate, qubits, self.num_qubits)

    def stats(self) -> Dict[str, int]:
        """Kernel-kind histogram over all segments compiled so far."""
        histogram: Dict[str, int] = {
            "segments": len(self._segments),
            "kernels": 0,
            "gates": 0,
        }
        for (start, end), program in self._segments.items():
            histogram["kernels"] += len(program)
            histogram["gates"] += self.layered.gates_between(start, end)
            for kernel in program:
                histogram[kernel.kind] = histogram.get(kernel.kind, 0) + 1
        return histogram

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit({self.layered.circuit.name!r}, "
            f"segments={len(self._segments)})"
        )


class CompiledStatevectorBackend(StatevectorBackend):
    """Statevector backend executing compiled kernels in place.

    Drop-in replacement for :class:`StatevectorBackend`: identical
    ``ops_applied`` / ``peak_msv`` accounting and final states ``allclose``
    to the interpreted path (not bit-identical: the kernels round in a
    different order than ``tensordot``).  A single scratch buffer of
    ``2**n`` amplitudes is owned by the backend and shared by all
    kernels — it is only ever used transiently inside one gate
    application.
    """

    def __init__(
        self,
        layered: LayeredCircuit,
        compiled: Optional[CompiledCircuit] = None,
    ) -> None:
        super().__init__(layered)
        if compiled is not None and compiled.layered is not layered:
            raise ValueError("compiled circuit belongs to a different layering")
        self.compiled = compiled if compiled is not None else CompiledCircuit(layered)
        self._scratch = np.empty(
            (2,) * layered.num_qubits, dtype=np.complex128
        )

    def set_recorder(self, recorder) -> None:
        """Attach the recorder to the backend *and* its compiled circuit."""
        self.recorder = recorder
        self.compiled.recorder = recorder

    def _run_kernels(
        self, state: Statevector, kernels: Sequence[Kernel]
    ) -> None:
        tensor = state._tensor
        scratch = self._scratch
        recorder = self.recorder
        if recorder:
            swaps = 0
            for kernel in kernels:
                new_tensor, scratch = kernel.apply(tensor, scratch)
                if new_tensor is not tensor:
                    swaps += 1
                tensor = new_tensor
            if swaps:
                recorder.counter("scratch.swaps", swaps)
        else:
            for kernel in kernels:
                tensor, scratch = kernel.apply(tensor, scratch)
        # Adopt whichever buffer holds the result; the other becomes the
        # backend's scratch for the next application.
        state._tensor = tensor
        self._scratch = scratch

    def apply_layers(
        self, state: Statevector, start_layer: int, end_layer: int
    ) -> None:
        kernels = self.compiled.segment(start_layer, end_layer)
        recorder = self.recorder
        if recorder:
            span = f"kernels[{start_layer},{end_layer})"
            recorder.begin(span, cat="kernel", kernels=len(kernels))
            self._run_kernels(state, kernels)
            recorder.end(span, cat="kernel")
        else:
            self._run_kernels(state, kernels)
        self.ops_applied += self.layered.gates_between(start_layer, end_layer)

    def apply_operator(
        self, state: Statevector, gate: Gate, qubits: Sequence[int]
    ) -> None:
        self._run_kernels(
            state, (self.compiled.operator_kernel(gate, tuple(qubits)),)
        )
        self.ops_applied += 1

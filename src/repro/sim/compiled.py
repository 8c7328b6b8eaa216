"""Compiled-circuit execution: segment kernels, fusion, in-place backend.

:class:`CompiledCircuit` turns a :class:`~repro.circuits.layers.LayeredCircuit`
into kernel programs exactly once.  The trial-reordering executor replays
the same layer ranges thousands of times per experiment (every ``Advance``
of every trial segment), so each requested range is compiled on first use
and memoized:

* the gates of the range are flattened in layer order;
* maximal runs of single-qubit gates on the same qubit (with no
  intervening multi-qubit gate on that qubit) are **fused** into one 2x2
  product, which is then classified like any other matrix — a run of
  phase gates fuses into a single diagonal multiply;
* every remaining gate is classified through the shared
  :func:`~repro.sim.kernels.kernel_for_gate` cache (keyed by
  ``Gate._key``), which error-injection operators also go through.

The first two steps are one fusion pass, whose fused ``(matrix, qubits)``
list :meth:`CompiledCircuit.matrices` returns — the one statement of what
a segment applies.  The kernels are compiled from exactly those matrices,
and the hybrid Clifford fast path (:mod:`repro.core.hybrid`) conjugates
its Pauli frames through the same list without compiling anything.

Narrow circuits apply one product per layer instead.  At widths up to
:data:`~repro.sim.kernels.LAYER_PRODUCT_MAX_QUBITS`, when the layers'
``2**n x 2**n`` unitaries fit under
:data:`~repro.sim.kernels.LAYER_PRODUCT_MAX_BYTES`, each layer's unitary
is built once from that layer's fused matrices, and a segment over
layers ``[s, e)`` is ``e - s`` full-width dense kernels, one
matrix-vector product each — at 32 amplitudes a gate kernel is nearly
all dispatch.  The unitary is built by the serial kernels themselves:
the ``2**n x 2**n`` identity is a ``2n``-qubit state whose first ``n``
qubits carry the row index and last ``n`` the column index, so the
layer's kernels, compiled at width ``2n``, advance it to the unitary.
:meth:`CompiledCircuit.matrices` then returns those unitaries, so the
statement above still holds.  The rule reads only the
circuit, and since every segment applies the same per-layer products,
the arithmetic no longer depends on where segments split.

Fusion never changes the paper's accounting: ``ops_applied`` is charged
from :meth:`LayeredCircuit.gates_between` (the gate count of the range),
not from the number of kernel applications, and snapshots are untouched,
so ``peak_msv`` is identical to the interpreted path.

:class:`CompiledStatevectorBackend` drives the kernels against the working
state's tensor and one preallocated scratch buffer, threading the
``(tensor, scratch)`` pair through each kernel's ping-pong contract — the
steady state allocates nothing per gate.  It subclasses
:class:`~repro.sim.backend.StatevectorBackend`, so live-state tracking,
``finish`` snapshots and measurement sampling are inherited unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate
from ..circuits.layers import LayeredCircuit
from .backend import StatevectorBackend
from .kernels import (
    LAYER_PRODUCT_MAX_BYTES,
    LAYER_PRODUCT_MAX_QUBITS,
    DenseKernel,
    Kernel,
    compile_matrix,
    kernel_cost,
    kernel_for_gate,
)
from .statevector import Statevector

__all__ = ["CompiledCircuit", "CompiledStatevectorBackend"]


def _fuse(ops: Sequence) -> Tuple[List[Tuple], int, int]:
    """Single-qubit-run fusion of a flattened gate-op sequence.

    ``pending[q]`` accumulates a run of single-qubit gates on qubit ``q``.
    A multi-qubit gate flushes the runs of exactly the qubits it touches
    *before* it is emitted (preserving order on those qubits); runs on
    untouched qubits stay pending, which is sound because gates on
    disjoint qubits commute.  A run of several gates becomes their
    left-to-right ``@`` product.

    Returns ``(entries, fused_runs, fused_gates)``: one ``(matrix, qubits,
    gate)`` entry per matrix the sequence applies, in order — ``gate`` is
    the lone gate the matrix came from, or ``None`` for a fused product —
    and how many multi-gate runs were fused and how many gates they
    absorbed in total.
    """
    entries: List[Tuple[np.ndarray, Tuple[int, ...], Optional[Gate]]] = []
    pending: Dict[int, List] = {}  # qubit -> [GateOp, ...] of the run
    fused_runs = 0
    fused_gates = 0

    def flush(qubit: int) -> None:
        nonlocal fused_runs, fused_gates
        run = pending.pop(qubit, None)
        if run is None:
            return
        if len(run) == 1:
            entries.append((run[0].gate.matrix, run[0].qubits, run[0].gate))
            return
        fused = run[0].gate.matrix
        for op in run[1:]:
            fused = op.gate.matrix @ fused
        fused_runs += 1
        fused_gates += len(run)
        entries.append((fused, (qubit,), None))

    for op in ops:
        if op.gate.num_qubits == 1:
            pending.setdefault(op.qubits[0], []).append(op)
        else:
            for qubit in op.qubits:
                flush(qubit)
            entries.append((op.gate.matrix, op.qubits, op.gate))
    for qubit in sorted(pending):
        flush(qubit)
    return entries, fused_runs, fused_gates


def _compile_ops(
    ops: Sequence, num_qubits: int
) -> Tuple[Tuple[Kernel, ...], int, int]:
    """Compile a flattened gate-op sequence: fuse (:func:`_fuse`), then
    classify each matrix — a lone gate through the shared
    :func:`~repro.sim.kernels.kernel_for_gate` cache, a fused product
    through :func:`~repro.sim.kernels.compile_matrix`.

    Returns ``(kernels, fused_runs, fused_gates)``.
    """
    entries, fused_runs, fused_gates = _fuse(ops)
    kernels = [
        compile_matrix(matrix, qubits, num_qubits)
        if gate is None
        else kernel_for_gate(gate, qubits, num_qubits)
        for matrix, qubits, gate in entries
    ]
    return tuple(kernels), fused_runs, fused_gates


class CompiledCircuit:
    """Lazy, memoized kernel programs for every layer range of a circuit.

    With a :class:`~repro.obs.recorder.TraceRecorder` attached (the
    compiled backend forwards the executor's recorder here), every
    first-use compilation becomes a ``compile[s,e)`` span carrying the
    kernel-kind histogram and fusion counts of that segment, and every
    memoized reuse bumps the ``segment.hit`` counter.
    """

    def __init__(self, layered: LayeredCircuit) -> None:
        self.layered = layered
        self.num_qubits = layered.num_qubits
        #: Whether segments apply one product per layer (module docstring).
        self.layer_products = (
            self.num_qubits <= LAYER_PRODUCT_MAX_QUBITS
            and layered.num_layers * 16 * 4**self.num_qubits
            <= LAYER_PRODUCT_MAX_BYTES
        )
        # layer -> its unitary / its full-width kernel, built on first use.
        self._unitaries: Dict[int, np.ndarray] = {}
        self._layer_kernels: Dict[int, Kernel] = {}
        self._segments: Dict[Tuple[int, int], Tuple[Kernel, ...]] = {}
        # key -> (fused_runs, fused_gates), parallel to _segments.
        self._segment_fusion: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # key -> matrices() list, only for ranges a caller asked for.
        self._matrices: Dict[
            Tuple[int, int], List[Tuple[np.ndarray, Tuple[int, ...]]]
        ] = {}
        self._segment_costs: Dict[Tuple[int, int], Dict[str, object]] = {}
        self._segment_kind_costs: Dict[
            Tuple[int, int], Dict[str, Dict[str, int]]
        ] = {}
        self.recorder = None

    def _ops(self, start_layer: int, end_layer: int) -> List:
        """The gate ops of layers ``start .. end - 1``, flattened in order."""
        if not 0 <= start_layer <= end_layer <= self.layered.num_layers:
            raise ValueError(
                f"bad layer range [{start_layer}, {end_layer}) for "
                f"{self.layered.num_layers} layer(s)"
            )
        return [
            op
            for layer in self.layered.layers[start_layer:end_layer]
            for op in layer
        ]

    def _unitary(self, layer: int) -> np.ndarray:
        """The ``2**n x 2**n`` unitary of one layer (layer products only).

        Built once from the layer's fused matrices.  The identity, as a
        ``2n``-qubit state, holds the row index on qubits ``0 .. n-1``
        and the column index on ``n .. 2n-1``; the layer's kernels,
        compiled at width ``2n``, act on the row qubits only, so the
        serial ``apply`` advances every column ``j`` from the basis state
        ``j`` to the unitary's column ``j``.  No kernel spans all ``2n``
        qubits.
        """
        unitary = self._unitaries.get(layer)
        if unitary is None:
            width = 2 * self.num_qubits
            program, _, _ = _compile_ops(self._ops(layer, layer + 1), width)
            dim = 1 << self.num_qubits
            tensor = np.eye(dim, dtype=np.complex128).reshape((2,) * width)
            scratch = np.empty_like(tensor)
            for kernel in program:
                tensor, scratch = kernel.apply(tensor, scratch)
            unitary = tensor.reshape(dim, dim)
            self._unitaries[layer] = unitary
        return unitary

    def _layer_kernel(self, layer: int) -> Kernel:
        """The full-width dense kernel of :meth:`_unitary` (memoized)."""
        kernel = self._layer_kernels.get(layer)
        if kernel is None:
            kernel = DenseKernel(
                self._unitary(layer), range(self.num_qubits), self.num_qubits
            )
            self._layer_kernels[layer] = kernel
        return kernel

    def matrices(
        self, start_layer: int, end_layer: int
    ) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
        """The fused ``(matrix, qubits)`` list layers ``start .. end - 1``
        apply, in order: with layer products, one unitary per layer on
        every qubit.

        The one statement of what a segment applies: :meth:`segment`
        compiles exactly these matrices (both come from :func:`_fuse`),
        and the hybrid classifier and lint rule P026 conjugate Pauli
        frames through them, so a frame-safety verdict holds for the
        very floats the kernels multiply with.  Compiles no segment and
        records nothing; memoized for the ranges a caller asks for.
        """
        key = (start_layer, end_layer)
        matrices = self._matrices.get(key)
        if matrices is None:
            ops = self._ops(start_layer, end_layer)
            if self.layer_products:
                qubits = tuple(range(self.num_qubits))
                matrices = [
                    (self._unitary(layer), qubits)
                    for layer in range(start_layer, end_layer)
                ]
            else:
                entries, _, _ = _fuse(ops)
                matrices = [(matrix, qubits) for matrix, qubits, _ in entries]
            self._matrices[key] = matrices
        return matrices

    def segment(self, start_layer: int, end_layer: int) -> Tuple[Kernel, ...]:
        """The compiled kernel program for layers ``start .. end - 1``."""
        key = (start_layer, end_layer)
        program = self._segments.get(key)
        if program is None:
            ops = self._ops(start_layer, end_layer)
            recorder = self.recorder
            if recorder:
                recorder.begin(
                    f"compile[{start_layer},{end_layer})", cat="compile"
                )
            if self.layer_products:
                program = tuple(
                    self._layer_kernel(layer)
                    for layer in range(start_layer, end_layer)
                )
                fused_runs = fused_gates = 0
            else:
                program, fused_runs, fused_gates = _compile_ops(
                    ops, self.num_qubits
                )
            self._segments[key] = program
            self._segment_fusion[key] = (fused_runs, fused_gates)
            if recorder:
                recorder.end(
                    f"compile[{start_layer},{end_layer})",
                    cat="compile",
                    kernels=len(program),
                    gates=len(ops),
                    fused_runs=fused_runs,
                    fused_gates=fused_gates,
                )
                recorder.counter("segment.compile", 1)
                if fused_runs:
                    recorder.counter("fusion.runs", fused_runs)
                    recorder.counter("fusion.gates", fused_gates)
                for kernel in program:
                    recorder.counter(f"kernel.{kernel.kind}", 1)
        else:
            recorder = self.recorder
            if recorder:
                recorder.counter("segment.hit", 1)
        return program

    def segment_kind_costs(
        self, start_layer: int, end_layer: int
    ) -> Dict[str, Dict[str, int]]:
        """Per-kernel-kind cost split of one layer range — analysis only.

        Maps each kernel kind in the segment's compiled program to its
        ``{"count", "flops", "bytes_moved"}`` share, priced by
        :func:`~repro.sim.kernels.kernel_cost`.  The program comes from
        the same memoized :meth:`segment` path with the recorder
        detached, so static analysis never leaves ``compile`` /
        ``segment.hit`` events in a trace, and runtime replays of the
        range reuse the compiled program.  The profiler uses this split
        to attribute a segment's measured wall time across kernel
        classes by flop share.  Memoized.
        """
        key = (start_layer, end_layer)
        split = self._segment_kind_costs.get(key)
        if split is None:
            recorder = self.recorder
            self.recorder = None
            try:
                program = self.segment(start_layer, end_layer)
            finally:
                self.recorder = recorder
            split = {}
            for kernel in program:
                each = kernel_cost(kernel, self.num_qubits)
                entry = split.setdefault(
                    kernel.kind, {"count": 0, "flops": 0, "bytes_moved": 0}
                )
                entry["count"] += 1
                entry["flops"] += int(each.flops)
                entry["bytes_moved"] += int(each.bytes_moved)
            self._segment_kind_costs[key] = split
        return split

    def segment_cost(self, start_layer: int, end_layer: int) -> Dict[str, object]:
        """Static cost summary of one layer range — analysis only.

        The totals of :meth:`segment_kind_costs` (so the kind split sums
        exactly to the segment's ``flops`` / ``bytes_moved``) plus the
        range's gate count and fusion counts.  Memoized.
        """
        key = (start_layer, end_layer)
        cost = self._segment_costs.get(key)
        if cost is None:
            split = self.segment_kind_costs(start_layer, end_layer)
            fused_runs, fused_gates = self._segment_fusion[key]
            cost = {
                "gates": self.layered.gates_between(start_layer, end_layer),
                "kernels": sum(entry["count"] for entry in split.values()),
                "fused_runs": fused_runs,
                "fused_gates": fused_gates,
                "flops": sum(entry["flops"] for entry in split.values()),
                "bytes_moved": sum(
                    entry["bytes_moved"] for entry in split.values()
                ),
                "kinds": {kind: entry["count"] for kind, entry in split.items()},
            }
            self._segment_costs[key] = cost
        return cost

    def operator_kernel(self, gate: Gate, qubits: Sequence[int]) -> Kernel:
        """Kernel for an injected error operator (same ``Gate._key`` cache)."""
        return kernel_for_gate(gate, qubits, self.num_qubits)

    def stats(self) -> Dict[str, int]:
        """Kernel-kind histogram over all segments compiled so far."""
        histogram: Dict[str, int] = {
            "segments": len(self._segments),
            "kernels": 0,
            "gates": 0,
            "fused_runs": 0,
            "fused_gates": 0,
        }
        for (start, end), program in self._segments.items():
            histogram["kernels"] += len(program)
            histogram["gates"] += self.layered.gates_between(start, end)
            fused_runs, fused_gates = self._segment_fusion.get((start, end), (0, 0))
            histogram["fused_runs"] += fused_runs
            histogram["fused_gates"] += fused_gates
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

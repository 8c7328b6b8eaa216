"""Kernel microbenchmarks: per-class kernel cost and the hybrid's premise.

Two direct timings of single building blocks, each best or median of a
few repeats on this machine:

* :func:`kernel_microbench` times one compiled kernel per class, width
  and target.  The width cutoffs in :mod:`repro.sim.kernels` were read
  from its rows (docs/architecture.md §9).
* :func:`hybrid_microbench` times a Pauli frame crossing a Clifford span
  against the dense kernels for the same span.  CI floors its ratio.

Neither times a request end to end; ``perfbench/`` does, and a speed
claim is a perfbench A/B.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "LAYER_CLASS",
    "MICROBENCH_CLASSES",
    "hybrid_microbench",
    "kernel_microbench",
]


def hybrid_microbench(
    num_qubits: int = 12,
    gates: int = 64,
    repeats: int = 3,
) -> Dict[str, object]:
    """Pauli-frame symbolic span cost vs the dense kernel equivalent.

    Conjugates a Pauli frame through ``gates`` Clifford unitaries (the
    hybrid's symbolic span) plus one final materialization
    (``apply_to_tensor``), versus applying the same unitaries densely to
    a ``num_qubits``-qubit state.  ``ratio`` (dense time / symbolic+
    materialize time) is the CI regression gate: the symbolic path must
    stay decisively cheaper than re-executing the span densely, or the
    hybrid's whole premise is void (gated well below the measured value
    to absorb machine noise).
    """
    from .sim.kernels import DenseKernel
    from .sim.stabilizer import PauliFrame
    from .sim.statevector import Statevector

    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    h_matrix = np.array(
        [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]],
        dtype=np.complex128,
    )
    s_matrix = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=np.complex128)
    cx_matrix = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )
    program: List[tuple] = []
    for g in range(gates):
        kind = g % 3
        if kind == 0:
            program.append((h_matrix, (g % num_qubits,)))
        elif kind == 1:
            program.append((s_matrix, (g % num_qubits,)))
        else:
            program.append(
                (cx_matrix, (g % num_qubits, (g + 1) % num_qubits))
            )

    state = Statevector(num_qubits)
    dense_best = float("inf")
    kernels = [
        DenseKernel(matrix, qubits, num_qubits)
        for matrix, qubits in program
    ]
    for _ in range(max(1, repeats)):
        work = state.tensor.copy()
        spare = np.empty_like(work)
        start = time.perf_counter()
        for kernel in kernels:
            work, spare = kernel.apply(work, spare)
        dense_best = min(dense_best, time.perf_counter() - start)

    symbolic_best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        frame = PauliFrame(num_qubits)
        frame.inject("x", 0)
        for matrix, qubits in program:
            if not frame.try_conjugate_matrix(matrix, qubits):
                raise AssertionError(
                    "hybrid_microbench program must be Clifford"
                )
        frame.apply_to_tensor(state.tensor)
        symbolic_best = min(symbolic_best, time.perf_counter() - start)

    return {
        "num_qubits": num_qubits,
        "gates": gates,
        "dense_s": dense_best,
        "symbolic_s": symbolic_best,
        "ratio": dense_best / symbolic_best if symbolic_best else 0.0,
    }


#: Kernel classes :func:`kernel_microbench` times, in row order.
MICROBENCH_CLASSES = ("dense-1q", "diagonal-2q", "permutation", "controlled")

#: The class of one layer's unitary as a single full-width product (what
#: a segment applies per layer up to ``LAYER_PRODUCT_MAX_QUBITS``).  It
#: has no target, so :func:`kernel_microbench` gives it one row per width,
#: with ``target`` ``None``.
LAYER_CLASS = "layer"


def _microbench_kernel(kind: str, num_qubits: int, target: Optional[int], rng):
    """The compiled kernel one :func:`kernel_microbench` row times.

    Two-qubit classes pair ``target`` with its successor (wrapping to
    qubit 0); ``controlled`` is a random 2x2 unitary on ``target``
    controlled by that neighbour, so its inner kernel is dense;
    ``layer`` is a random ``2**n`` unitary on every qubit.
    """
    from .sim.kernels import DenseKernel, compile_matrix

    if kind == LAYER_CLASS:
        dim = 1 << num_qubits
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        unitary, _ = np.linalg.qr(raw)
        return DenseKernel(unitary, range(num_qubits), num_qubits)
    partner = (target + 1) % num_qubits
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    unitary, _ = np.linalg.qr(raw)
    if kind == "dense-1q":
        return compile_matrix(unitary, (target,), num_qubits)
    if kind == "diagonal-2q":
        phases = np.exp(1j * rng.standard_normal(4))
        return compile_matrix(np.diag(phases), (target, partner), num_qubits)
    if kind == "permutation":
        return compile_matrix(
            np.array([[0, 1], [1, 0]], dtype=np.complex128),
            (target,),
            num_qubits,
        )
    if kind == "controlled":
        matrix = np.eye(4, dtype=np.complex128)
        matrix[2:, 2:] = unitary
        return compile_matrix(matrix, (partner, target), num_qubits)
    raise ValueError(f"unknown kernel class {kind!r}")


def kernel_microbench(
    widths: Sequence[int] = (5, 8, 10, 11, 12, 14),
    repeats: int = 5,
    min_time: float = 2e-3,
    classes: Sequence[str] = MICROBENCH_CLASSES,
) -> List[Dict[str, object]]:
    """Per-class kernel cost at every target position, measured directly.

    For each of ``classes`` (:data:`MICROBENCH_CLASSES` and
    :data:`LAYER_CLASS`), width ``n`` and target qubit, the compiled
    kernel's ``apply`` is timed on a ``2**n`` state.  Each repeat times
    enough calls to last ``min_time`` seconds; a row reports the median
    per-call time over ``repeats`` in microseconds: ``{"class",
    "num_qubits", "target", "us"}``.  ``DENSE_PRODUCT_MIN_QUBITS``,
    ``DIAGONAL_BLOCK_QUBITS`` and ``LAYER_PRODUCT_MAX_QUBITS`` in
    :mod:`repro.sim.kernels` were chosen from these rows
    (docs/architecture.md §9).
    """
    rng = np.random.default_rng(11)
    rows: List[Dict[str, object]] = []
    for kind in classes:
        for num_qubits in widths:
            targets = (None,) if kind == LAYER_CLASS else range(num_qubits)
            for target in targets:
                kernel = _microbench_kernel(kind, num_qubits, target, rng)
                shape = (2,) * num_qubits
                work = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                spare = np.empty_like(work)
                start = time.perf_counter()
                work, spare = kernel.apply(work, spare)
                single = time.perf_counter() - start
                number = max(1, min(10_000, int(min_time / max(single, 1e-7))))
                samples = []
                for _ in range(max(1, repeats)):
                    start = time.perf_counter()
                    for _ in range(number):
                        work, spare = kernel.apply(work, spare)
                    samples.append((time.perf_counter() - start) / number)
                rows.append(
                    {
                        "class": kind,
                        "num_qubits": num_qubits,
                        "target": target,
                        "us": float(np.median(samples)) * 1e6,
                    }
                )
    return rows

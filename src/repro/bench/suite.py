"""The Table I benchmark suite.

Twelve programs, each compiled to IBM's 5-qubit Yorktown device exactly as
in the paper (Sec. V-A).  For every benchmark the suite records the paper's
post-compilation characteristics (qubit / single-gate / CNOT / measurement
counts) next to the counts our compiler produces — our router replaces the
Enfield compiler, so counts match approximately, not exactly; the
evaluation metrics (Figs. 5-6) are computed from *our* compiled circuits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

from ..circuits.circuit import QuantumCircuit
from ..mapping.coupling import yorktown_coupling
from ..mapping.router import compile_for_device
from .bv import bv, bv4, bv5
from .grover import grover3
from .mod15 import seven_x_one_mod15
from .qft import qft, qft4, qft5
from .qv import qv_n5
from .rb import rb2
from .wstate import wstate3

__all__ = [
    "BenchmarkSpec",
    "LARGE_BENCHMARKS",
    "LargeBenchmarkSpec",
    "TABLE1_BENCHMARKS",
    "all_benchmark_names",
    "benchmark_names",
    "build_benchmark",
    "build_compiled_benchmark",
    "export_qasm_suite",
    "large_benchmark_names",
    "resolve_benchmark",
    "table1_rows",
]


class BenchmarkSpec(NamedTuple):
    """One Table I row: a builder plus the paper's reported counts."""

    name: str
    builder: Callable[[], QuantumCircuit]
    paper_qubits: int
    paper_single: int
    paper_cnot: int
    paper_measure: int


TABLE1_BENCHMARKS: Tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec("rb", rb2, 2, 9, 2, 2),
    BenchmarkSpec("grover", grover3, 3, 87, 25, 3),
    BenchmarkSpec("wstate", wstate3, 3, 21, 9, 3),
    BenchmarkSpec("7x1mod15", seven_x_one_mod15, 4, 17, 9, 4),
    BenchmarkSpec("bv4", bv4, 4, 8, 3, 3),
    BenchmarkSpec("bv5", bv5, 5, 10, 4, 4),
    BenchmarkSpec("qft4", qft4, 4, 42, 15, 4),
    BenchmarkSpec("qft5", qft5, 5, 83, 26, 5),
    BenchmarkSpec("qv_n5d2", lambda: qv_n5(2), 5, 44, 12, 5),
    BenchmarkSpec("qv_n5d3", lambda: qv_n5(3), 5, 74, 21, 5),
    BenchmarkSpec("qv_n5d4", lambda: qv_n5(4), 5, 100, 30, 5),
    BenchmarkSpec("qv_n5d5", lambda: qv_n5(5), 5, 130, 36, 5),
)

_BY_NAME: Dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in TABLE1_BENCHMARKS
}


def benchmark_names() -> List[str]:
    """Names of the twelve Table I benchmarks, in paper order."""
    return [spec.name for spec in TABLE1_BENCHMARKS]


def build_benchmark(name: str) -> QuantumCircuit:
    """Build the *logical* (pre-compilation) benchmark circuit."""
    try:
        spec = _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {benchmark_names()}"
        ) from None
    return spec.builder()


def build_compiled_benchmark(name: str, optimized: bool = False) -> QuantumCircuit:
    """Build the benchmark compiled to the Yorktown device basis/topology.

    ``optimized=True`` additionally runs the peephole passes
    (:func:`repro.mapping.optimize_circuit`) — fewer gates, hence fewer
    error positions; the ``compiler_quality`` ablation benchmark measures
    how that shifts the noise profile and the optimizer's savings.
    """
    compiled = compile_for_device(build_benchmark(name), yorktown_coupling())
    if optimized:
        from ..mapping.optimize import optimize_circuit

        compiled = optimize_circuit(compiled)
    return compiled


def export_qasm_suite(directory, compiled: bool = True) -> List[str]:
    """Write every Table I benchmark as an OpenQASM 2.0 file.

    Returns the written file paths.  ``compiled=True`` exports the
    Yorktown-mapped form (the paper's simulated circuits); ``False``
    exports the logical circuits.
    """
    import os

    from ..circuits.qasm import to_qasm

    os.makedirs(directory, exist_ok=True)
    written = []
    for spec in TABLE1_BENCHMARKS:
        circuit = (
            compile_for_device(spec.builder(), yorktown_coupling())
            if compiled
            else spec.builder()
        )
        path = os.path.join(directory, f"{spec.name}.qasm")
        with open(path, "w") as handle:
            handle.write(to_qasm(circuit))
        written.append(path)
    return written


class LargeBenchmarkSpec(NamedTuple):
    """A beyond-Table-I benchmark for the CLI and perfbench.

    Too many qubits for the 5-qubit Yorktown device, so these run as
    *logical* circuits under a uniform artificial noise model (the
    paper's Sec. V-B scalability methodology): single-qubit rate
    ``error_rate``, two-qubit and measurement rates 10x that.
    """

    name: str
    builder: Callable[[], QuantumCircuit]
    num_qubits: int
    error_rate: float


#: 12+-qubit workloads for ``repro run``, ``trace``, ``profile`` and
#: ``advise``.  Error rates are tuned so a 1024-trial set branches into
#: many distinct subtrees while keeping the distinct-final-state count
#: (hence memory and runtime) bounded.
LARGE_BENCHMARKS: Tuple[LargeBenchmarkSpec, ...] = (
    LargeBenchmarkSpec("qft12", lambda: qft(12), 12, 1.0e-3),
    LargeBenchmarkSpec("bv14", lambda: bv(14), 14, 2.0e-3),
    LargeBenchmarkSpec("qft14", lambda: qft(14), 14, 7.0e-4),
)

_LARGE_BY_NAME: Dict[str, LargeBenchmarkSpec] = {
    spec.name: spec for spec in LARGE_BENCHMARKS
}


def large_benchmark_names() -> List[str]:
    """Names of the large (12+-qubit) benchmarks."""
    return [spec.name for spec in LARGE_BENCHMARKS]


def all_benchmark_names() -> List[str]:
    """Table I names followed by the large-suite names."""
    return benchmark_names() + large_benchmark_names()


def resolve_benchmark(name: str):
    """Resolve any benchmark name to ``(circuit, noise_model)``.

    Table I names yield the Yorktown-compiled circuit with the real
    device model; large-suite names yield the logical circuit with the
    spec's uniform artificial model.  This is the single lookup the CLI
    and perfbench share.
    """
    from ..noise.devices import artificial_model, ibm_yorktown

    if name in _LARGE_BY_NAME:
        spec = _LARGE_BY_NAME[name]
        return spec.builder(), artificial_model(spec.error_rate)
    return build_compiled_benchmark(name), ibm_yorktown()


def table1_rows() -> List[Dict[str, object]]:
    """Paper-vs-measured Table I characteristics for all benchmarks."""
    rows: List[Dict[str, object]] = []
    for spec in TABLE1_BENCHMARKS:
        compiled = compile_for_device(spec.builder(), yorktown_coupling())
        rows.append(
            {
                "name": spec.name,
                "qubits_paper": spec.paper_qubits,
                "qubits_used": spec.builder().num_qubits,
                "single_paper": spec.paper_single,
                "single_ours": compiled.num_single_qubit_gates(),
                "cnot_paper": spec.paper_cnot,
                "cnot_ours": compiled.num_two_qubit_gates(),
                "measure_paper": spec.paper_measure,
                "measure_ours": compiled.num_measurements(),
            }
        )
    return rows

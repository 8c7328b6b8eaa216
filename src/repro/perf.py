"""``repro bench``: the wall-clock performance harness.

Measures the statevector execution hot path — compiled kernels vs the
interpreted ``tensordot`` path — over the Table I benchmark suite, with
warmup runs, best-of-N repeats and machine-readable JSON output suitable
for committing as ``BENCH_<nnnn>.json`` so every PR records the perf
trajectory.

Methodology
-----------
For each benchmark the harness builds the Yorktown-compiled circuit,
samples a seeded trial set, builds the execution plan **once**, then times
the serial executor (:func:`~repro.core.options.execute` with default
options) with each backend against that same plan (plan construction and
trial sampling are deliberately excluded
— the paper's reordering is shared by both paths; this harness isolates
the per-gate kernel cost).  Reported time is the best of ``repeats``
timed runs after ``warmup`` untimed ones; ops/sec divides the paper's
basic-operation counter by that best time.

With ``check=True`` (the default) the harness also proves exactness on
every benchmark: identical ``ops_applied``, identical ``peak_msv``, and
``allclose`` final states between the two paths, recorded per benchmark
in the JSON payload.

With ``trace=True`` (the ``repro bench --trace`` flag) one additional
*recorded* compiled run is made per benchmark — outside the timed loop,
so timings stay honest — and its :class:`~repro.obs.summary.TraceSummary`
is attached to the record as ``profile`` after being cross-checked
against the timed run's outcome.

Every further section (``workers``, ``batches``, ``hybrid``, ``auto``)
is one option set from :mod:`repro.core.options`, timed through the same
``execute()`` against the same plan and proven exact the same way: each
trial's payload ``array_equal`` to the serial compiled run's, with equal
``ops_applied``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .bench.suite import all_benchmark_names, benchmark_names, resolve_benchmark
from .circuits.layers import layerize
from .core.hostinfo import machine_info, peak_rss_kb
from .core.hybrid import HybridOutcome
from .core.options import execute, expect
from .core.parallel import ParallelOutcome
from .core.schedule import build_plan
from .noise.sampling import sample_trials
from .sim.backend import StatevectorBackend
from .sim.compiled import CompiledCircuit, CompiledStatevectorBackend

__all__ = [
    "BENCH_SCHEMA",
    "bench_one",
    "bench_rows",
    "compare_bench",
    "dense_microbench",
    "hybrid_microbench",
    "peak_rss_kb",
    "run_bench",
    "section_label",
    "write_bench_json",
]

BENCH_SCHEMA = "repro-bench/1"


def _time_run(layered, trials, plan, make_backend, warmup: int, repeats: int, **options):
    """Best and mean wall time of ``repeats`` ``execute()`` runs under
    ``options`` after ``warmup`` untimed ones, all on one backend
    instance; returns ``(outcome, best, mean)``."""
    engine = make_backend()
    for _ in range(warmup):
        execute(layered, trials, make_backend, plan=plan, engine=engine, **options)
    best = float("inf")
    total = 0.0
    outcome = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        outcome = execute(layered, trials, make_backend, plan=plan, engine=engine, **options)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        total += elapsed
    return outcome, best, total / max(1, repeats)


def _payloads(layered, trials, plan, make_backend, **options):
    """Every trial's final amplitudes from one untimed ``execute()`` run."""
    by_trial: List[Optional[np.ndarray]] = [None] * len(trials)

    def on_finish(payload, trial_indices):
        vector = payload.vector.copy()
        for index in trial_indices:
            by_trial[index] = vector

    outcome = execute(
        layered, trials, make_backend, on_finish, plan=plan, **options
    )
    return by_trial, outcome


def _all_trials(reference, candidate, same) -> bool:
    return len(reference) == len(candidate) and all(
        a is not None and b is not None and same(a, b)
        for a, b in zip(reference, candidate)
    )


# peak_rss_kb / machine_info moved to repro.core.hostinfo so the runner
# and profiler share them; re-exported here for compatibility.


def _section(key: str, executor: str, **options) -> tuple:
    """One timed bench section: the record key it fills and its options.

    The options must pick ``executor`` (:func:`repro.core.options.expect`),
    so a flag value the table rejects fails before anything is timed.
    """
    expect(executor, **options)
    return key, options


def _bench_sections(
    workers: Sequence[int],
    partition_depth: int,
    batches: Sequence[int],
    hybrid: bool,
) -> List[tuple]:
    sections = [
        _section("parallel", "parallel", workers=w, partition_depth=partition_depth)
        for w in workers
    ]
    sections += [_section("batch", "wavefront", batch_size=b) for b in batches]
    if hybrid:
        sections.append(_section("hybrid", "hybrid", hybrid=True))
    return sections


def _bench_section(
    layered,
    trials,
    plan,
    make_backend,
    options: Dict[str, object],
    serial_best: float,
    serial_by_trial: List[Optional[np.ndarray]],
    serial_ops: int,
    repeats: int,
) -> Dict[str, object]:
    """Time ``execute()`` under ``options`` and prove it exact.

    The exactness run is separate from the timed runs (collecting every
    final state would distort the timing): every trial's payload must be
    **bit-identical** (``array_equal``, not ``allclose``) to the serial
    compiled run's, with the identical operation count — every executor
    is a pure regrouping of the serial plan.
    """
    _, best, mean = _time_run(layered, trials, plan, make_backend, 0, repeats, **options)
    by_trial, outcome = _payloads(layered, trials, plan, make_backend, **options)
    bit_identical = _all_trials(serial_by_trial, by_trial, np.array_equal)
    ops_equal = outcome.ops_applied == serial_ops
    section: Dict[str, object] = {
        "best_s": best,
        "mean_s": mean,
        "speedup_vs_serial": serial_best / best,
        "ops_applied": outcome.ops_applied,
        "exact": {
            "ops_equal": bool(ops_equal),
            "states_bit_identical": bool(bit_identical),
            "ok": bool(ops_equal and bit_identical),
        },
        "peak_rss_kb": peak_rss_kb(),
    }
    if isinstance(outcome, ParallelOutcome):
        section.update(
            workers=outcome.num_workers,
            partition_depth=outcome.partition_depth,
            num_tasks=outcome.num_tasks,
            used_fork=outcome.used_fork,
            shm_bytes=outcome.shm_bytes,
        )
    else:
        section["batch"] = options.get("batch_size", 0)
    if isinstance(outcome, HybridOutcome):
        section.update(active=outcome.active, stats=dict(outcome.hybrid))
    return section


def dense_microbench(
    num_qubits: int = 12,
    width: int = 16,
    gates: int = 32,
    repeats: int = 3,
) -> Dict[str, object]:
    """Dense-kernel throughput: batched columns vs one-at-a-time.

    Applies ``gates`` alternating 1q/2q dense unitaries to a
    ``num_qubits``-qubit state, serially per column versus one batched
    ``(2,)*n + (width,)`` call, and reports amplitudes processed per
    second for each.  ``ratio`` (batched / serial per-column throughput)
    is the CI regression gate: vectorizing across trials must never make
    the dense kernel slower per column (gate at 0.9 to absorb machine
    noise).
    """
    from .sim.kernels import DenseKernel

    rng = np.random.default_rng(7)

    def unitary(k: int) -> np.ndarray:
        raw = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal(
            (2**k, 2**k)
        )
        q, _ = np.linalg.qr(raw)
        return q

    kernels = []
    for g in range(gates):
        if g % 2:
            qubits = (g % num_qubits, (g + 1) % num_qubits)
            kernels.append(DenseKernel(unitary(2), qubits, num_qubits))
        else:
            kernels.append(DenseKernel(unitary(1), (g % num_qubits,), num_qubits))

    shape = (2,) * num_qubits
    base = rng.standard_normal(shape + (width,)) + 1j * rng.standard_normal(
        shape + (width,)
    )
    base /= np.linalg.norm(base.reshape(-1, width), axis=0)

    serial_best = float("inf")
    for _ in range(max(1, repeats)):
        cols = [np.ascontiguousarray(base[..., w]) for w in range(width)]
        scratch = np.empty(shape, dtype=np.complex128)
        start = time.perf_counter()
        for w in range(width):
            work, spare = cols[w], scratch
            for kernel in kernels:
                work, spare = kernel.apply(work, spare)
            scratch = spare
        serial_best = min(serial_best, time.perf_counter() - start)

    batch_best = float("inf")
    for _ in range(max(1, repeats)):
        work = np.ascontiguousarray(base)
        spare = np.empty_like(work)
        start = time.perf_counter()
        for kernel in kernels:
            work, spare = kernel.apply_batch(work, spare)
        batch_best = min(batch_best, time.perf_counter() - start)

    amplitudes = float((2**num_qubits) * width * gates)
    serial_rate = amplitudes / serial_best
    batch_rate = amplitudes / batch_best
    return {
        "num_qubits": num_qubits,
        "width": width,
        "gates": gates,
        "serial_amps_per_s": serial_rate,
        "batched_amps_per_s": batch_rate,
        "ratio": batch_rate / serial_rate,
    }


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


def bench_one(
    name: str,
    num_trials: int = 1024,
    repeats: int = 3,
    warmup: int = 1,
    seed: int = 2020,
    check: bool = True,
    trace: bool = False,
    workers: Sequence[int] = (),
    partition_depth: int = 1,
    auto: bool = False,
    batches: Sequence[int] = (),
    hybrid: bool = False,
) -> Dict[str, object]:
    """Benchmark one suite circuit; returns one JSON-ready record.

    ``name`` may be a Table I benchmark (Yorktown-compiled, device model)
    or a large-suite benchmark (logical circuit, artificial model — see
    :data:`repro.bench.suite.LARGE_BENCHMARKS`).  Each entry in
    ``workers`` and ``batches``, and ``hybrid``, adds timed sections
    (parallel, wavefront, hybrid executor) plus a bit-exactness proof
    against the serial compiled run.

    With ``auto=True`` a :func:`~repro.lint.costmodel.build_certificate`
    pass ranks (depth, workers) candidates statically; the winning
    advice is attached as ``advise`` and, when it picks a parallel
    schedule, one extra timed section runs with the certificate's
    ``task_flops`` as scheduler weights (``advised`` in the record).
    """
    sections = _bench_sections(workers, partition_depth, batches, hybrid)
    circuit, model = resolve_benchmark(name)
    layered = layerize(circuit)
    trials = sample_trials(
        layered, model, num_trials, np.random.default_rng(seed)
    )
    plan = build_plan(layered, trials)
    compiled = CompiledCircuit(layered)

    def make_compiled():
        return CompiledStatevectorBackend(layered, compiled=compiled)

    def make_interpreted():
        return StatevectorBackend(layered)

    interp_outcome, interp_best, interp_mean = _time_run(
        layered, trials, plan, make_interpreted, warmup, repeats
    )
    comp_outcome, comp_best, comp_mean = _time_run(
        layered, trials, plan, make_compiled, warmup, repeats
    )

    record: Dict[str, object] = {
        "benchmark": name,
        "num_qubits": layered.num_qubits,
        "num_layers": layered.num_layers,
        "num_gates": layered.num_gates,
        "num_trials": num_trials,
        "ops_applied": comp_outcome.ops_applied,
        "peak_msv": comp_outcome.peak_msv,
        "interpreted": {
            "best_s": interp_best,
            "mean_s": interp_mean,
            "ops_per_s": interp_outcome.ops_applied / interp_best,
            "peak_rss_kb": peak_rss_kb(),
        },
        "compiled": {
            "best_s": comp_best,
            "mean_s": comp_mean,
            "ops_per_s": comp_outcome.ops_applied / comp_best,
            "peak_rss_kb": peak_rss_kb(),
        },
        "speedup": interp_best / comp_best,
        "kernel_stats": compiled.stats(),
    }

    if auto:
        from .lint.costmodel import build_certificate

        certificate = build_certificate(
            layered,
            trials,
            benchmark=name,
            seed=seed,
            workers=tuple(workers) if workers else (1, 2, 4),
            compiled=compiled,
        )
        advice = dict(certificate["advice"])
        record["advise"] = {
            "advice": advice,
            "candidates": certificate["candidates"][:5],
        }
        if advice["workers"]:
            sections.append(
                _section(
                    "advised",
                    "parallel",
                    workers=int(advice["workers"]),
                    partition_depth=int(advice["depth"] or 1),
                    task_weights=next(
                        list(s["task_flops"])
                        for s in certificate["schedules"]
                        if s["depth"] == advice["depth"]
                    ),
                )
            )

    if sections:
        serial_by_trial, serial_outcome = _payloads(
            layered, trials, plan, make_compiled
        )
        for key, options in sections:
            section = _bench_section(
                layered,
                trials,
                plan,
                make_compiled,
                options,
                comp_best,
                serial_by_trial,
                serial_outcome.ops_applied,
                repeats,
            )
            if key == "advised":
                record[key] = section
            else:
                record.setdefault(key, []).append(section)
        for key in ("batch", "hybrid"):
            if key in record:
                best_section = max(
                    record[key], key=lambda s: s["speedup_vs_serial"]
                )
                record[f"{key}_best"] = {
                    "batch": best_section["batch"],
                    "speedup_vs_serial": best_section["speedup_vs_serial"],
                }

    if trace:
        from .obs import InMemoryRecorder, summarize, verify_trace

        recorder = InMemoryRecorder()
        traced_outcome = execute(
            layered, trials, make_compiled, plan=plan, recorder=recorder
        )
        profile = summarize(recorder).as_dict()
        profile["crosscheck_ok"] = not verify_trace(
            recorder, outcome=traced_outcome
        )
        record["profile"] = profile

    if check:
        i_states, i_out = _payloads(layered, trials, plan, make_interpreted)
        c_states, c_out = _payloads(layered, trials, plan, make_compiled)
        states_close = _all_trials(
            i_states, c_states, lambda a, b: np.allclose(a, b, atol=1e-8)
        )
        record["equivalence"] = {
            "ops_equal": i_out.ops_applied == c_out.ops_applied,
            "peak_msv_equal": i_out.peak_msv == c_out.peak_msv,
            "states_allclose": bool(states_close),
            "ok": bool(
                i_out.ops_applied == c_out.ops_applied
                and i_out.peak_msv == c_out.peak_msv
                and states_close
            ),
        }
    record["peak_rss_kb"] = peak_rss_kb()
    return record


def run_bench(
    benchmarks: Optional[Sequence[str]] = None,
    num_trials: int = 1024,
    repeats: int = 3,
    warmup: int = 1,
    seed: int = 2020,
    check: bool = True,
    trace: bool = False,
    workers: Sequence[int] = (),
    partition_depth: int = 1,
    auto: bool = False,
    batches: Sequence[int] = (),
    hybrid: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the harness over ``benchmarks`` (default: the full Table I suite).

    Each entry in ``batches`` adds a timed trial-batched wavefront
    section per benchmark (plus a bit-exactness proof against the serial
    compiled payload stream) and a dense-kernel microbench to the
    payload — the per-column throughput ratio CI gates on.  Section
    options the table rejects raise
    :class:`~repro.core.options.OptionError` before anything is timed.
    """
    _bench_sections(workers, partition_depth, batches, hybrid)
    names = list(benchmarks) if benchmarks else benchmark_names()
    unknown = sorted(set(names) - set(all_benchmark_names()))
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {unknown}; known: {all_benchmark_names()}"
        )
    results = []
    for name in names:
        if progress is not None:
            progress(name)
        results.append(
            bench_one(
                name,
                num_trials=num_trials,
                repeats=repeats,
                warmup=warmup,
                seed=seed,
                check=check,
                trace=trace,
                workers=workers,
                partition_depth=partition_depth,
                auto=auto,
                batches=batches,
                hybrid=hybrid,
            )
        )
    speedups = [record["speedup"] for record in results]
    summary: Dict[str, object] = {
        "benchmarks": len(results),
        "min_speedup": min(speedups) if speedups else None,
        "max_speedup": max(speedups) if speedups else None,
        "geomean_speedup": _geomean(speedups),
        "all_equivalent": (
            all(record.get("equivalence", {}).get("ok", True) for record in results)
            if check
            else None
        ),
    }
    for key, enabled in (
        ("parallel", workers), ("advised", auto), ("batch", batches), ("hybrid", hybrid)
    ):
        summary[f"all_{key}_exact"] = (
            all(
                section["exact"]["ok"]
                for record in results
                for section in _record_sections(record, key)
            )
            if enabled
            else None
        )
    for key in ("batch", "hybrid"):
        summary[f"geomean_{key}_speedup"] = _geomean(
            [
                record[f"{key}_best"]["speedup_vs_serial"]
                for record in results
                if f"{key}_best" in record
            ]
        )
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_info(),
        "config": {
            "num_trials": num_trials,
            "repeats": repeats,
            "warmup": warmup,
            "seed": seed,
            "check": check,
            "trace": trace,
            "workers": list(workers),
            "partition_depth": partition_depth,
            "auto": auto,
            "batches": list(batches),
            "hybrid": hybrid,
        },
        "results": results,
        "summary": summary,
    }
    if batches:
        payload["microbench"] = dense_microbench()
    if hybrid:
        payload["hybrid_microbench"] = hybrid_microbench()
    return payload


def write_bench_json(payload: Dict[str, object], path: str) -> None:
    """Write a harness payload as stable, reviewable JSON (atomically —
    an interrupted bench run never leaves a truncated artifact)."""
    from .core.atomicio import atomic_write_json

    atomic_write_json(path, payload, indent=2, sort_keys=True)


def bench_rows(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """Flatten a payload into table rows for the CLI renderer."""
    rows = []
    for record in payload["results"]:
        row = {
            "benchmark": record["benchmark"],
            "gates": record["num_gates"],
            "ops": record["ops_applied"],
            "interp (ms)": record["interpreted"]["best_s"] * 1e3,
            "compiled (ms)": record["compiled"]["best_s"] * 1e3,
            "Mops/s": record["compiled"]["ops_per_s"] / 1e6,
            "speedup": record["speedup"],
        }
        for section in record.get("parallel", ()):
            w = section["workers"]
            row[f"par{w} (ms)"] = section["best_s"] * 1e3
            row[f"par{w} vs 1"] = section["speedup_vs_serial"]
        rss = record.get("peak_rss_kb") or {}
        if rss.get("self") is not None:
            children = rss.get("children") or 0
            row["rss (MB)"] = (rss["self"] + children) / 1024.0
        if "equivalence" in record:
            exact = record["equivalence"]["ok"] and all(
                section["exact"]["ok"]
                for section in record.get("parallel", ())
            )
            row["exact"] = "yes" if exact else "NO"
        rows.append(row)
    return rows


def _geomean(values: Sequence[float]) -> Optional[float]:
    return float(np.exp(np.mean(np.log(values)))) if values else None


def _record_sections(record: Dict[str, object], key: str) -> List[Dict[str, object]]:
    """A record's timed sections under ``key`` (``advised`` holds one)."""
    sections = record.get(key, ())
    return [sections] if isinstance(sections, dict) else list(sections)  # type: ignore


#: Record keys of the timed sections beside the serial run.
SECTION_KEYS = ("parallel", "advised", "batch", "hybrid")


def section_label(key: str, section: Dict[str, object]) -> str:
    """A timed section's name, e.g. ``parallel[w2]`` or ``hybrid+batch[64]``."""
    if key == "parallel":
        return f"parallel[w{section['workers']}]"
    if key == "advised":
        return key
    batch = f"batch[{section['batch']}]"
    return batch if key == "batch" else f"hybrid+{batch}" if section["batch"] else "hybrid"


def _comparable_sections(
    record: Dict[str, object]
) -> Dict[str, Dict[str, float]]:
    """Named speedup sections of one benchmark record.

    Every section is normalized to ``{"speedup", "best_s"}`` — the
    speedup is what the gate compares (a dimensionless ratio, robust to
    the absolute machine speed differing between baseline and current
    runs) and ``best_s`` is the noise floor: sections faster than
    ``min_seconds`` are dominated by timer jitter and are skipped.
    """
    sections: Dict[str, Dict[str, float]] = {
        "compiled": {
            "speedup": float(record["speedup"]),  # type: ignore[arg-type]
            "best_s": float(record["compiled"]["best_s"]),  # type: ignore[index]
        }
    }
    for key in SECTION_KEYS:
        for section in _record_sections(record, key):
            sections[section_label(key, section)] = {
                "speedup": float(section["speedup_vs_serial"]),  # type: ignore[arg-type]
                "best_s": float(section["best_s"]),  # type: ignore[arg-type]
            }
    return sections


def compare_bench(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.35,
    min_seconds: float = 0.005,
) -> Dict[str, object]:
    """Compare two harness payloads; the CI regression gate.

    For every benchmark present in *both* payloads, each named speedup
    section (``compiled``, ``parallel[wN]``, ``advised``, ``batch[W]``)
    is compared as ``current_speedup / baseline_speedup``.  A section
    regresses when that ratio falls below ``1 - tolerance`` **and** both
    measurements clear the ``min_seconds`` noise floor (best-of-N times
    below it carry more timer jitter than signal).  Benchmarks or
    sections present on only one side are reported informationally, never
    failed — a baseline from a wider run must not fail a narrower smoke.

    Config divergence (trials, repeats, seed) is reported in
    ``config_mismatches`` so a reader can judge how comparable the runs
    were; speedups are within-run ratios, so they stay meaningful across
    configs in a way absolute times would not.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    current_by_name = {
        record["benchmark"]: record
        for record in current.get("results", ())  # type: ignore[attr-defined]
    }
    baseline_by_name = {
        record["benchmark"]: record
        for record in baseline.get("results", ())  # type: ignore[attr-defined]
    }
    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    skipped: List[str] = []
    for name in sorted(set(current_by_name) & set(baseline_by_name)):
        cur_sections = _comparable_sections(current_by_name[name])
        base_sections = _comparable_sections(baseline_by_name[name])
        for section in sorted(set(cur_sections) & set(base_sections)):
            cur = cur_sections[section]
            base = base_sections[section]
            ratio = (
                cur["speedup"] / base["speedup"] if base["speedup"] else 0.0
            )
            below_floor = (
                cur["best_s"] < min_seconds or base["best_s"] < min_seconds
            )
            regressed = bool(ratio < 1.0 - tolerance and not below_floor)
            label = f"{name}:{section}"
            if ratio < 1.0 - tolerance and below_floor:
                skipped.append(label)
            if regressed:
                regressions.append(label)
            rows.append(
                {
                    "benchmark": name,
                    "section": section,
                    "baseline_speedup": base["speedup"],
                    "current_speedup": cur["speedup"],
                    "ratio": ratio,
                    "baseline_best_s": base["best_s"],
                    "current_best_s": cur["best_s"],
                    "below_noise_floor": below_floor,
                    "regressed": regressed,
                }
            )
        only = sorted(set(base_sections) - set(cur_sections))
        if only:
            skipped.extend(f"{name}:{section} (not in current)" for section in only)
    config_mismatches = []
    for key in ("num_trials", "repeats", "warmup", "seed", "batches", "workers"):
        cur_value = current.get("config", {}).get(key)  # type: ignore[union-attr]
        base_value = baseline.get("config", {}).get(key)  # type: ignore[union-attr]
        if cur_value != base_value:
            config_mismatches.append(
                f"{key}: baseline {base_value!r} vs current {cur_value!r}"
            )
    return {
        "tolerance": tolerance,
        "min_seconds": min_seconds,
        "benchmarks_compared": sorted(
            set(current_by_name) & set(baseline_by_name)
        ),
        "benchmarks_skipped": sorted(
            set(current_by_name) ^ set(baseline_by_name)
        ),
        "rows": rows,
        "sections_skipped": skipped,
        "config_mismatches": config_mismatches,
        "regressions": regressions,
        "ok": not regressions,
    }

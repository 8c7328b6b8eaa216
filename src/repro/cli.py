"""Command-line interface: regenerate every table and figure of the paper.

Examples::

    python -m repro table1                 # Table I characteristics
    python -m repro device                 # Fig. 4 calibration data
    python -m repro fig5                   # normalized computation (realistic)
    python -m repro fig6                   # MSVs (realistic)
    python -m repro fig7 --trials 100000   # scalability, normalized computation
    python -m repro fig8 --trials 100000   # scalability, MSVs
    python -m repro run bv4 --trials 2048  # one benchmark end to end
    python -m repro lint                   # static audit of every benchmark
    python -m repro lint circuit.qasm      # lint an OpenQASM file
    python -m repro bench --json BENCH.json  # compiled-vs-interpreted perf
    python -m repro trace grover           # recorded run -> .trace.json + profile
    python -m repro serve /tmp/state       # crash-safe job server
    python -m repro submit /tmp/state bv4 --trials 2048 --stream
    python -m repro jobs /tmp/state        # list jobs on a running server
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .analysis.report import rows_to_table
from .core.atomicio import atomic_write_json
from .bench.suite import (
    all_benchmark_names,
    benchmark_names,
    build_compiled_benchmark,
    table1_rows,
)
from .core.runner import NoisySimulator
from .experiments.realistic import (
    fig5_rows,
    fig6_rows,
    run_realistic_experiment,
)
from .experiments.scalability import (
    fig7_rows,
    fig8_rows,
    run_scalability_experiment,
)
from .noise.devices import (
    YORKTOWN_COUPLING,
    ibm_yorktown,
)

__all__ = ["main"]


def _maybe_write_json(args: argparse.Namespace, rows) -> None:
    """Write experiment rows to ``--json PATH`` when requested."""
    path = getattr(args, "json", None)
    if not path:
        return
    atomic_write_json(path, rows, indent=2, sort_keys=True)
    print(f"\nwrote {len(rows)} rows to {path}")


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_rows()
    print(
        rows_to_table(
            rows,
            title="Table I: benchmark characteristics (paper vs this repo)",
        )
    )
    _maybe_write_json(args, rows)
    return 0


def _cmd_device(args: argparse.Namespace) -> int:
    model = ibm_yorktown()
    rows = []
    for qubit in range(5):
        rows.append(
            {
                "qubit": f"Q{qubit}",
                "single (1e-3)": model.single_qubit_error[qubit] * 1e3,
                "measure (1e-2)": model.measurement_error[qubit] * 1e2,
            }
        )
    print(rows_to_table(rows, title="Fig. 4: IBM Yorktown per-qubit error rates"))
    print()
    pair_rows = [
        {
            "pair": f"Q{min(pair)}-Q{max(pair)}",
            "cnot (1e-2)": model.two_qubit_error[frozenset(pair)] * 1e2,
        }
        for pair in YORKTOWN_COUPLING
    ]
    print(rows_to_table(pair_rows, title="Fig. 4: two-qubit gate error rates"))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    records = run_realistic_experiment(
        benchmarks=args.benchmarks, seed=args.seed
    )
    rows = fig5_rows(records)
    print(
        rows_to_table(
            rows,
            title="Fig. 5: normalized computation, Yorktown model",
        )
    )
    _maybe_write_json(args, rows)
    savings = [
        1.0 - r.normalized_computation for r in records if r.num_trials == 8192
    ]
    if savings:
        print(
            f"\naverage computation saving @8192 trials: "
            f"{sum(savings) / len(savings):.1%}"
        )
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    records = run_realistic_experiment(
        benchmarks=args.benchmarks, trial_counts=(1024,), seed=args.seed
    )
    rows = fig6_rows(records)
    print(
        rows_to_table(
            rows,
            title="Fig. 6: maintained state vectors (MSVs), 1024 trials",
        )
    )
    _maybe_write_json(args, rows)
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    records = run_scalability_experiment(
        num_trials=args.trials, seed=args.seed, engine=args.engine
    )
    rows = fig7_rows(records)
    print(
        rows_to_table(
            rows,
            title=(
                "Fig. 7: normalized computation, artificial models "
                f"({args.trials} trials; paper uses 10^6)"
            ),
        )
    )
    _maybe_write_json(args, rows)
    values = [r.normalized_computation for r in records]
    print(f"\naverage computation saving: {1.0 - sum(values) / len(values):.1%}")
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    records = run_scalability_experiment(
        num_trials=args.trials, seed=args.seed, engine=args.engine
    )
    rows = fig8_rows(records)
    print(
        rows_to_table(
            rows,
            title=(
                "Fig. 8: maintained state vectors, artificial models "
                f"({args.trials} trials; paper uses 10^6)"
            ),
        )
    )
    _maybe_write_json(args, rows)
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    import numpy as np

    from .circuits import layerize
    from .experiments import ablation_report
    from .noise.sampling import sample_trials

    model = ibm_yorktown()
    rows = []
    names = args.benchmarks or ["bv4", "qft4", "qv_n5d3", "qv_n5d5"]
    for name in names:
        layered = layerize(build_compiled_benchmark(name))
        trials = sample_trials(
            layered, model, args.trials, np.random.default_rng(args.seed)
        )
        report = ablation_report(layered, trials)
        base = report["baseline"]
        rows.append(
            {"benchmark": name, **{k: v / base for k, v in report.items()}}
        )
    print(
        rows_to_table(
            rows,
            title=(
                f"Ablations: normalized ops ({args.trials} trials, Yorktown) — "
                "dedup / reuse-without-reorder / reorder / full trie"
            ),
        )
    )
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    from .circuits.draw import draw

    circuit = (
        build_compiled_benchmark(args.benchmark)
        if args.compiled
        else __import__("repro.bench", fromlist=["build_benchmark"]).build_benchmark(
            args.benchmark
        )
    )
    print(draw(circuit, max_width=args.width))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Analytic prediction vs measured saving for one benchmark."""
    from .analysis.predictor import predict_summary
    from .analysis.sharing import analyze_sharing
    from .circuits import layerize

    circuit = build_compiled_benchmark(args.benchmark)
    layered = layerize(circuit)
    model = ibm_yorktown()
    summary = predict_summary(layered, model, args.trials)
    print(f"benchmark                  : {args.benchmark}")
    print(f"error positions            : {summary['num_positions']:.0f}")
    print(f"P(error-free trial)        : {summary['error_free_probability']:.4f}")
    print(f"expected fired positions   : {summary['expected_fired_positions']:.3f}")
    print(
        f"expected error-free trials : "
        f"{summary['expected_error_free_trials']:.1f} / {args.trials}"
    )
    print(f"predicted saving (bound)   : {summary['saving_lower_bound']:.1%}")

    from .analysis.budget import error_budget

    budget = error_budget(layered, model)
    fractions = budget.fractions()
    print(
        "error budget               : "
        f"1q {fractions['single_qubit']:.0%}, "
        f"2q {fractions['two_qubit']:.0%}, "
        f"idle {fractions['idle']:.0%}, "
        f"readout {fractions['readout']:.0%} "
        f"(dominant: {budget.dominant_source()})"
    )

    simulator = NoisySimulator(circuit, model, seed=args.seed)
    trials = simulator.sample(args.trials)
    report = analyze_sharing(layered, trials)
    print(f"measured saving            : {report.computation_saving:.1%}")
    print(f"measured duplicate mass    : {report.duplicate_fraction:.1%}")
    print(f"mean adjacent shared prefix: {report.mean_lcp:.2f} events")
    print(f"peak MSV                   : {report.peak_msv}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Wall-clock perf harness: compiled kernels vs interpreted statevector."""
    from .core.options import OptionError
    from .perf import SECTION_KEYS, bench_rows, run_bench, section_label, write_bench_json

    try:
        payload = run_bench(
            benchmarks=args.benchmarks,
            num_trials=args.trials,
            repeats=args.repeats,
            warmup=args.warmup,
            seed=args.seed,
            check=not args.no_check,
            trace=args.trace,
            workers=args.workers or (),
            partition_depth=args.partition_depth,
            auto=args.auto,
            batches=args.batch or (),
            hybrid=args.hybrid,
            progress=lambda name: print(f"benching {name} ...", file=sys.stderr),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except OptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        rows_to_table(
            bench_rows(payload),
            title=(
                f"repro bench: statevector execution, {args.trials} trials "
                f"(best of {args.repeats} after {args.warmup} warmup)"
            ),
        )
    )
    summary = payload["summary"]
    print(
        f"\ngeomean speedup: {summary['geomean_speedup']:.2f}x "
        f"(min {summary['min_speedup']:.2f}x, "
        f"max {summary['max_speedup']:.2f}x)"
    )
    if not args.no_check:
        status = "ok" if summary["all_equivalent"] else "FAILED"
        print(f"equivalence (ops, peak MSV, final states): {status}")
    for key, flag in (("parallel", args.workers), ("batch", args.batch), ("hybrid", args.hybrid)):
        if not flag:
            continue
        status = "ok" if summary[f"all_{key}_exact"] else "FAILED"
        print(f"{key} exactness (every trial's payload bit-identical, equal ops): {status}")
        for record in payload["results"]:
            sections = ", ".join(
                f"{section_label(key, s)} {s['speedup_vs_serial']:.2f}x"
                + (" (inactive)" if s.get("active") is False else "")
                for s in record[key]
            )
            print(f"{key} {record['benchmark']}: {sections}")
        if key != "parallel":
            print(
                f"geomean best-{key} speedup vs serial compiled: "
                f"{summary[f'geomean_{key}_speedup']:.2f}x"
            )
    if args.batch:
        micro = payload["microbench"]
        print(
            f"dense microbench ({micro['num_qubits']}q x{micro['width']}): "
            f"batched/serial throughput ratio {micro['ratio']:.2f}"
        )
    if args.hybrid:
        micro = payload["hybrid_microbench"]
        print(
            f"hybrid microbench ({micro['num_qubits']}q "
            f"x{micro['gates']} Clifford gates): dense/symbolic time "
            f"ratio {micro['ratio']:.1f}"
        )
    if args.auto:
        for record in payload["results"]:
            advice = record["advise"]["advice"]
            picked = (
                f"workers={advice['workers']} depth={advice['depth']}"
                if advice["workers"]
                else "serial"
            )
            advised = record.get("advised")
            timing = (
                f", measured {advised['best_s']:.3f}s "
                f"({advised['speedup_vs_serial']:.2f}x vs serial)"
                if advised
                else ""
            )
            print(f"advise {record['benchmark']}: {picked}{timing}")
        if summary["all_advised_exact"] is False:
            print("advised schedule exactness: FAILED")
    trace_failures = []
    if args.trace:
        trace_failures = [
            record["benchmark"]
            for record in payload["results"]
            if not record["profile"]["crosscheck_ok"]
        ]
        status = "ok" if not trace_failures else (
            f"FAILED ({', '.join(trace_failures)})"
        )
        print(f"trace profiles attached, replay cross-check: {status}")
    if args.json:
        write_bench_json(payload, args.json)
        print(f"wrote {args.json}")
    comparison_ok = True
    if args.compare:
        from .perf import compare_bench

        try:
            with open(args.compare) as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        comparison = compare_bench(
            payload,
            baseline,
            tolerance=args.compare_tolerance,
            min_seconds=args.compare_noise_floor,
        )
        rows = [
            {
                "benchmark": row["benchmark"],
                "section": row["section"],
                "baseline": f"{row['baseline_speedup']:.2f}x",
                "current": f"{row['current_speedup']:.2f}x",
                "ratio": f"{row['ratio']:.2f}",
                "status": (
                    "REGRESSED"
                    if row["regressed"]
                    else "noise-floor"
                    if row["below_noise_floor"]
                    else "ok"
                ),
            }
            for row in comparison["rows"]
        ]
        if rows:
            print(
                rows_to_table(
                    rows,
                    title=(
                        f"regression gate vs {args.compare} "
                        f"(tolerance {args.compare_tolerance:.0%}, noise "
                        f"floor {args.compare_noise_floor * 1e3:.0f}ms)"
                    ),
                )
            )
        else:
            print(
                f"regression gate vs {args.compare}: no common "
                "benchmark sections to compare"
            )
        for note in comparison["config_mismatches"]:
            print(f"config mismatch: {note}")
        for note in comparison["sections_skipped"]:
            print(f"skipped: {note}")
        comparison_ok = comparison["ok"]
        if comparison_ok:
            print("regression gate: ok")
        else:
            print(
                "regression gate: FAILED "
                f"({', '.join(comparison['regressions'])})",
                file=sys.stderr,
            )
    if not args.no_check and not summary["all_equivalent"]:
        return 1
    if any(summary[f"all_{key}_exact"] is False for key in SECTION_KEYS):
        return 1
    if trace_failures:
        return 1
    if not comparison_ok:
        return 1
    return 0


def _reject_options(**options) -> bool:
    """Print the options table's message if it rejects ``options``."""
    from .core.options import OptionError, validate

    try:
        validate(**options)
    except OptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return True
    return False


def _cmd_run(args: argparse.Namespace) -> int:
    from .bench.suite import resolve_benchmark
    from .obs import format_run_metrics

    options = {
        "mode": args.mode,
        "workers": args.workers,
        "partition_depth": args.partition_depth,
        "journal": args.journal,
        "max_cache_bytes": args.max_cache_bytes,
        "cache_degrade": args.cache_degrade,
        "task_timeout": args.task_timeout,
        "retries": args.retries,
        "batch_size": args.batch,
        "hybrid": args.hybrid,
    }
    if _reject_options(**options):
        return 2
    circuit, model = resolve_benchmark(args.benchmark)
    simulator = NoisySimulator(circuit, model, seed=args.seed)

    certificate = None
    recorder = None
    auto_trials = None
    if args.auto:
        # The certificate describes the serial schedule of one fresh
        # optimized run, so --auto can only drive such a run.
        if args.mode != "optimized":
            print(
                "error: --auto requires --mode optimized (the certificate "
                "describes the optimized plan)",
                file=sys.stderr,
            )
            return 2
        if args.journal is not None:
            print(
                "error: --auto and --journal are mutually exclusive (a "
                "resumed run no longer matches the certificate)",
                file=sys.stderr,
            )
            return 2
        if args.batch:
            print(
                "error: --batch and --auto are mutually exclusive (the "
                "certificate's memory timeline describes the serial "
                "schedule; see `repro advise` for the certified batch "
                "advisory)",
                file=sys.stderr,
            )
            return 2
        from .lint import build_certificate
        from .obs import InMemoryRecorder

        budget = None
        if args.max_cache_bytes is not None:
            from .core.cache import CacheBudget

            budget = CacheBudget(
                max_bytes=args.max_cache_bytes, mode=args.cache_degrade
            )
        auto_trials = simulator.sample(args.trials)
        certificate = build_certificate(
            simulator.layered,
            auto_trials,
            benchmark=args.benchmark,
            seed=args.seed,
            budget=budget,
            compiled=simulator.compiled_circuit(),
        )
        options.update(_advised_settings(certificate))
        if _reject_options(**options):
            return 2
        recorder = InMemoryRecorder()

    start = time.perf_counter()
    result = simulator.run(
        num_trials=args.trials, trials=auto_trials, recorder=recorder, **options
    )
    elapsed = time.perf_counter() - start
    metrics = result.metrics
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "mode": args.mode,
            "seed": args.seed,
            "workers": options["workers"],
            "batch": args.batch,
            "hybrid": options["hybrid"],
            "metrics": metrics.as_dict(),
            "counts": result.counts,
            "wall_s": elapsed,
        }
        if args.auto:
            payload["advice"] = certificate["advice"]
        if result.journal is not None:
            payload["journal"] = {
                "path": result.journal.path,
                "resumed": result.journal.resumed,
                "replayed_trials": result.journal.replayed_trials,
                "recorded_finishes": result.journal.recorded_finishes,
                "truncated_tail": result.journal.truncated_tail,
            }
        atomic_write_json(args.json, payload, indent=2, sort_keys=True)
    print(f"benchmark         : {args.benchmark}")
    print(f"mode              : {args.mode}")
    if args.auto:
        advice = certificate["advice"]
        chosen = (
            f"workers {advice['workers']}, depth {advice['depth']}"
            if advice["workers"]
            else "serial"
        )
        if advice.get("hybrid"):
            chosen += ", hybrid fast path"
        print(
            f"auto-tuned        : {chosen} (certified makespan "
            f"{advice['makespan_flops'] / 1e6:.2f} Mflop, "
            f"memory {advice['memory_states']} states)"
        )
    if options["workers"]:
        print(
            f"workers           : {options['workers']} "
            f"(partition depth {options['partition_depth']})"
        )
    if args.batch:
        print(
            f"batch             : wavefront execution, up to {args.batch} "
            "trial column(s) per kernel call (bit-identical to serial)"
        )
    if options["hybrid"]:
        print(
            "hybrid            : Clifford spans run as Pauli-frame "
            "deltas over shared anchors (bit-identical to serial dense)"
        )
    if result.journal is not None:
        summary = result.journal
        state = (
            f"resumed, {summary.replayed_trials} trial(s) replayed "
            "with zero recompute"
            if summary.resumed
            else "fresh"
        )
        print(
            f"journal           : {summary.path} ({state}; "
            f"{summary.recorded_finishes} finish(es) recorded)"
        )
        if summary.truncated_tail:
            print(
                "journal           : torn tail discarded (crash mid-record)"
            )
    if options["max_cache_bytes"] is not None:
        print(
            f"cache budget      : {options['max_cache_bytes']} bytes "
            f"({options['cache_degrade']} on overflow; nominal peak MSV "
            "reported below is unchanged by design)"
        )
    print(format_run_metrics(metrics, wall_s=elapsed))
    top = sorted(result.counts.items(), key=lambda kv: -kv[1])[:8]
    print("top outcomes      :")
    for bits, count in top:
        print(f"  {bits}  {count:6d}  ({count / metrics.num_trials:.3f})")
    if args.json:
        print(f"\nwrote {args.json}")

    if args.auto:
        # Close the loop: the run just taken must match its certificate.
        from .lint import lint_certificate_trace, lint_memory_timeline

        exact = (
            options["workers"] == 0
            and options["max_cache_bytes"] is None
        )
        r20 = lint_certificate_trace(certificate, recorder)
        r21 = lint_memory_timeline(certificate, recorder, exact=exact)
        problems = [d.render() for d in r20.errors + r21.errors]
        if problems:
            print("certificate cross-check : FAILED", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            "certificate cross-check : ok (P020 op counts exact, "
            "P021 memory timeline sound)"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one benchmark with recording on; emit trace file + profile."""
    from .bench.suite import resolve_benchmark
    from .core.schedule import build_plan
    from .lint import lint_trace
    from .obs import (
        InMemoryRecorder,
        format_trace_summary,
        summarize,
        verify_trace,
        write_chrome_trace,
    )

    if args.batch and args.workers:
        print(
            "error: --batch and --workers are mutually exclusive (no "
            "cross-check exists for a merged wavefront trace)",
            file=sys.stderr,
        )
        return 2
    options = {
        "mode": args.mode,
        "backend": args.backend,
        "workers": args.workers,
        "partition_depth": args.partition_depth,
        "batch_size": args.batch,
    }
    if _reject_options(**options):
        return 2

    circuit, model = resolve_benchmark(args.benchmark)
    simulator = NoisySimulator(circuit, model, seed=args.seed)
    trials = simulator.sample(args.trials)
    recorder = InMemoryRecorder()
    result = simulator.run(trials=trials, recorder=recorder, **options)

    out = args.out or f"{args.benchmark}.trace.json"
    write_chrome_trace(
        recorder,
        out,
        metadata={
            "benchmark": args.benchmark,
            "mode": args.mode,
            "backend": args.backend,
            "seed": args.seed,
            "num_trials": args.trials,
            "workers": args.workers,
            "batch": args.batch,
        },
    )

    print(f"benchmark         : {args.benchmark}")
    print(f"backend           : {args.backend}")
    if args.workers:
        print(
            f"workers           : {args.workers} "
            f"(partition depth {args.partition_depth})"
        )
    summary = summarize(recorder)
    print(format_trace_summary(summary, top=args.top))
    print(f"\nwrote {out} ({len(recorder.events)} events)")

    problems = []
    if args.workers:
        # A merged trace interleaves one prefix replay and N worker
        # tracks, so the serial replay checks don't apply.  Instead
        # prove the partition itself sound (P018), then re-derive it
        # and hold the prefix track and every task attempt to its own
        # plan (P017).
        from .core.parallel import partition_plan
        from .lint import lint_partition, lint_partition_trace

        partition = partition_plan(
            simulator.layered, trials, depth=args.partition_depth
        )
        audit = lint_partition(
            partition, trials=trials, layered=simulator.layered
        )
        problems.extend(str(diagnostic) for diagnostic in audit.errors)
        trace_audit = lint_partition_trace(partition, recorder)
        problems.extend(str(diagnostic) for diagnostic in trace_audit.errors)
        recorded_ops = recorder.counters.get("ops.applied", 0)
        if recorded_ops != result.metrics.optimized_ops:
            problems.append(
                f"merged ops.applied counter {recorded_ops} != "
                f"RunMetrics.optimized_ops {result.metrics.optimized_ops}"
            )
        if not problems:
            print(
                "trace cross-check : ok (partition exactly covers the "
                "trials; every task attempt matches its sub-plan; "
                "merged counters equal RunMetrics)"
            )
    elif args.batch:
        # Wavefront traces carry fork instants instead of cache
        # store/hit events, so P017 doesn't apply; instead prove the
        # batched spans against the serial plan's cost analysis (P020:
        # each span's ``batch`` arg restores the serial segment count).
        from .lint import analyze_plan, lint_certificate_trace

        problems = verify_trace(recorder, metrics=result.metrics)
        plan = build_plan(simulator.layered, trials)
        analysis = analyze_plan(
            plan, simulator.layered, compiled=simulator.compiled_circuit()
        )
        certificate = {"plan": analysis.to_dict(), "num_trials": len(trials)}
        audit = lint_certificate_trace(certificate, recorder)
        problems.extend(str(diagnostic) for diagnostic in audit.errors)
        if not problems:
            print(
                "trace cross-check : ok (replayed counters equal "
                "RunMetrics; batched spans match the serial plan's "
                "certified segment counts)"
            )
    else:
        problems = verify_trace(recorder, metrics=result.metrics)
        if args.mode == "optimized":
            plan = build_plan(simulator.layered, trials)
            audit = lint_trace(plan, recorder)
            problems.extend(str(diagnostic) for diagnostic in audit.errors)
        if not problems:
            print(
                "trace cross-check : ok (replayed counters equal "
                "RunMetrics; cache events match the plan)"
            )
    if problems:
        print("trace cross-check : FAILED", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Roofline profiler: attribute wall time to certified flops/bytes."""
    from .bench.suite import resolve_benchmark
    from .core.schedule import build_plan
    from .lint import analyze_plan, lint_certificate_trace, lint_metrics_trace
    from .obs import (
        InMemoryRecorder,
        build_profile_report,
        fold_spans,
        format_profile_report,
        measure_peaks,
        registry_from_recorder,
        write_flamegraph,
        write_openmetrics,
    )

    if _reject_options(batch_size=args.batch):
        return 2
    circuit, model = resolve_benchmark(args.benchmark)
    simulator = NoisySimulator(circuit, model, seed=args.seed)
    trials = simulator.sample(args.trials)
    compiled = simulator.compiled_circuit()
    plan = build_plan(simulator.layered, trials)
    analysis = analyze_plan(plan, simulator.layered, compiled=compiled)
    certificate = {
        "plan": analysis.to_dict(),
        "num_trials": len(trials),
    }

    recorder = InMemoryRecorder()
    simulator.run(
        trials=trials,
        mode="optimized",
        backend="statevector",
        recorder=recorder,
        batch_size=args.batch,
    )

    failures = []

    # P020 parity: the roofline numerators below are exactly the
    # certificate's per-segment flop counts, so prove the certificate
    # against the recorded spans first — an unproven numerator is noise.
    parity = lint_certificate_trace(certificate, recorder)
    parity_problems = [str(diagnostic) for diagnostic in parity.diagnostics]
    if parity_problems:
        failures.append(
            "certificate/trace parity (P020) failed: "
            + "; ".join(parity_problems)
        )

    profile = fold_spans(recorder)
    if abs(profile.coverage - 1.0) > 0.05:
        failures.append(
            f"attributed exclusive time covers {profile.coverage:.1%} of "
            "the run span (must be within 5%)"
        )

    peaks = measure_peaks(repeats=args.calibration_repeats)
    report = build_profile_report(
        recorder,
        certificate["plan"]["segments"],
        compiled,
        simulator.layered.num_qubits,
        peaks=peaks,
        top=args.top,
        meta={
            "benchmark": args.benchmark,
            "mode": "optimized",
            "seed": args.seed,
            "num_trials": args.trials,
            "batch": args.batch,
        },
    )
    report["parity"] = {"ok": not parity_problems, "problems": parity_problems}

    # Metrics bridge + P025: the OpenMetrics snapshot must be provably
    # the same data as the trace it was bridged from.
    registry = registry_from_recorder(recorder)
    metrics_audit = lint_metrics_trace(registry, recorder)
    metrics_problems = [
        str(diagnostic) for diagnostic in metrics_audit.diagnostics
    ]
    if metrics_problems:
        failures.append(
            "metrics/trace consistency (P025) failed: "
            + "; ".join(metrics_problems)
        )
    metrics_path = args.metrics or f"{args.benchmark}.metrics.txt"
    write_openmetrics(registry, metrics_path)
    report["metrics"] = {
        "path": metrics_path,
        "p025_ok": not metrics_problems,
        "problems": metrics_problems,
    }

    flamegraph_path = args.flamegraph or f"{args.benchmark}.folded"
    write_flamegraph(profile, flamegraph_path)

    print(
        f"benchmark         : {args.benchmark} "
        f"({args.trials} trials, "
        f"{'batch ' + str(args.batch) if args.batch else 'serial'})"
    )
    print(format_profile_report(report, top=args.top))
    print(f"\nwrote {flamegraph_path} ({len(profile.stacks)} stacks)")
    print(f"wrote {metrics_path}")
    print(
        "certificate parity (P020): "
        + ("ok" if not parity_problems else "FAILED")
    )
    print(
        "metrics consistency (P025): "
        + ("ok" if not metrics_problems else "FAILED")
    )
    if args.json:
        atomic_write_json(args.json, report, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if failures:
        print("profile cross-check : FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: plan sanitizer + circuit/QASM/noise lint rules."""
    from .lint import LintConfig, all_rules, get_rule, lint_qasm_file, lint_suite

    if args.list_rules:
        for rule in all_rules():
            print(
                f"{rule.code}  {rule.severity.label:<7}  "
                f"{rule.name:<26}  {rule.description}"
            )
        return 0

    if args.explain:
        code = args.explain.upper()
        try:
            rule = get_rule(code)
        except KeyError:
            from .lint import registered_codes

            print(
                f"error: unknown diagnostic code {code!r}; known: "
                f"{', '.join(registered_codes())}",
                file=sys.stderr,
            )
            return 2
        print(f"{rule.code} ({rule.name}) — {rule.severity.label}, "
              f"scope: {rule.scope}")
        print(f"\n{rule.description}\n")
        print(rule.explanation)
        return 0

    config = LintConfig(
        disabled=frozenset(args.disable or ()),
        warnings_as_errors=args.werror,
    )
    if args.journal:
        from .core.resilience import JournalError, load_journal
        from .lint import lint_journal

        try:
            replay = load_journal(args.journal)
        except (JournalError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        layered = lint_trials = None
        if args.benchmarks:
            # Re-derive the exact run context so the fingerprint and the
            # finish-order prefix can be proven, not just the structure.
            from .bench.suite import resolve_benchmark

            if len(args.benchmarks) != 1:
                print(
                    "error: --journal takes exactly one --benchmarks name",
                    file=sys.stderr,
                )
                return 2
            circuit, model = resolve_benchmark(args.benchmarks[0])
            simulator = NoisySimulator(circuit, model, seed=args.seed)
            layered = simulator.layered
            lint_trials = simulator.sample(args.trials)
        results = {
            args.journal: lint_journal(
                replay, layered=layered, trials=lint_trials, config=config
            )
        }
    elif args.paths:
        results = {
            path: lint_qasm_file(path, config=config) for path in args.paths
        }
    else:
        try:
            results = lint_suite(
                benchmarks=args.benchmarks,
                num_trials=args.trials,
                seed=args.seed,
                config=config,
                runtime_crosscheck=not args.no_crosscheck,
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    num_errors = sum(len(result.errors) for result in results.values())
    # Rule checkers that crashed are analyzer bugs, not clean audits: the
    # exit status must not report success just because no diagnostic
    # fired.  (Previously the JSON path swallowed them entirely.)
    num_internal = sum(
        len(result.internal_errors) for result in results.values()
    )
    if args.format == "json":
        payload = {name: result.to_dict() for name, result in results.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        if num_internal:
            for name, result in results.items():
                for failure in result.internal_errors:
                    print(
                        f"internal error: {name}: {failure}", file=sys.stderr
                    )
            return 2
        return 1 if num_errors else 0

    for name, result in results.items():
        for failure in result.internal_errors:
            print(f"{name}: INTERNAL ERROR {failure}", file=sys.stderr)
        if result.diagnostics:
            print(f"{name}: {result.summary()}")
            for diagnostic in result:
                print(f"  {diagnostic.render()}")
        else:
            detail = ""
            if "peak_msv" in result.info:
                detail = (
                    f" ({result.info['num_instructions']} plan "
                    f"instructions, static peak MSV "
                    f"{result.info['peak_msv']})"
                )
            elif "completed_trials" in result.info:
                torn = (
                    ", torn tail discarded"
                    if result.info.get("truncated")
                    else ""
                )
                detail = (
                    f" ({result.info['records']} record(s), "
                    f"{result.info['completed_trials']} trial(s) "
                    f"committed{torn})"
                )
            print(f"{name}: ok{detail}")
    num_warnings = sum(len(result.warnings) for result in results.values())
    internal_note = (
        f", {num_internal} internal error(s)" if num_internal else ""
    )
    print(
        f"\nchecked {len(results)} target(s): {num_errors} error(s), "
        f"{num_warnings} warning(s){internal_note}"
    )
    if num_internal:
        return 2
    return 1 if num_errors else 0


def _advise_certificate(args: argparse.Namespace):
    """Build the resource certificate ``repro advise``/``--auto`` share.

    Returns ``(certificate, layered, trials, compiled, budget)`` for the
    benchmark named by ``args`` — sampled with the same seeded RNG a
    :class:`NoisySimulator` run would use, so the certificate describes
    exactly the run that ``--auto`` will launch.
    """
    import numpy as np

    from .bench.suite import resolve_benchmark
    from .circuits import layerize
    from .lint import build_certificate
    from .noise.sampling import sample_trials
    from .sim.compiled import CompiledCircuit

    circuit, model = resolve_benchmark(args.benchmark)
    layered = layerize(circuit)
    trials = sample_trials(
        layered, model, args.trials, np.random.default_rng(args.seed)
    )
    budget = None
    if getattr(args, "max_cache_bytes", None) is not None:
        from .core.cache import CacheBudget

        budget = CacheBudget(
            max_bytes=args.max_cache_bytes, mode=args.cache_degrade
        )
    compiled = CompiledCircuit(layered)
    certificate = build_certificate(
        layered,
        trials,
        benchmark=args.benchmark,
        seed=args.seed,
        depths=getattr(args, "depths", None) or (1, 2),
        workers=getattr(args, "candidate_workers", None) or (1, 2, 4),
        budget=budget,
        compiled=compiled,
        batches=getattr(args, "candidate_batches", None) or (1, 8, 16, 32, 64),
    )
    return certificate, layered, trials, compiled, budget


def _advised_settings(certificate) -> dict:
    """Translate a certificate's ``advice`` into ``NoisySimulator.run``
    keyword arguments plus the matching certificate task weights."""
    advice = certificate["advice"]
    settings = {
        "workers": advice["workers"],
        "partition_depth": advice["depth"] or 1,
        "max_cache_bytes": advice["max_cache_bytes"],
        "cache_degrade": advice["cache_degrade"] or "spill",
        "task_weights": None,
        "hybrid": bool(advice.get("hybrid")),
    }
    if advice["workers"]:
        for schedule in certificate["schedules"]:
            if schedule["depth"] == advice["depth"]:
                settings["task_weights"] = list(schedule["task_flops"])
                break
    return settings


def _cmd_advise(args: argparse.Namespace) -> int:
    """Static auto-tuner: rank (depth, workers, budget) candidates."""
    from .lint import (
        lint_certificate_schedule,
        validate_certificate,
        write_certificate,
    )

    try:
        certificate, layered, trials, _, budget = _advise_certificate(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    problems = validate_certificate(certificate)
    schedule_audit = lint_certificate_schedule(certificate)

    print(f"benchmark         : {args.benchmark}")
    print(
        f"plan              : {certificate['plan']['ops']} ops, "
        f"{certificate['plan']['flops']} flops, "
        f"peak MSV {certificate['plan']['memory']['peak_msv']} "
        f"({certificate['num_trials']} trials)"
    )
    if budget is not None:
        predicted = certificate["budget"]["predicted"]
        print(
            f"cache budget      : {budget.max_bytes} bytes ({budget.mode}); "
            f"predicted {predicted['spills']} spill(s), "
            f"{predicted['drops']} drop(s), "
            f"{predicted['recompute_ops']} recompute op(s)"
        )
    rows = [
        {
            "depth": c["depth"] or "-",
            "workers": c["workers"] or "serial",
            "batch": c.get("batch") or "-",
            "hybrid": "yes" if c.get("hybrid") else "-",
            "Mflop makespan": c["makespan_flops"] / 1e6,
            "mem states": c["memory_states"],
            "budget": "yes" if c["budget"] else "-",
            "score": c["score"],
        }
        for c in certificate["candidates"][: args.top]
    ]
    print(
        rows_to_table(
            rows,
            title="certified candidates (score = makespan x memory, "
            "lower is better)",
        )
    )
    advice = certificate["advice"]
    suggestion = [f"repro run {args.benchmark}", f"--trials {args.trials}"]
    if advice["workers"]:
        suggestion += [
            f"--workers {advice['workers']}",
            f"--partition-depth {advice['depth']}",
        ]
    if advice["max_cache_bytes"] is not None:
        suggestion += [
            f"--max-cache-bytes {advice['max_cache_bytes']}",
            f"--cache-degrade {advice['cache_degrade']}",
        ]
    # The batch width is the separate serial-wavefront advisory: print
    # it only when the ranked run is serial DFS, the run it was modeled
    # for (the in-process hybrid executor takes no width).
    if advice.get("batch_size") and not (advice["workers"] or advice.get("hybrid")):
        suggestion.append(f"--batch {advice['batch_size']}")
    if advice.get("hybrid"):
        suggestion.append("--hybrid")
    hybrid_section = certificate.get("hybrid")
    if hybrid_section is not None:
        memory = hybrid_section["memory"]
        stats = hybrid_section["stats"]
        print(
            f"hybrid            : "
            f"{'active' if hybrid_section['active'] else 'inactive'} "
            f"({stats['symbolic_gates']}/{stats['planned_ops']} gates "
            f"symbolic, {hybrid_section['modeled_speedup']:.2f}x flop "
            f"model); snapshot cache {memory['cache_resident_bytes']} B "
            f"vs dense {memory['dense_cache_resident_bytes']} B"
        )
    best_wave = max(
        certificate["wavefront"],
        key=lambda e: e["modeled_speedup"],
        default=None,
    )
    if best_wave is not None:
        print(
            f"wavefront         : best modeled width "
            f"{best_wave['batch']} ({best_wave['modeled_speedup']:.2f}x "
            f"fewer-dispatch model, {best_wave['memory_states']} states "
            "working set; ops conserved exactly)"
        )
    print(f"\nadvice            : {' '.join(suggestion)}")
    print("                    (or: repro run "
          f"{args.benchmark} --trials {args.trials} --auto)")

    status = "ok" if schedule_audit.ok and not problems else "FAILED"
    print(f"certificate check : {status} (schema + P022)")
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    for diagnostic in schedule_audit.errors:
        print(f"  {diagnostic.render()}", file=sys.stderr)

    if args.json:
        write_certificate(args.json, certificate)
        print(f"\nwrote {args.json}")
    return 0 if status == "ok" else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, run_server

    config = ServeConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        exec_threads=args.exec_threads,
        shared_budget_bytes=(
            None if args.shared_budget_mb == 0
            else args.shared_budget_mb * 1024 * 1024
        ),
        shared_mode=args.shared_mode,
        install_signal_handlers=True,
    )
    print(f"serving from {config.state_dir} on {config.host} "
          f"(endpoint.json appears once bound; SIGTERM stops resumably)")
    run_server(config)
    print("server exited cleanly")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError

    spec = {
        "circuit": {"benchmark": args.benchmark},
        "noise": "ibm_yorktown",
        "trials": args.trials,
        "seed": args.seed,
        "workers": args.workers,
        "priority": args.priority,
        "label": args.label or args.benchmark,
    }
    if args.timeout is not None:
        spec["timeout"] = args.timeout
    client = ServeClient.from_state_dir(args.state_dir)
    try:
        if args.stream:
            streamed = [0]

            def tick(_index: int, _bits: str) -> None:
                streamed[0] += 1

            result = client.submit_streaming(spec, on_trial=tick)
            print(f"streamed {streamed[0]} trials")
        else:
            accepted = client.submit_with_backoff(spec)
            print(f"accepted as {accepted['job_id']} "
                  f"(position {accepted['position']})")
            outcome = client.wait(accepted["job_id"])
            if outcome["state"] != "done":
                print(f"job ended {outcome['state']}: "
                      f"{outcome.get('message')}", file=sys.stderr)
                return 1
            result = outcome["result"]
    except ServeError as exc:
        print(f"submit failed ({exc.code}): {exc}", file=sys.stderr)
        return 1
    top = sorted(
        result["counts"].items(), key=lambda item: -item[1]
    )[: args.top]
    print(f"job {result['job_id']}: {result['num_trials']} trials, "
          f"{result['ops_applied']} ops applied, "
          f"{result['ops_shared']} adopted from the shared store")
    for bits, count in top:
        print(f"  {bits}  {count}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError

    client = ServeClient.from_state_dir(args.state_dir)
    try:
        jobs = client.list_jobs()
    except (ServeError, OSError) as exc:
        print(f"cannot reach server: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs")
        return 0
    width = max(len(job["job_id"]) for job in jobs)
    for job in jobs:
        print(f"{job['job_id']:<{width}}  {job['state']:<11} "
              f"{job['priority']:<11} trials={job['trials']:<6} "
              f"streamed={job['trials_streamed']:<6} {job['label']}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduction harness for 'Eliminating Redundant Computation in "
            "Noisy Quantum Computing Simulation' (DAC 2020)."
        ),
    )
    parser.add_argument("--seed", type=int, default=2020)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="Table I benchmark characteristics")
    p1.add_argument("--json", default=None)
    sub.add_parser("device", help="Fig. 4 Yorktown calibration data")

    p5 = sub.add_parser("fig5", help="normalized computation, realistic model")
    p5.add_argument("--benchmarks", nargs="*", default=None)
    p5.add_argument("--json", default=None)
    p6 = sub.add_parser("fig6", help="MSVs, realistic model")
    p6.add_argument("--benchmarks", nargs="*", default=None)
    p6.add_argument("--json", default=None)

    p7 = sub.add_parser("fig7", help="normalized computation, scalability")
    p7.add_argument("--trials", type=int, default=100_000)
    p7.add_argument("--engine", choices=("packed", "object"), default="packed")
    p7.add_argument("--json", default=None)
    p8 = sub.add_parser("fig8", help="MSVs, scalability")
    p8.add_argument("--trials", type=int, default=100_000)
    p8.add_argument("--engine", choices=("packed", "object"), default="packed")
    p8.add_argument("--json", default=None)

    pab = sub.add_parser("ablations", help="design-choice ablation table")
    pab.add_argument("--benchmarks", nargs="*", default=None)
    pab.add_argument("--trials", type=int, default=2048)

    ppred = sub.add_parser(
        "predict", help="analytic saving prediction vs measurement"
    )
    ppred.add_argument("benchmark", choices=benchmark_names())
    ppred.add_argument("--trials", type=int, default=1024)

    pdraw = sub.add_parser("draw", help="ASCII-render a benchmark circuit")
    pdraw.add_argument("benchmark", choices=benchmark_names())
    pdraw.add_argument("--compiled", action="store_true")
    pdraw.add_argument("--width", type=int, default=120)

    plint = sub.add_parser(
        "lint",
        help="static plan sanitizer + circuit/QASM lint",
        description=(
            "With no arguments, audit every Table I benchmark: lint the "
            "compiled circuit and noise model, sample a seeded trial set, "
            "build the execution plan, prove it sound with the symbolic "
            "sanitizer and cross-check the static peak-MSV bound against a "
            "counting-backend run.  With file arguments, lint OpenQASM "
            "programs instead.  Exit status 1 when any error-severity "
            "diagnostic fires."
        ),
    )
    plint.add_argument(
        "paths", nargs="*", help="OpenQASM files (default: benchmark audit)"
    )
    plint.add_argument("--benchmarks", nargs="*", default=None)
    plint.add_argument("--trials", type=int, default=256)
    plint.add_argument("--format", choices=("text", "json"), default="text")
    plint.add_argument(
        "--disable", nargs="*", default=None, metavar="CODE",
        help="diagnostic codes to suppress",
    )
    plint.add_argument(
        "--werror", action="store_true", help="treat warnings as errors"
    )
    plint.add_argument(
        "--no-crosscheck", action="store_true",
        help="skip the runtime peak-MSV cross-check",
    )
    plint.add_argument(
        "--list-rules", action="store_true",
        help="print every registered diagnostic code and exit",
    )
    plint.add_argument(
        "--journal", default=None, metavar="PATH",
        help="audit a run journal (rule P019) instead of the benchmark "
        "suite; pass --benchmarks NAME (with --trials/--seed) to also "
        "prove the fingerprint and finish-order prefix against that run",
    )
    plint.add_argument(
        "--explain", default=None, metavar="CODE",
        help="print the registered rationale for one diagnostic code "
        "(why the rule exists, what a finding means) and exit",
    )

    padvise = sub.add_parser(
        "advise",
        help="static auto-tuner: certified (depth, workers, budget) ranking",
        description=(
            "Build a machine-checkable resource certificate for one "
            "benchmark — per-segment flop/byte costs from the kernel "
            "taxonomy, the full resident-memory timeline (with predicted "
            "spill/drop events under --max-cache-bytes), and LPT makespans "
            "for every candidate partition depth and worker count — then "
            "rank the candidates by certified makespan x memory and print "
            "the recommended settings.  No statevector is ever allocated.  "
            "Feed the pick into a real run with 'repro run <benchmark> "
            "--auto'.  Exit status 1 if the certificate fails its own "
            "consistency proof (P022)."
        ),
    )
    padvise.add_argument("benchmark", choices=all_benchmark_names())
    padvise.add_argument("--trials", type=int, default=1024)
    padvise.add_argument(
        "--depths", nargs="*", type=int, default=None, metavar="D",
        help="candidate partition depths (default: 1 2)",
    )
    padvise.add_argument(
        "--candidate-workers", nargs="*", type=int, default=None,
        metavar="N", help="candidate worker counts (default: 1 2 4)",
    )
    padvise.add_argument(
        "--candidate-batches", nargs="*", type=int, default=None,
        metavar="W",
        help="candidate wavefront batch widths (default: 1 8 16 32 64)",
    )
    padvise.add_argument(
        "--max-cache-bytes", type=int, default=None, metavar="BYTES",
        help="also certify degradation under this snapshot-cache budget",
    )
    padvise.add_argument(
        "--cache-degrade", choices=("spill", "drop"), default="spill",
    )
    padvise.add_argument(
        "--top", type=int, default=8,
        help="how many ranked candidates to print (default: 8)",
    )
    padvise.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full ResourceCertificate JSON (atomic)",
    )

    pbench = sub.add_parser(
        "bench",
        help="perf harness: compiled vs interpreted statevector execution",
        description=(
            "Time the optimized executor over the Table I suite with the "
            "compiled-kernel backend and the interpreted tensordot backend "
            "against the same prebuilt plan, then report wall time, ops/sec "
            "and speedup.  Unless --no-check is passed, also prove exactness "
            "(equal ops_applied, equal peak MSV, allclose final states); "
            "exit status 1 if any benchmark diverges.  --json emits the "
            "BENCH_<nnnn>.json payload committed with each PR."
        ),
    )
    pbench.add_argument("--benchmarks", nargs="*", default=None)
    pbench.add_argument("--trials", type=int, default=1024)
    pbench.add_argument("--repeats", type=int, default=3)
    pbench.add_argument("--warmup", type=int, default=1)
    pbench.add_argument("--json", default=None)
    pbench.add_argument(
        "--no-check", action="store_true",
        help="skip the compiled-vs-interpreted equivalence proof",
    )
    pbench.add_argument(
        "--trace", action="store_true",
        help="attach a recorded-run profile per benchmark (outside the "
        "timed loop) and cross-check it against the run's counters",
    )
    pbench.add_argument(
        "--workers", nargs="*", type=int, default=None, metavar="N",
        help="also time run_parallel at these worker counts and prove "
        "the merged results bit-identical to the serial run",
    )
    pbench.add_argument(
        "--partition-depth", type=int, default=1,
        help="trie cut depth for the parallel partition (default 1)",
    )
    pbench.add_argument(
        "--auto", action="store_true",
        help="attach a ResourceCertificate advice per benchmark and, when "
        "it picks a parallel schedule, time one extra section with the "
        "certificate's task weights driving the scheduler",
    )
    pbench.add_argument(
        "--batch", nargs="*", type=int, default=None, metavar="W",
        help="also time the trial-batched wavefront executor at these "
        "widths and prove its payload stream bit-identical to the serial "
        "compiled run (plus a dense-kernel microbench in the payload)",
    )
    pbench.add_argument(
        "--hybrid", action="store_true",
        help="also time the Clifford/Pauli-frame fast path and prove "
        "every payload bit-identical to the serial compiled run (plus a "
        "frame-vs-dense microbench in the payload)",
    )
    pbench.add_argument(
        "--compare", default=None, metavar="BASELINE.json",
        help="regression gate: compare per-section speedups against a "
        "baseline BENCH_<nnnn>.json payload; exit 1 when any section "
        "common to both runs regresses beyond --compare-tolerance",
    )
    pbench.add_argument(
        "--compare-tolerance", type=float, default=0.35, metavar="FRAC",
        help="allowed fractional speedup loss vs the baseline before a "
        "section counts as regressed (default 0.35)",
    )
    pbench.add_argument(
        "--compare-noise-floor", type=float, default=0.005, metavar="SECONDS",
        help="sections whose best time is below this on either side are "
        "reported but never failed — timer jitter, not signal "
        "(default 0.005)",
    )

    prun = sub.add_parser("run", help="run one benchmark end to end")
    prun.add_argument("benchmark", choices=all_benchmark_names())
    prun.add_argument("--trials", type=int, default=1024)
    prun.add_argument(
        "--mode", choices=("optimized", "baseline"), default="optimized"
    )
    prun.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="execute the partitioned plan across N worker processes "
        "(optimized mode only; 0 = serial)",
    )
    prun.add_argument(
        "--partition-depth", type=int, default=1,
        help="trie cut depth for the parallel partition (default 1)",
    )
    prun.add_argument(
        "--batch", type=int, default=0, metavar="W",
        help="trial-batched wavefront execution: vectorize kernels over "
        "up to W trials at once (optimized mode, compiled backend; "
        "results stay bit-identical to serial; 0 = off)",
    )
    prun.add_argument(
        "--hybrid", action="store_true",
        help="Clifford/Pauli-frame fast path: run pure-Clifford trie "
        "spans symbolically over shared dense anchors and materialize "
        "amplitudes only at non-Clifford gates or Finish (optimized "
        "mode, compiled backend; bit-identical to serial dense; "
        "composes with --workers, where it runs the shared prefix — "
        "--batch then batches the workers' sub-plans — but not with "
        "--batch alone)",
    )
    prun.add_argument(
        "--json", default=None, metavar="PATH",
        help="also dump metrics and counts as JSON",
    )
    prun.add_argument(
        "--journal", default=None, metavar="PATH",
        help="crash-safe run journal: record finish payloads as they "
        "stream; re-running with the same path after a crash resumes "
        "with zero recomputation of committed trials",
    )
    prun.add_argument(
        "--max-cache-bytes", type=int, default=None, metavar="BYTES",
        help="snapshot-cache byte budget; coldest snapshots degrade per "
        "--cache-degrade when the budget is exceeded (results unchanged)",
    )
    prun.add_argument(
        "--cache-degrade", choices=("spill", "drop"), default="spill",
        help="over-budget policy: spill to disk and reload, or drop and "
        "recompute (default: spill)",
    )
    prun.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline for parallel workers; a hung worker is "
        "killed and its task re-run elsewhere",
    )
    prun.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="parallel task retry budget before the parent runs the "
        "task inline (default: 2)",
    )
    prun.add_argument(
        "--auto", action="store_true",
        help="build a resource certificate first and run with its advised "
        "workers/depth/schedule weights, then cross-check the recorded "
        "run against the certificate (rules P020/P021; exit 1 on "
        "divergence)",
    )

    ptrace = sub.add_parser(
        "trace",
        help="recorded run: Chrome-trace file + profile summary",
        description=(
            "Run one benchmark with the trace recorder attached, write the "
            "events as a chrome://tracing (Perfetto) JSON file, and print a "
            "profile summary: hottest segments, the MSV high-water timeline, "
            "cache hit/evict ratios and the kernel-class histogram.  The "
            "trace is then cross-checked: counters replayed from the events "
            "must equal the run's RunMetrics, and the recorded cache events "
            "must match the static plan's slot schedule (lint rule P017).  "
            "Exit status 1 on any cross-check failure."
        ),
    )
    ptrace.add_argument("benchmark", choices=all_benchmark_names())
    ptrace.add_argument("--trials", type=int, default=1024)
    ptrace.add_argument(
        "--mode", choices=("optimized", "baseline"), default="optimized"
    )
    ptrace.add_argument(
        "--backend",
        choices=("statevector", "statevector-interpreted", "counting"),
        default="statevector",
    )
    ptrace.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="record a partitioned parallel run instead of a serial one; "
        "worker events merge into per-worker trace tracks and the "
        "cross-check validates each track against its sub-plans",
    )
    ptrace.add_argument(
        "--partition-depth", type=int, default=1,
        help="trie cut depth for the parallel partition (default 1)",
    )
    ptrace.add_argument(
        "--batch", type=int, default=0, metavar="W",
        help="record a trial-batched wavefront run (optimized mode, "
        "statevector backend; exclusive with --workers); the profile "
        "surfaces per-kind kernel.batched.* dispatch counters and the "
        "cross-check proves the batched spans against the serial plan "
        "(P020)",
    )
    ptrace.add_argument(
        "--out", default=None, metavar="PATH",
        help="trace file path (default: <benchmark>.trace.json)",
    )
    ptrace.add_argument(
        "--top", type=int, default=10,
        help="how many hottest segments to show",
    )

    pprofile = sub.add_parser(
        "profile",
        help="roofline profiler: attributed wall time vs certified costs",
        description=(
            "Run one benchmark with the trace recorder attached, fold the "
            "span stream into exclusive per-span wall time, and divide "
            "each advance segment's measured seconds into the flops and "
            "bytes its resource certificate certifies — achieved vs peak "
            "GFLOP/s and GB/s, arithmetic intensity, memory- or "
            "compute-bound verdict, and the cache-residency band the "
            "paper's working-set argument predicts.  Also emits a "
            "collapsed-stack flamegraph and an OpenMetrics snapshot, and "
            "proves both views against the trace: certificate parity "
            "(P020), metrics consistency (P025) and 95% attribution "
            "coverage are hard failures (exit 1)."
        ),
    )
    pprofile.add_argument("benchmark", choices=all_benchmark_names())
    pprofile.add_argument("--trials", type=int, default=256)
    pprofile.add_argument("--seed", type=int, default=2020)
    pprofile.add_argument(
        "--batch", type=int, default=0, metavar="W",
        help="profile the trial-batched wavefront executor at width W "
        "instead of the serial compiled path (0 = serial)",
    )
    pprofile.add_argument(
        "--top", type=int, default=12,
        help="how many hotspot rows to show",
    )
    pprofile.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full repro-profile/1 report as JSON",
    )
    pprofile.add_argument(
        "--flamegraph", default=None, metavar="PATH",
        help="collapsed-stack output path (default: <benchmark>.folded)",
    )
    pprofile.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="OpenMetrics snapshot path (default: <benchmark>.metrics.txt)",
    )
    pprofile.add_argument(
        "--calibration-repeats", type=int, default=3, metavar="N",
        help="best-of-N repeats for the peak GFLOP/s and GB/s "
        "microbenchmarks (default 3)",
    )

    pserve = sub.add_parser(
        "serve",
        help="long-lived job server with cross-job prefix sharing",
        description=(
            "Run the crash-safe simulation service: accepts circuit+noise+"
            "trials jobs over a line-delimited JSON socket (plus HTTP GET "
            "/metrics on the same port), admits them through a bounded "
            "two-class queue with 429-style backpressure, journals every "
            "accepted job before execution, and shares prefix states "
            "across jobs bit-identically.  A killed server resumes all "
            "in-flight jobs from their journals on restart."
        ),
    )
    pserve.add_argument("state_dir", help="service state directory")
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral, published in endpoint.json)",
    )
    pserve.add_argument(
        "--max-pending", type=int, default=16,
        help="admission bound on queued+running jobs (excess gets 429s)",
    )
    pserve.add_argument(
        "--exec-threads", type=int, default=1,
        help="concurrent job executors (1 maximizes cross-job sharing)",
    )
    pserve.add_argument(
        "--shared-budget-mb", type=int, default=256, metavar="MB",
        help="byte budget for the cross-job prefix store (0 = unbounded)",
    )
    pserve.add_argument(
        "--shared-mode", choices=("spill", "drop"), default="spill",
        help="eviction policy when the shared store exceeds its budget",
    )

    psubmit = sub.add_parser(
        "submit", help="submit one benchmark job to a running server"
    )
    psubmit.add_argument("state_dir", help="server state directory")
    psubmit.add_argument("benchmark", choices=all_benchmark_names())
    psubmit.add_argument("--trials", type=int, default=1024)
    psubmit.add_argument("--workers", type=int, default=0)
    psubmit.add_argument(
        "--priority", choices=("interactive", "batch"), default="interactive"
    )
    psubmit.add_argument("--timeout", type=float, default=None)
    psubmit.add_argument("--label", default=None)
    psubmit.add_argument(
        "--stream", action="store_true",
        help="consume the per-trial result stream instead of polling",
    )
    psubmit.add_argument(
        "--top", type=int, default=8, help="result rows to print"
    )

    pjobs = sub.add_parser(
        "jobs", help="list the jobs a running server knows about"
    )
    pjobs.add_argument("state_dir", help="server state directory")

    args = parser.parse_args(argv)
    handlers = {
        "advise": _cmd_advise,
        "table1": _cmd_table1,
        "device": _cmd_device,
        "fig5": _cmd_fig5,
        "fig6": _cmd_fig6,
        "fig7": _cmd_fig7,
        "fig8": _cmd_fig8,
        "ablations": _cmd_ablations,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "predict": _cmd_predict,
        "draw": _cmd_draw,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

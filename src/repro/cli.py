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
from typing import Dict, List, Optional, Sequence

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


def _trial_count(text: str) -> int:
    """The argparse type of every ``--trials``: an int >= 1, so a bad
    count is a usage error (exit 2) before anything runs."""
    try:
        value: Optional[int] = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


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
    records = run_scalability_experiment(num_trials=args.trials, seed=args.seed)
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
    records = run_scalability_experiment(num_trials=args.trials, seed=args.seed)
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


def _reject_options(**options) -> bool:
    """Print the options table's message if it rejects ``options``."""
    from .core.options import OptionError, validate

    try:
        validate(**options)
    except OptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return True
    return False


def _sampled(args: argparse.Namespace):
    """``args.benchmark``'s simulator, seeded, and its first ``args.trials`` trials."""
    from .bench.suite import resolve_benchmark

    circuit, model = resolve_benchmark(args.benchmark)
    simulator = NoisySimulator(circuit, model, seed=args.seed)
    return simulator, simulator.sample(args.trials)


class _RecordedRun:
    """The front ``run``, ``trace`` and ``profile`` share: ``_sampled``'s
    trials run with ``options``, recorded when ``record``.
    ``certify(simulator, trials)`` runs first and returns the certificate
    the checks compare the run against.
    """

    def __init__(self, args, options, record=True, certify=None) -> None:
        from .obs import InMemoryRecorder

        self.simulator, self.trials = _sampled(args)
        self.certificate = certify(self.simulator, self.trials) if certify else None
        self.options = options
        self.recorder = InMemoryRecorder() if record else None
        start = time.perf_counter()
        self.result = self.simulator.run(
            trials=self.trials, recorder=self.recorder, **self.options
        )
        self.wall_s = time.perf_counter() - start

    def checks(self) -> Dict[str, List[str]]:
        """The problems of each check the picked executor's evidence names."""
        from .lint import check_recorded_run

        return check_recorded_run(
            self.simulator.layered, self.trials, self.recorder, self.result.metrics,
            certificate=self.certificate, compiled=self.simulator.compiled_circuit(),
            **self.options,
        )


def _report_checks(label: str, checks: Dict[str, List[str]]) -> int:
    """Print ``label``'s verdict over ``checks``; the exit status."""
    problems = [problem for found in checks.values() for problem in found]
    if problems:
        print(f"{label} : FAILED", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"{label} : ok ({', '.join(checks)})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .obs import format_run_metrics

    options = {
        "mode": args.mode,
        "journal": args.journal,
        "max_cache_bytes": args.max_cache_bytes,
        "hybrid": args.hybrid,
    }
    if _reject_options(**options):
        return 2

    certify = None
    if args.auto:
        # The certificate describes the serial schedule of one fresh
        # optimized run, so --auto checks only such a run.
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

        def certify(simulator, trials):
            return _advise_certificate(args, simulator, trials)

    run = _RecordedRun(args, options, record=args.auto, certify=certify)
    result, elapsed = run.result, run.wall_s
    metrics = result.metrics
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "mode": args.mode,
            "seed": args.seed,
            "executor": result.executor,
            "metrics": metrics.as_dict(),
            "counts": result.counts,
            "wall_s": elapsed,
        }
        if args.auto:
            payload["advice"] = run.certificate["advice"]
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
    print(f"executor          : {result.executor}")
    if result.executor == "hybrid":
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
            "(coldest snapshots spill on overflow; nominal peak MSV "
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
        return _report_checks("certificate cross-check", run.checks())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one benchmark with recording on; emit trace file + profile."""
    from .obs import format_trace_summary, summarize, write_chrome_trace

    options = {
        "mode": args.mode,
        "backend": args.backend,
    }
    if _reject_options(**options):
        return 2
    run = _RecordedRun(args, options)

    out = args.out or f"{args.benchmark}.trace.json"
    write_chrome_trace(
        run.recorder,
        out,
        metadata={
            "benchmark": args.benchmark,
            "mode": args.mode,
            "backend": args.backend,
            "seed": args.seed,
            "num_trials": args.trials,
        },
    )

    print(f"benchmark         : {args.benchmark}")
    print(f"backend           : {args.backend}")
    print(format_trace_summary(summarize(run.recorder), top=args.top))
    print(f"\nwrote {out} ({len(run.recorder.events)} events)")
    return _report_checks("trace cross-check", run.checks())


def _cmd_profile(args: argparse.Namespace) -> int:
    """Roofline profiler: attribute wall time to certified flops/bytes."""
    from .core.schedule import build_plan
    from .lint import analyze_plan
    from .obs import (
        build_profile_report,
        fold_spans,
        format_profile_report,
        measure_peaks,
        registry_from_recorder,
        write_flamegraph,
        write_openmetrics,
    )

    def certify(simulator, trials):
        # The roofline numerators are the certificate's per-segment flop
        # counts.  Certified before the run, which then replays the
        # segments the analysis compiled.
        analysis = analyze_plan(
            build_plan(simulator.layered, trials), simulator.layered,
            compiled=simulator.compiled_circuit(),
        )
        return {"plan": analysis.to_dict(), "num_trials": len(trials)}

    run = _RecordedRun(args, {}, certify=certify)
    simulator, recorder, certificate = run.simulator, run.recorder, run.certificate

    # P020 proves those numerators against the recorded spans (an
    # unproven numerator is noise) and P025 proves the OpenMetrics
    # snapshot is the same data as the trace it is bridged from.
    checks = run.checks()
    profile = fold_spans(recorder)
    checks["coverage"] = [
        f"attributed exclusive time covers {profile.coverage:.1%} of "
        "the run span (must be within 5%)"
    ] if abs(profile.coverage - 1.0) > 0.05 else []

    peaks = measure_peaks(repeats=args.calibration_repeats)
    report = build_profile_report(
        recorder,
        certificate["plan"]["segments"],
        simulator.compiled_circuit(),
        simulator.layered.num_qubits,
        peaks=peaks,
        top=args.top,
        meta={
            "benchmark": args.benchmark,
            "mode": "optimized",
            "seed": args.seed,
            "num_trials": args.trials,
        },
    )
    report["parity"] = {"ok": not checks["P020"], "problems": checks["P020"]}

    metrics_path = args.metrics or f"{args.benchmark}.metrics.txt"
    write_openmetrics(registry_from_recorder(recorder), metrics_path)
    report["metrics"] = {
        "path": metrics_path,
        "p025_ok": not checks["P025"],
        "problems": checks["P025"],
    }

    flamegraph_path = args.flamegraph or f"{args.benchmark}.folded"
    write_flamegraph(profile, flamegraph_path)

    print(f"benchmark         : {args.benchmark} ({args.trials} trials)")
    print(format_profile_report(report, top=args.top))
    print(f"\nwrote {flamegraph_path} ({len(profile.stacks)} stacks)")
    print(f"wrote {metrics_path}")
    print(f"certificate parity (P020): {'FAILED' if checks['P020'] else 'ok'}")
    print(f"metrics consistency (P025): {'FAILED' if checks['P025'] else 'ok'}")
    if args.json:
        atomic_write_json(args.json, report, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return _report_checks("profile cross-check", checks)


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


def _advise_certificate(args: argparse.Namespace, simulator, trials):
    """The resource certificate ``repro advise`` prints and ``run --auto``
    checks its run against, for the ``trials`` ``simulator`` sampled."""
    from .lint import build_certificate

    budget = None
    if args.max_cache_bytes is not None:
        from .core.cache import CacheBudget

        budget = CacheBudget(max_bytes=args.max_cache_bytes)
    return build_certificate(
        simulator.layered,
        trials,
        benchmark=args.benchmark,
        seed=args.seed,
        budget=budget,
        compiled=simulator.compiled_circuit(),
    )


def _cmd_advise(args: argparse.Namespace) -> int:
    """Resource certificate of one benchmark run, and the executor it picks."""
    from .core.schedule import build_plan
    from .lint import analyze_hybrid, validate_certificate, write_certificate

    if _reject_options(max_cache_bytes=args.max_cache_bytes):
        return 2
    try:
        simulator, trials = _sampled(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    certificate = _advise_certificate(args, simulator, trials)
    # Only advise reads the hybrid section, so it is built here rather
    # than in every certificate (run --auto checks none of it).
    certificate["hybrid"] = analyze_hybrid(
        simulator.layered, build_plan(simulator.layered, trials),
        compiled=simulator.compiled_circuit(),
    )
    problems = validate_certificate(certificate)

    print(f"benchmark         : {args.benchmark}")
    print(
        f"plan              : {certificate['plan']['ops']} ops, "
        f"{certificate['plan']['flops']} flops, "
        f"peak MSV {certificate['plan']['memory']['peak_msv']} "
        f"({certificate['num_trials']} trials)"
    )
    budget = certificate["budget"]
    if budget is not None:
        predicted = budget["predicted"]
        print(
            f"cache budget      : {budget['max_bytes']} bytes; "
            f"predicted {predicted['spills']} spill(s)"
        )
    hybrid_section = certificate["hybrid"]
    memory = hybrid_section["memory"]
    stats = hybrid_section["stats"]
    print(
        f"hybrid            : "
        f"{'active' if hybrid_section['active'] else 'inactive'} "
        f"({stats['symbolic_gates']}/{stats['planned_ops']} gates "
        f"symbolic); snapshot cache {memory['cache_resident_bytes']} B "
        f"vs dense {memory['dense_cache_resident_bytes']} B"
    )
    advice = certificate["advice"]
    suggestion = [f"repro run {args.benchmark}", f"--trials {args.trials}"]
    if advice["max_cache_bytes"] is not None:
        suggestion.append(f"--max-cache-bytes {advice['max_cache_bytes']}")
    print(f"\nexecutor          : {advice['executor']} (the pick of the run below)")
    print(f"advice            : {' '.join(suggestion)}")
    print(f"                    (or, cross-checked: {' '.join(suggestion)} --auto)")

    status = "FAILED" if problems else "ok"
    print(f"certificate check : {status} (schema)")
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)

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
        install_signal_handlers=True,
    )
    print(f"serving from {config.state_dir} on {config.host} "
          f"(endpoint.json appears once bound; SIGTERM stops resumably)")
    run_server(config)
    print("server exited cleanly")
    return 0


def _client(state_dir: str):
    """The client of the server running at ``state_dir``, or ``None``
    after saying that none is."""
    from .serve import ServeClient

    try:
        return ServeClient.from_state_dir(state_dir)
    except FileNotFoundError:
        print(f"error: no server is running at {state_dir} "
              "(no endpoint.json)", file=sys.stderr)
        return None


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeError

    spec = {
        "circuit": {"benchmark": args.benchmark},
        "noise": "ibm_yorktown",
        "trials": args.trials,
        "seed": args.seed,
        "priority": args.priority,
        "label": args.label or args.benchmark,
    }
    if args.timeout is not None:
        spec["timeout"] = args.timeout
    client = _client(args.state_dir)
    if client is None:
        return 1
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
    from .serve import ServeError

    client = _client(args.state_dir)
    if client is None:
        return 1
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
    p7.add_argument("--trials", type=_trial_count, default=100_000)
    p7.add_argument("--json", default=None)
    p8 = sub.add_parser("fig8", help="MSVs, scalability")
    p8.add_argument("--trials", type=_trial_count, default=100_000)
    p8.add_argument("--json", default=None)

    pab = sub.add_parser("ablations", help="design-choice ablation table")
    pab.add_argument("--benchmarks", nargs="*", default=None)
    pab.add_argument("--trials", type=_trial_count, default=2048)

    ppred = sub.add_parser(
        "predict", help="analytic saving prediction vs measurement"
    )
    ppred.add_argument("benchmark", choices=benchmark_names())
    ppred.add_argument("--trials", type=_trial_count, default=1024)

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
    plint.add_argument("--trials", type=_trial_count, default=256)
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
        help="resource certificate of one run and the executor it picks",
        description=(
            "Build a machine-checkable resource certificate for one "
            "benchmark — per-segment flop/byte costs from the kernel "
            "taxonomy, the full resident-memory timeline (with predicted "
            "spill events under --max-cache-bytes) and the hybrid "
            "schedule's static shape — and print "
            "the executor the default pick rule runs these trials on, "
            "with the 'repro run' line that runs them.  No statevector is "
            "ever allocated.  'repro run <benchmark> --auto' checks a real "
            "run against the certificate.  Exit status 1 if the "
            "certificate fails its schema check."
        ),
    )
    padvise.add_argument("benchmark", choices=all_benchmark_names())
    padvise.add_argument("--trials", type=_trial_count, default=1024)
    padvise.add_argument(
        "--max-cache-bytes", type=int, default=None, metavar="BYTES",
        help="also certify spilling under this snapshot-cache budget "
        "(the advised run is then serial DFS under it)",
    )
    padvise.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full ResourceCertificate JSON (atomic)",
    )

    prun = sub.add_parser("run", help="run one benchmark end to end")
    prun.add_argument("benchmark", choices=all_benchmark_names())
    prun.add_argument("--trials", type=_trial_count, default=1024)
    prun.add_argument(
        "--mode", choices=("optimized", "baseline"), default="optimized"
    )
    prun.add_argument(
        "--hybrid", action="store_true", default=None,
        help="force the Clifford/Pauli-frame fast path: run pure-Clifford "
        "trie spans symbolically over shared dense anchors and materialize "
        "amplitudes only at non-Clifford gates or Finish (optimized "
        "mode, compiled backend; bit-identical to serial dense; not "
        "with --journal or --max-cache-bytes).  Without it a "
        "run with no executor option takes the fast path when the "
        "circuit is wide and frame-safe (bv14), serial DFS otherwise",
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
        help="snapshot-cache byte budget for serial DFS and --journal "
        "runs; coldest snapshots spill to disk before a snapshot would "
        "exceed it, and reload on restore (results unchanged; not with "
        "--hybrid)",
    )
    prun.add_argument(
        "--auto", action="store_true",
        help="build a resource certificate first, run the given options "
        "unchanged, then cross-check the recorded run with its "
        "executor's evidence, P020/P021/P023 against the certificate (exit 1 "
        "on divergence; not with --mode baseline or --journal)",
    )

    ptrace = sub.add_parser(
        "trace",
        help="recorded run: Chrome-trace file + profile summary",
        description=(
            "Run one benchmark with the trace recorder attached, write the "
            "events as a chrome://tracing (Perfetto) JSON file, and print a "
            "profile summary: hottest segments, the MSV high-water timeline, "
            "cache hit/evict ratios and the kernel-class histogram.  The "
            "trace is then cross-checked with the evidence the options "
            "table names for the executor that ran (counter replay and "
            "lint rules P017-P025; see repro.lint.check_recorded_run).  "
            "Exit status 1 on any cross-check failure."
        ),
    )
    ptrace.add_argument("benchmark", choices=all_benchmark_names())
    ptrace.add_argument("--trials", type=_trial_count, default=1024)
    ptrace.add_argument(
        "--mode", choices=("optimized", "baseline"), default="optimized"
    )
    ptrace.add_argument(
        "--backend",
        choices=("statevector", "statevector-interpreted", "counting"),
        default="statevector",
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
            "proves both views against the trace: the executor's evidence "
            "(certificate parity P020 and metrics consistency P025 among "
            "it) and 95% attribution coverage are hard failures (exit 1)."
        ),
    )
    pprofile.add_argument("benchmark", choices=all_benchmark_names())
    pprofile.add_argument("--trials", type=_trial_count, default=256)
    # The global --seed spelled after the subcommand; SUPPRESS keeps an
    # omitted one from overwriting `repro --seed N profile ...`.
    pprofile.add_argument("--seed", type=int, default=argparse.SUPPRESS)
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
        help="byte budget for the cross-job prefix store, which evicts "
        "least-recently-used entries past it (0 = unbounded)",
    )

    psubmit = sub.add_parser(
        "submit", help="submit one benchmark job to a running server"
    )
    psubmit.add_argument("state_dir", help="server state directory")
    psubmit.add_argument("benchmark", choices=all_benchmark_names())
    psubmit.add_argument("--trials", type=_trial_count, default=1024)
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

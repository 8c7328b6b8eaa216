"""High-level lint entry points used by the CLI and the test suite.

These functions compose the low-level passes into whole-artifact checks:
a QASM file (parse + circuit rules), a plan (sanitizer + optional runtime
cross-check), a full benchmark (compiled circuit + sampled trials +
noise model + plan, optionally verified against a counting-backend run)
and a recorded run (the checks its executor's evidence names).
Heavyweight imports (benchmarks, backends) are deferred into the function
bodies so ``import repro.lint`` stays cheap.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..circuits.layers import LayeredCircuit
from ..circuits.qasm import QasmError, parse_qasm
from ..core.cache import CacheBudget
from ..core.events import Trial
from ..core.executor import ExecutionOutcome
from ..core.options import OPTIONS, pick
from ..core.schedule import ExecutionPlan, build_plan
from ..obs.metrics import registry_from_recorder
from ..obs.summary import outcome_from_trace, verify_trace
from .circuit_rules import lint_circuit
from .costmodel import analyze_plan, budget_section
from .diagnostics import LintConfig, LintResult, Severity
from .journal_rules import lint_journal
from .metrics_rules import lint_metrics_trace
from .plan_sanitizer import sanitize_plan
from .registry import make_diagnostic, register
from .schedule_rules import (
    lint_budget_prediction,
    lint_certificate_trace,
    lint_memory_timeline,
)
from .trace_rules import lint_trace
from .trial_rules import lint_noise_model, lint_trials

__all__ = [
    "RUN_CHECKS",
    "check_recorded_run",
    "lint_qasm_text",
    "lint_qasm_file",
    "lint_plan",
    "lint_benchmark",
    "lint_suite",
    "sort_diagnostics",
]

register(
    "Q001",
    "qasm-parse-error",
    Severity.ERROR,
    "qasm",
    "The OpenQASM source could not be parsed.",
    explanation="A QASM file that fails to parse yields no circuit to "
    "lint; reporting the parse failure as a diagnostic (rather than an "
    "exception) lets a multi-file lint run report every broken file in one "
    "pass instead of aborting at the first.",
)


def sort_diagnostics(result: LintResult) -> LintResult:
    """Sort a result's diagnostics by (code, location, message), in place.

    Checker iteration order and dict/set traversal inside individual rules
    are not guaranteed stable across runs or Python versions; every public
    entry point sorts before returning so ``repro lint`` text and JSON
    renderings are byte-identical for identical inputs.  Numeric suffixes
    in locations sort numerically (``plan[2]`` before ``plan[10]``).
    """

    def location_key(location: Optional[str]):
        text = location or ""
        return [
            (0, int(piece)) if piece.isdigit() else (1, piece)
            for piece in re.split(r"(\d+)", text)
        ]

    result.diagnostics.sort(
        key=lambda d: (d.code, location_key(d.location), d.message)
    )
    return result


def lint_qasm_text(
    text: str, name: str = "qasm", config: Optional[LintConfig] = None
) -> LintResult:
    """Parse an OpenQASM 2.0 program and lint the resulting circuit.

    A parse failure is reported as a ``Q001`` diagnostic instead of an
    exception, so one broken file does not abort a multi-file lint run.
    """
    try:
        circuit = parse_qasm(text, name=name)
    except QasmError as exc:
        result = LintResult(info={"circuit": name})
        diagnostic = make_diagnostic(
            "Q001", str(exc), location=name, config=config
        )
        if diagnostic is not None:
            result.add(diagnostic)
        return result
    return sort_diagnostics(lint_circuit(circuit, config=config))


def lint_qasm_file(path: str, config: Optional[LintConfig] = None) -> LintResult:
    """Lint one OpenQASM file from disk.

    An unreadable file is reported as ``Q001`` (like a parse failure), so
    one missing path does not abort a multi-file lint run.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        result = LintResult(info={"circuit": path})
        diagnostic = make_diagnostic(
            "Q001", f"cannot read file: {exc}", location=path, config=config
        )
        if diagnostic is not None:
            result.add(diagnostic)
        return result
    return lint_qasm_text(text, name=path, config=config)


def lint_plan(
    plan: ExecutionPlan,
    trials: Optional[Sequence[Trial]] = None,
    layered: Optional[LayeredCircuit] = None,
    config: Optional[LintConfig] = None,
    runtime_crosscheck: bool = False,
) -> LintResult:
    """Sanitize a plan; optionally verify the static peak-MSV bound.

    With ``runtime_crosscheck=True`` (requires ``layered`` and ``trials``,
    and a structurally clean plan) the plan is executed on the counting
    backend — no amplitudes — and the runtime ``CacheStats.peak_msv`` is
    compared against the sanitizer's static bound (``P013`` on mismatch).
    """
    audit = sanitize_plan(plan, trials=trials, layered=layered, config=config)
    result = LintResult(audit.diagnostics, info=dict(audit.info))
    if (
        runtime_crosscheck
        and audit.ok
        and layered is not None
        and trials is not None
    ):
        from ..core.executor import run_optimized
        from ..sim.counting import CountingBackend

        outcome = run_optimized(
            layered, trials, CountingBackend(layered), plan=plan
        )
        result.info["runtime_peak_msv"] = outcome.peak_msv
        if outcome.peak_msv != audit.peak_msv:
            diagnostic = make_diagnostic(
                "P013",
                f"static peak MSV {audit.peak_msv} != runtime peak MSV "
                f"{outcome.peak_msv}",
                location="plan",
                hint="the sanitizer's cache mirror has diverged from "
                "StateCache; file a bug",
                config=config,
            )
            if diagnostic is not None:
                result.add(diagnostic)
    return sort_diagnostics(result)


def lint_benchmark(
    name: str,
    num_trials: int = 256,
    seed: int = 2020,
    config: Optional[LintConfig] = None,
    runtime_crosscheck: bool = True,
) -> LintResult:
    """Full static audit of one Table I benchmark.

    Lints the Yorktown-compiled circuit, the device noise model, a seeded
    sampled trial set, and the execution plan built from those trials —
    the same pipeline ``NoisySimulator.run`` would execute.
    """
    import numpy as np

    from ..bench.suite import build_compiled_benchmark
    from ..circuits.layers import layerize
    from ..noise.devices import ibm_yorktown
    from ..noise.sampling import sample_trials

    circuit = build_compiled_benchmark(name)
    layered = layerize(circuit)
    model = ibm_yorktown()
    trials = sample_trials(
        layered, model, num_trials, np.random.default_rng(seed)
    )
    plan = build_plan(layered, trials)

    result = lint_circuit(circuit, config=config)
    result.extend(lint_noise_model(model, layered, config=config))
    result.extend(lint_trials(trials, layered, config=config))
    result.extend(
        lint_plan(
            plan,
            trials=trials,
            layered=layered,
            config=config,
            runtime_crosscheck=runtime_crosscheck,
        )
    )
    result.info["benchmark"] = name
    result.info["num_trials"] = num_trials
    return sort_diagnostics(result)


def lint_suite(
    benchmarks: Optional[Sequence[str]] = None,
    num_trials: int = 256,
    seed: int = 2020,
    config: Optional[LintConfig] = None,
    runtime_crosscheck: bool = True,
) -> Dict[str, LintResult]:
    """Audit several benchmarks (all of Table I by default)."""
    from ..bench.suite import benchmark_names

    names: List[str] = list(benchmarks) if benchmarks else benchmark_names()
    return {
        name: lint_benchmark(
            name,
            num_trials=num_trials,
            seed=seed,
            config=config,
            runtime_crosscheck=runtime_crosscheck,
        )
        for name in names
    }


class _RunEvidence:
    """A recorded run and the check inputs derived from it, each built on
    first use."""

    def __init__(self, layered, trials, recorder, metrics, certificate, compiled, values):
        self.layered, self.trials, self.recorder = layered, trials, recorder
        self.metrics, self.compiled, self.values = metrics, compiled, values
        if certificate is not None:
            self.certificate = certificate  # shadows the derived analysis

    @cached_property
    def plan(self) -> ExecutionPlan:
        return build_plan(self.layered, self.trials)

    @cached_property
    def certificate(self) -> Dict[str, Any]:
        analysis = analyze_plan(self.plan, self.layered, compiled=self.compiled)
        certificate: Dict[str, Any] = {
            "plan": analysis.to_dict(), "num_trials": len(self.trials)
        }
        max_bytes = self.values["max_cache_bytes"]
        if max_bytes is not None:
            certificate["budget"] = budget_section(
                self.plan, self.layered, CacheBudget(max_bytes), self.compiled
            )
        return certificate


def _errors(result: LintResult) -> List[str]:
    return [str(diagnostic) for diagnostic in result.errors]


#: The checks a recorded run can be held to, by the names the ``evidence``
#: of :data:`repro.core.options.EXECUTORS` uses; each returns the run's
#: problems.  P021 is exact only for a run with no budget to degrade it;
#: P023 holds the trace's spill counters to the certificate's budget
#: section, and a run with no budget to zero spills.
RUN_CHECKS: Dict[str, Callable[[_RunEvidence], List[str]]] = {
    "replay": lambda run: (
        verify_trace(run.recorder, outcome=run.metrics)
        if isinstance(run.metrics, ExecutionOutcome)
        else verify_trace(run.recorder, metrics=run.metrics)
    ),
    "P017": lambda run: _errors(lint_trace(run.plan, run.recorder)),
    "P019": lambda run: _errors(
        lint_journal(run.values["journal"], layered=run.layered, trials=run.trials)
    ),
    "P020": lambda run: _errors(lint_certificate_trace(run.certificate, run.recorder)),
    "P021": lambda run: _errors(lint_memory_timeline(
        run.certificate, run.recorder,
        exact=run.values["max_cache_bytes"] is None,
    )),
    "P023": lambda run: _errors(lint_budget_prediction(
        run.certificate, outcome_from_trace(run.recorder).cache_stats
    )),
    "P025": lambda run: _errors(
        lint_metrics_trace(registry_from_recorder(run.recorder), run.recorder)
    ),
}


def check_recorded_run(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    recorder,
    metrics,
    certificate: Optional[Dict[str, Any]] = None,
    compiled=None,
    **options: Any,
) -> Dict[str, List[str]]:
    """Run the checks a recorded run of ``trials`` must pass; each
    check's problems by name.

    ``options``, the run's ``NoisySimulator.run`` keywords, are validated
    and, with the circuit and trials, pick the executor that ran
    (:func:`repro.core.options.pick`: the default pick where the options
    leave it open), whose ``evidence`` names the checks.
    ``recorder`` is the run's unbounded ``InMemoryRecorder`` and
    ``metrics`` the ``RunMetrics`` or ``ExecutionOutcome`` it returned.
    Only the inputs a named check needs are derived; a ``certificate``
    replaces the plan cost analysis, and ``compiled`` is shared with it.
    """
    executor = pick(layered, trials, **options)
    values = {name: options.get(name, option.default) for name, option in OPTIONS.items()}
    run = _RunEvidence(layered, trials, recorder, metrics, certificate, compiled, values)
    problems: Dict[str, List[str]] = {}
    for name in executor.evidence:
        problems[name] = RUN_CHECKS[name](run)
    return problems

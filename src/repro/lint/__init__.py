"""Static analysis: plan sanitizer and circuit/QASM lint framework.

The optimized executor's headline guarantee — every trial produces the same
final state as the baseline — is an invariant of the *plan*, not of the
runtime.  This package proves it statically: :func:`sanitize_plan` runs a
symbolic interpreter over an :class:`~repro.core.schedule.ExecutionPlan`
with no backend attached, detecting snapshot use-after-free, lost or
duplicated trials, layer-misaligned resumes and wrong error-event replays
before any statevector is allocated.  A second family of rules lints
circuits (and parsed QASM), trial sets and noise models.

Every finding is a :class:`Diagnostic` with a stable code (``P0xx`` plan,
``C0xx`` circuit, ``N0xx`` noise/trial, ``Q0xx`` QASM), a severity, a
location and a fix hint; codes are listed in the rule registry
(:func:`all_rules`) and documented in ``docs/architecture.md``.

Entry points::

    from repro.lint import sanitize_plan, lint_circuit, LintConfig
    audit = sanitize_plan(plan, trials=trials, layered=layered)
    audit.ok            # no errors
    audit.peak_msv      # static bound == runtime CacheStats.peak_msv

or end to end from the CLI: ``python -m repro lint``.
"""

from .diagnostics import (
    Diagnostic,
    LintConfig,
    LintResult,
    Severity,
    render_json,
    render_text,
)
from .registry import Rule, all_rules, get_rule, registered_codes
from .plan_sanitizer import PlanAudit, sanitize_plan
from .circuit_rules import lint_circuit
from .trial_rules import lint_noise_model, lint_trials
from .trace_rules import lint_trace
from .partition_rules import lint_partition, lint_partition_trace
from .journal_rules import lint_journal
from .costmodel import (
    PlanCostAnalysis,
    analyze_hybrid,
    analyze_partition,
    analyze_plan,
    build_certificate,
    validate_certificate,
    write_certificate,
)
from .schedule_rules import (
    lint_budget_prediction,
    lint_certificate_schedule,
    lint_certificate_trace,
    lint_memory_timeline,
)
from .metrics_rules import lint_metrics_trace
from .hybrid_rules import lint_hybrid
from .api import (
    check_recorded_run,
    lint_benchmark,
    lint_plan,
    lint_qasm_file,
    lint_qasm_text,
    lint_suite,
    sort_diagnostics,
)

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintResult",
    "PlanAudit",
    "PlanCostAnalysis",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_hybrid",
    "analyze_partition",
    "analyze_plan",
    "build_certificate",
    "check_recorded_run",
    "get_rule",
    "lint_benchmark",
    "lint_budget_prediction",
    "lint_certificate_schedule",
    "lint_certificate_trace",
    "lint_memory_timeline",
    "lint_metrics_trace",
    "lint_circuit",
    "lint_hybrid",
    "lint_journal",
    "lint_noise_model",
    "lint_partition",
    "lint_partition_trace",
    "lint_plan",
    "lint_qasm_file",
    "lint_qasm_text",
    "lint_suite",
    "lint_trace",
    "lint_trials",
    "registered_codes",
    "render_json",
    "render_text",
    "sanitize_plan",
    "sort_diagnostics",
    "validate_certificate",
    "write_certificate",
]

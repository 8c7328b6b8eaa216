"""Certificate-vs-runtime rules: the cost model must match real evidence.

:mod:`repro.lint.costmodel` predicts a run's costs from the plan alone;
these rules prove the predictions against what actually happened — the
same static-proof-then-runtime-evidence idiom as P013 (peak MSV) and P017
(cache schedule), extended to the full ResourceCertificate:

* **P020** — per-segment operation counts in the certificate equal the
  recorded trace exactly (span counts, per-span gate counts, inject
  count, total ``ops.applied``, finished trials);
* **P021** — recorded memory gauges never exceed the certificate's static
  memory timeline (and equal it exactly for an undegraded serial run);
* **P023** — predicted spill and spill-load counts under a cache budget
  equal the runtime ``CacheStats`` counters, and the resident peak stays
  within its certified bound.

The certificate's own structure is checked by
:func:`~repro.lint.costmodel.validate_certificate`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = [
    "lint_certificate_trace",
    "lint_memory_timeline",
    "lint_budget_prediction",
]


register(
    "P020",
    "certificate-trace-mismatch",
    Severity.ERROR,
    "plan",
    "Recorded per-segment operation counts diverge from the resource "
    "certificate.",
    explanation="The certificate's per-segment op counts are the paper's "
    "central claim made checkable: redundancy elimination's cost is a "
    "function of plan structure alone.  P020 compares every recorded "
    "advance span (count and gate weight), the inject count, the total "
    "ops.applied counter and the finished-trial count against the "
    "certified numbers — exactly, not approximately.  A mismatch means "
    "the cost model no longer mirrors the executor and no number the "
    "certificate derives from it can be trusted.",
)

register(
    "P021",
    "memory-timeline-violation",
    Severity.ERROR,
    "plan",
    "Recorded memory-state gauges exceed the certificate's static memory "
    "timeline.",
    explanation="The certificate's memory timeline upper-bounds the live, "
    "stored and resident statevector counts at every plan instruction; "
    "cache budgets are sized on the strength of that bound.  "
    "P021 checks the recorded msv.live/msv.stored/msv.resident gauge "
    "peaks never exceed the static peaks (and, for an undegraded serial "
    "run, that the live peak is hit exactly) — a violation means the "
    "analyzer's StateCache mirror has diverged and certified memory "
    "budgets cannot be trusted.",
)

register(
    "P023",
    "budget-prediction-mismatch",
    Severity.ERROR,
    "plan",
    "Predicted cache-budget spilling diverges from the runtime "
    "counters.",
    explanation="Under a CacheBudget the executor spills the coldest "
    "resident snapshots before a snapshot is copied, until the copy fits "
    "beside the working state, and writes the snapshot itself to disk "
    "when the working state alone fills the budget; the certificate "
    "predicts every such event symbolically.  P023 compares predicted spill and "
    "spill-load counts against the runtime CacheStats counters, and the "
    "runtime resident peak against its certified bound — equality proves "
    "the analyzer replays the executor's spill policy exactly, which is "
    "what makes certified memory budgets sound.",
)


def _emit(
    diagnostics: List[Diagnostic],
    code: str,
    message: str,
    location: str,
    hint: str = "",
    config: Optional[LintConfig] = None,
) -> None:
    diagnostic = make_diagnostic(
        code, message, location=location, hint=hint or None, config=config
    )
    if diagnostic is not None:
        diagnostics.append(diagnostic)


def lint_certificate_trace(
    certificate: Dict[str, Any],
    recorder,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P020``: prove certified op counts against a recorded trace.

    ``recorder`` is an :class:`~repro.obs.recorder.InMemoryRecorder` for
    the same circuit/trial set the certificate was built from.  A cache
    budget spills snapshots but never adds operations, so the recorded
    total must equal the certified plan ops exactly.
    """
    from ..obs.summary import segment_profile

    diagnostics: List[Diagnostic] = []
    plan = certificate.get("plan", {})
    segments: Dict[str, Dict[str, int]] = plan.get("segments", {})

    profile = segment_profile(recorder)
    recorded_spans: Dict[str, Dict[str, int]] = profile["segments"]

    for name in sorted(set(segments) | set(recorded_spans)):
        want = segments.get(name)
        got = recorded_spans.get(name, {"count": 0, "gates": 0})
        if want is None:
            _emit(
                diagnostics,
                "P020",
                f"trace records {got['count']} span(s) of {name} but the "
                "certificate has no such segment",
                location=name,
                config=config,
            )
            continue
        if got["count"] != want["count"]:
            _emit(
                diagnostics,
                "P020",
                f"certificate counts {want['count']} execution(s) of "
                f"{name} but the trace records {got['count']}",
                location=name,
                config=config,
            )
        if got["count"] and got["gates"] != want["gates"]:
            _emit(
                diagnostics,
                "P020",
                f"trace span {name} applies {got['gates']} gate(s) but "
                f"the certificate weighs it at {want['gates']}",
                location=name,
                config=config,
            )

    want_injects = plan.get("injects", {}).get("count", 0)
    if profile["injects"] != want_injects:
        _emit(
            diagnostics,
            "P020",
            f"certificate counts {want_injects} inject(s) but the trace "
            f"records {profile['injects']}",
            location="injects",
            config=config,
        )

    recorded_ops = profile["ops_applied"]
    expected_ops = int(plan.get("ops", 0))
    if recorded_ops != expected_ops:
        _emit(
            diagnostics,
            "P020",
            f"certificate predicts {expected_ops} applied operation(s) but "
            f"the run applied {recorded_ops}",
            location="ops",
            hint="segment costs have diverged from the executor",
            config=config,
        )

    finished = profile["trials_finished"]
    want_trials = int(certificate.get("num_trials", 0))
    if finished != want_trials:
        _emit(
            diagnostics,
            "P020",
            f"certificate covers {want_trials} trial(s) but the run "
            f"finished {finished}",
            location="finishes",
            config=config,
        )

    return LintResult(
        diagnostics,
        info={
            "recorded_ops": recorded_ops,
            "certified_ops": plan.get("ops"),
            "finished_trials": finished,
        },
    )


def lint_memory_timeline(
    certificate: Dict[str, Any],
    recorder,
    config: Optional[LintConfig] = None,
    exact: bool = False,
) -> LintResult:
    """``P021``: recorded memory gauges never exceed the static timeline.

    With ``exact=True`` (an undegraded run) the recorded ``msv.live``
    peak must also hit the certified peak exactly — the static bound is
    tight by construction.
    """
    diagnostics: List[Diagnostic] = []
    plan_memory = certificate.get("plan", {}).get("memory", {})
    budget = certificate.get("budget")

    checks = [
        ("msv.live", plan_memory.get("peak_msv")),
        ("msv.stored", plan_memory.get("peak_stored")),
    ]
    if budget is not None:
        checks.append(("msv.resident", budget.get("peak_resident_msv")))

    peaks: Dict[str, float] = {}
    for gauge, bound in checks:
        if bound is None:
            continue
        peak = recorder.gauge_peak(gauge, default=0)
        peaks[gauge] = peak
        if peak > bound:
            _emit(
                diagnostics,
                "P021",
                f"recorded {gauge} peak {int(peak)} exceeds the certified "
                f"static peak {bound}",
                location=gauge,
                hint="the cost model's StateCache mirror has diverged; "
                "certified memory bounds are unsound",
                config=config,
            )
    if exact:
        bound = plan_memory.get("peak_msv")
        peak = peaks.get("msv.live", 0)
        if bound is not None and peak and int(peak) != int(bound):
            _emit(
                diagnostics,
                "P021",
                f"recorded msv.live peak {int(peak)} != certified peak "
                f"{bound} (exact match expected for an undegraded serial "
                "run)",
                location="msv.live",
                config=config,
            )
    return LintResult(diagnostics, info={"recorded_peaks": peaks})


def lint_budget_prediction(
    certificate: Dict[str, Any],
    cache_stats,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P023``: predicted budget spilling equals the runtime counters.

    ``cache_stats`` is the :class:`~repro.core.cache.CacheStats` of a
    serial ``run_optimized`` under the same budget the certificate was
    built with (statevector states — the cost model assumes
    ``16 * 2**n`` bytes per state).  Without a budget section the rule
    still asserts the run spilled nothing.
    """
    diagnostics: List[Diagnostic] = []
    budget = certificate.get("budget") or {}
    predicted = budget.get("predicted", {})

    pairs = [
        ("spills", predicted.get("spills", 0), cache_stats.spills),
        (
            "spill_loads",
            predicted.get("spill_loads", 0),
            cache_stats.spill_loads,
        ),
    ]
    for name, want, got in pairs:
        if int(want) != int(got):
            _emit(
                diagnostics,
                "P023",
                f"certificate predicts {want} {name} but the run counted "
                f"{got}",
                location=name,
                hint="the analyzer's budget mirror no longer replays the "
                "executor's make-room-before-copy policy",
                config=config,
            )

    if budget:
        bound = budget.get("peak_resident_msv")
        if bound is not None and cache_stats.peak_resident_msv > bound:
            _emit(
                diagnostics,
                "P023",
                f"runtime resident peak {cache_stats.peak_resident_msv} "
                f"exceeds the certified bound {bound}",
                location="peak_resident_msv",
                config=config,
            )

    return LintResult(
        diagnostics,
        info={
            "predicted": dict(predicted),
            "observed": {
                "spills": cache_stats.spills,
                "spill_loads": cache_stats.spill_loads,
            },
        },
    )

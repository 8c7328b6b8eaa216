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
* **P022** — the certified schedules are internally sound: LPT makespans
  reproduce from the certificate's own task weights, certified makespans
  are monotone non-increasing in workers, and operation counts are
  conserved across every partition depth;
* **P023** — predicted spill/drop/recompute counts under a cache budget
  equal the runtime ``CacheStats`` counters.

P020/P021 accept merged multi-worker traces too: the partitioner
conserves the Advance/Inject instruction multiset between the serial plan
and prefix-plus-tasks, and every sub-run's live peak is bounded by the
serial peak.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .costmodel import lpt_makespan, validate_certificate
from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = [
    "lint_certificate_trace",
    "lint_memory_timeline",
    "lint_certificate_schedule",
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
    "P022",
    "makespan-inconsistency",
    Severity.ERROR,
    "plan",
    "Certified schedule is not reproducible or not monotone in workers.",
    explanation="A certificate is only machine-checkable if its schedule "
    "numbers can be re-derived from its own data: re-running LPT over the "
    "certified task weights must reproduce each raw makespan, the "
    "certified makespan must be the running minimum over smaller worker "
    "counts (hence monotone non-increasing in workers — extra workers can "
    "always idle), and prefix-plus-task operation counts must equal the "
    "serial plan's at every partition depth.  Raw LPT makespans are "
    "deliberately not required to be monotone in depth: deeper cuts move "
    "shared segment work into the serial prefix, which can lengthen the "
    "critical path.",
)

register(
    "P023",
    "budget-prediction-mismatch",
    Severity.ERROR,
    "plan",
    "Predicted cache-budget degradation diverges from the runtime "
    "counters.",
    explanation="Under a CacheBudget the executor spills or drops the "
    "coldest resident snapshot after each store; the certificate predicts "
    "every such event symbolically.  P023 compares predicted spill, "
    "spill-load, drop and recompute counts against the runtime CacheStats "
    "counters — equality proves the analyzer replays the executor's "
    "degradation policy exactly, which is what makes certified "
    "budget-degradation tradeoffs sound.",
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
    the same circuit/trial set the certificate was built from — serial,
    or merged multi-worker (the instruction multiset is conserved).
    Under a drop-mode budget the recorded total legitimately includes the
    recompute operations the trace itself reports (``cache.recompute``
    instants); P020 accounts for them exactly.
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

    recompute_ops = profile["recompute_ops"]
    recorded_ops = profile["ops_applied"]
    expected_ops = int(plan.get("ops", 0)) + recompute_ops
    if recorded_ops != expected_ops:
        _emit(
            diagnostics,
            "P020",
            f"certificate predicts {expected_ops} applied operation(s) "
            f"(plan {plan.get('ops', 0)} + recompute {recompute_ops}) but "
            f"the run applied {recorded_ops}",
            location="ops",
            hint="segment costs or the recompute closed form have "
            "diverged from the executor",
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
            "recompute_ops": recompute_ops,
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

    With ``exact=True`` (an undegraded *serial* run) the recorded
    ``msv.live`` peak must also hit the certified peak exactly — the
    static bound is tight by construction.  Merged parallel traces use
    the sound direction only: gauge peaks are maxed across tracks and
    every sub-run's peak is bounded by the serial peak.
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


def lint_certificate_schedule(
    certificate: Dict[str, Any],
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P022``: the certificate's schedules are internally sound.

    Pure certificate arithmetic — no trace needed: structural validity,
    LPT reproducibility from the certified task weights, certified
    makespan == running minimum of raw LPT (hence monotone non-increasing
    in workers), and operation conservation (prefix + tasks == serial
    plan) at every partition depth.
    """
    diagnostics: List[Diagnostic] = []

    for problem in validate_certificate(certificate):
        _emit(
            diagnostics, "P022", problem, location="certificate", config=config
        )

    plan_ops = certificate.get("plan", {}).get("ops")
    for schedule in certificate.get("schedules", []):
        depth = schedule.get("depth")
        location = f"depth[{depth}]"
        task_ops = schedule.get("task_ops", [])
        task_flops = schedule.get("task_flops", [])

        if plan_ops is not None:
            total = schedule.get("prefix_ops", 0) + sum(task_ops)
            if total != plan_ops:
                _emit(
                    diagnostics,
                    "P022",
                    f"prefix + task ops = {total} but the serial plan "
                    f"performs {plan_ops} (depth {depth})",
                    location=location,
                    hint="the partition must conserve the serial "
                    "instruction multiset at every depth",
                    config=config,
                )

        best: Optional[int] = None
        previous: Optional[int] = None
        for k in sorted(schedule.get("workers", {}), key=int):
            entry = schedule["workers"][k]
            raw = lpt_makespan(task_flops, int(k))
            if raw != entry.get("lpt_makespan"):
                _emit(
                    diagnostics,
                    "P022",
                    f"LPT over the certified weights gives makespan {raw} "
                    f"at {k} worker(s) but the certificate records "
                    f"{entry.get('lpt_makespan')}",
                    location=f"{location}.workers[{k}]",
                    config=config,
                )
            best = raw if best is None else min(best, raw)
            if entry.get("makespan") != best:
                _emit(
                    diagnostics,
                    "P022",
                    f"certified makespan at {k} worker(s) is "
                    f"{entry.get('makespan')}, expected the running "
                    f"minimum {best}",
                    location=f"{location}.workers[{k}]",
                    config=config,
                )
            if previous is not None and entry.get("makespan") > previous:
                _emit(
                    diagnostics,
                    "P022",
                    f"certified makespan increases from {previous} to "
                    f"{entry.get('makespan')} at {k} worker(s)",
                    location=f"{location}.workers[{k}]",
                    hint="certified makespans must be monotone "
                    "non-increasing in workers",
                    config=config,
                )
            previous = entry.get("makespan")

    return LintResult(
        diagnostics,
        info={"depths": [s.get("depth") for s in certificate.get("schedules", [])]},
    )


def lint_budget_prediction(
    certificate: Dict[str, Any],
    cache_stats,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P023``: predicted budget degradation equals the runtime counters.

    ``cache_stats`` is the :class:`~repro.core.cache.CacheStats` of a
    serial ``run_optimized`` under the same budget the certificate was
    built with (statevector states — the cost model assumes
    ``16 * 2**n`` bytes per state).  Without a budget section the rule
    still asserts the run saw no degradation.
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
        ("drops", predicted.get("drops", 0), cache_stats.drops),
        ("recomputes", predicted.get("recomputes", 0), cache_stats.recomputes),
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
                "executor's enforce-after-store policy",
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
                "drops": cache_stats.drops,
                "recomputes": cache_stats.recomputes,
            },
        },
    )

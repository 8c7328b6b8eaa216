"""Trace-vs-plan cross-check: dynamic events must match the static schedule.

The plan sanitizer (:mod:`repro.lint.plan_sanitizer`) proves a plan's slot
discipline *statically*; the observability layer (:mod:`repro.obs`) records
what the executor *actually did*.  :func:`lint_trace` closes the loop: the
ordered sequence of recorded cache events (``cache.store`` per ``Snapshot``,
``cache.hit`` per ``Restore``) must equal, slot for slot and in order, the
schedule the plan prescribes.  Any divergence — a missing store, an
out-of-order restore, an event against the wrong slot, phantom events the
plan never asked for — fires ``P017``.

This is a runtime-evidence rule: it cannot run in the purely static
``repro lint`` audit (there is no trace yet), so it lives behind
:func:`lint_trace` and is exercised by ``repro trace`` and the test suite.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.schedule import ExecutionPlan, PlanWalk, Restore, Snapshot
from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["lint_trace", "plan_cache_schedule", "trace_cache_events"]


register(
    "P017",
    "trace-plan-mismatch",
    Severity.ERROR,
    "plan",
    "Recorded cache store/evict events diverge from the plan's slot "
    "schedule.",
    explanation="The sanitizer proves the plan's slot schedule statically; "
    "this rule closes the loop with runtime evidence: the ordered "
    "cache.store/cache.hit events of a recorded run must equal the plan's "
    "Snapshot/Restore sequence slot for slot.  Any divergence means the "
    "executor did not run the plan it was given — the one assumption every "
    "other static proof rests on.",
)

#: One cache event: ``("store" | "hit", slot)``.
_CacheEvent = Tuple[str, int]


def plan_cache_schedule(plan: ExecutionPlan) -> List[_CacheEvent]:
    """The cache-event sequence a faithful execution of ``plan`` emits:
    a fold over its walk, one store per ``Snapshot`` and one hit per
    ``Restore``."""
    kinds = {Snapshot: "store", Restore: "hit"}
    return [
        (kinds[type(step.instr)], step.instr.slot)
        for step in PlanWalk(plan.instructions, plan.num_layers)
        if type(step.instr) in kinds
    ]


def trace_cache_events(recorder) -> List[_CacheEvent]:
    """Extract the ordered cache events from a recorded run.

    Accepts an :class:`~repro.obs.recorder.InMemoryRecorder` (or anything
    with a compatible ``events`` list of ``TraceEvent`` tuples).
    """
    events: List[_CacheEvent] = []
    for event in recorder.events:
        if event.ph != "i" or event.cat != "cache":
            continue
        if event.name == "cache.store":
            events.append(("store", int((event.args or {}).get("slot", -1))))
        elif event.name == "cache.hit":
            events.append(("hit", int((event.args or {}).get("slot", -1))))
    return events


def lint_trace(
    plan: ExecutionPlan,
    recorder,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Cross-check a recorded trace against the plan's slot schedule.

    Every recorded store/evict must match the plan's ``Snapshot`` /
    ``Restore`` sequence exactly — same kind, same slot, same order, same
    count.  Returns a :class:`LintResult` whose ``info`` carries both
    sequences' lengths; ``P017`` diagnostics pinpoint the first divergence
    and any length mismatch.
    """
    expected = plan_cache_schedule(plan)
    recorded = trace_cache_events(recorder)
    diagnostics: List[Diagnostic] = []

    def emit(message: str, location: str, hint: str = "") -> None:
        diagnostic = make_diagnostic(
            "P017", message, location=location, hint=hint or None, config=config
        )
        if diagnostic is not None:
            diagnostics.append(diagnostic)

    for position, (want, got) in enumerate(zip(expected, recorded)):
        if want != got:
            emit(
                f"cache event {position} is {got[0]}(slot={got[1]}) but the "
                f"plan schedules {want[0]}(slot={want[1]})",
                location=f"trace[{position}]",
                hint="the executor must store/restore exactly the plan's "
                "slots, in plan order",
            )
            break  # subsequent events are misaligned; one report suffices
    if len(recorded) < len(expected):
        want = expected[len(recorded)]
        emit(
            f"trace ends after {len(recorded)} cache event(s); the plan "
            f"schedules {len(expected)} (next expected: "
            f"{want[0]}(slot={want[1]}))",
            location=f"trace[{len(recorded)}]",
            hint="was the run truncated, or recorded without cache "
            "instrumentation?",
        )
    elif len(recorded) > len(expected):
        extra = recorded[len(expected)]
        emit(
            f"trace records {len(recorded)} cache event(s) but the plan "
            f"schedules only {len(expected)} (first extra: "
            f"{extra[0]}(slot={extra[1]}))",
            location=f"trace[{len(expected)}]",
        )

    return LintResult(
        diagnostics,
        info={
            "planned_cache_events": len(expected),
            "recorded_cache_events": len(recorded),
        },
    )

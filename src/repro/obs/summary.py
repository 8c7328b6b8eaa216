"""Trace summaries: derive the paper's counters back out of the events.

A recorded run is self-describing: the instrumentation in
:func:`repro.core.executor.run_optimized` / ``run_baseline`` emits a
``run.meta`` instant (circuit size, trial count, closed-form baseline
ops), per-segment spans, cache instants and the live-MSV gauge, so every
headline number of :class:`~repro.core.metrics.RunMetrics` can be
*re-derived from the trace alone* and cross-checked against the
executor's own counters.  That replay is the observability layer's
correctness pin — :func:`verify_trace` is asserted in the integration
suite and surfaced by ``repro trace``.

Event-name contract (kept in sync with ``docs/architecture.md`` §10):

=====================  ====  ========  ==========================================
name                   ph    cat       emitted by
=====================  ====  ========  ==========================================
``run``                B/E   run       executor, around the whole run
``run.meta``           i     run       executor, once, before execution
``run.pick``           i     run       ``execute()``, once, when the default pick ran
``advance[s,e)``       B/E   segment   executor, per ``Advance`` instruction
``trial[i]``           B/E   trial     baseline executor, per trial
``kernels[s,e)``       B/E   kernel    compiled backend, per program replay
``compile[s,e)``       B/E   compile   compiled circuit, per memoization miss
``inject``             i     exec      executor, per error injection
``finish``             i     exec      executor, per ``Finish``
``cache.store``        i     cache     executor, per ``Snapshot``
``cache.hit``          i     cache     executor, per ``Restore`` (drop-on-use)
``cache.spill``        i+C   cache     executor, per snapshot spilled under a budget
``cache.spill.load``   i+C   cache     executor, per spilled snapshot reloaded
``shared.hit``         i     shared    executor, per cross-job store hit
``shared.publish``     C     counter   executor, per state published to the store
``ops.shared``         C     counter   executor, gates skipped via shared hits
``ops.applied``        C     counter   executor (gates + injected operators)
``trials.finished``    C     counter   executor
``segment.hit``        C     counter   compiled circuit, memoized program reuse
``segment.compile``    C     counter   compiled circuit, first-use compilation
``kernel.<kind>``      C     counter   compiled circuit, per compiled kernel
``scratch.swaps``      C     counter   compiled backend, ping-pong buffer swaps
``msv.live``           C     gauge     state cache, sampled at every cache event
``msv.stored``         C     gauge     state cache, stored snapshots only
``msv.resident``       C     gauge     state cache under a budget, in-RAM states
``run.host``           i     run       runner, once after the run (cpu, rss)
=====================  ====  ========  ==========================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.cache import CacheStats
from ..core.executor import ExecutionOutcome
from ..core.metrics import RunMetrics
from .recorder import InMemoryRecorder

__all__ = [
    "TraceSummary",
    "summarize",
    "segment_profile",
    "outcome_from_trace",
    "metrics_from_trace",
    "verify_trace",
    "format_trace_summary",
    "format_run_metrics",
]


class TraceSummary:
    """Aggregates derived from one recorded run."""

    def __init__(
        self,
        mode: str,
        num_trials: int,
        num_distinct_trials: int,
        num_gates: int,
        num_layers: int,
        ops_applied: int,
        baseline_ops: int,
        trials_finished: int,
        finish_calls: int,
        peak_msv: int,
        peak_stored: int,
        cache_stores: int,
        cache_hits: int,
        segment_compiles: int,
        segment_hits: int,
        scratch_swaps: int,
        kernel_histogram: Dict[str, int],
        hot_segments: List[Tuple[str, int, float]],
        msv_high_water: List[Tuple[float, int]],
        wall_s: float,
        num_events: int,
        dropped_events: int = 0,
    ) -> None:
        self.mode = mode
        self.num_trials = num_trials
        self.num_distinct_trials = num_distinct_trials
        self.num_gates = num_gates
        self.num_layers = num_layers
        self.ops_applied = ops_applied
        self.baseline_ops = baseline_ops
        self.trials_finished = trials_finished
        self.finish_calls = finish_calls
        self.peak_msv = peak_msv
        self.peak_stored = peak_stored
        self.cache_stores = cache_stores
        self.cache_hits = cache_hits
        self.segment_compiles = segment_compiles
        self.segment_hits = segment_hits
        self.scratch_swaps = scratch_swaps
        self.kernel_histogram = kernel_histogram
        #: ``(span name, replay count, total seconds)``, hottest first.
        self.hot_segments = hot_segments
        #: ``(seconds since run start, new live-MSV maximum)``.
        self.msv_high_water = msv_high_water
        self.wall_s = wall_s
        self.num_events = num_events
        #: Events evicted by a bounded recorder; 0 for unbounded recording.
        self.dropped_events = dropped_events

    @property
    def truncated(self) -> bool:
        return self.dropped_events > 0

    @property
    def ops_skipped(self) -> int:
        """Baseline operations eliminated by reuse (the paper's saving)."""
        return max(0, self.baseline_ops - self.ops_applied)

    @property
    def normalized_computation(self) -> float:
        if self.baseline_ops == 0:
            return 1.0
        return self.ops_applied / self.baseline_ops

    @property
    def cache_hit_ratio(self) -> float:
        """Consumed snapshots over stored snapshots (1.0 = nothing leaked)."""
        if self.cache_stores == 0:
            return 1.0
        return self.cache_hits / self.cache_stores

    @property
    def segment_reuse_ratio(self) -> float:
        """Memoized program replays over all program requests."""
        requests = self.segment_hits + self.segment_compiles
        if requests == 0:
            return 0.0
        return self.segment_hits / requests

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "num_trials": self.num_trials,
            "num_distinct_trials": self.num_distinct_trials,
            "num_gates": self.num_gates,
            "num_layers": self.num_layers,
            "ops_applied": self.ops_applied,
            "ops_skipped": self.ops_skipped,
            "baseline_ops": self.baseline_ops,
            "normalized_computation": self.normalized_computation,
            "trials_finished": self.trials_finished,
            "finish_calls": self.finish_calls,
            "peak_msv": self.peak_msv,
            "peak_stored": self.peak_stored,
            "cache_stores": self.cache_stores,
            "cache_hits": self.cache_hits,
            "cache_hit_ratio": self.cache_hit_ratio,
            "segment_compiles": self.segment_compiles,
            "segment_hits": self.segment_hits,
            "segment_reuse_ratio": self.segment_reuse_ratio,
            "scratch_swaps": self.scratch_swaps,
            "kernel_histogram": dict(self.kernel_histogram),
            "dropped_events": self.dropped_events,
            "truncated": self.truncated,
            "hot_segments": [
                {"name": name, "count": count, "total_s": total}
                for name, count, total in self.hot_segments
            ],
            "msv_high_water": [
                {"t_s": t, "msv": value} for t, value in self.msv_high_water
            ],
            "wall_s": self.wall_s,
            "num_events": self.num_events,
        }

    def __repr__(self) -> str:
        return (
            f"TraceSummary(mode={self.mode!r}, ops={self.ops_applied}, "
            f"peak_msv={self.peak_msv}, events={self.num_events})"
        )


def summarize(recorder: InMemoryRecorder) -> TraceSummary:
    """Derive a :class:`TraceSummary` from a recorded run."""
    meta = recorder.first_instant_args("run.meta") or {}
    durations = recorder.span_durations()
    hot = sorted(
        (
            (name, count, total)
            for name, (count, total) in durations.items()
            if name.startswith("advance[")
        ),
        key=lambda entry: -entry[2],
    )
    run_count, run_total = durations.get("run", (0, 0.0))

    high_water: List[Tuple[float, int]] = []
    timeline = recorder.gauge_timeline("msv.live")
    if timeline:
        base = recorder.events[0].ts
        running = 0.0
        for ts, value in timeline:
            if value > running:
                running = value
                high_water.append((ts - base, int(value)))

    kernel_histogram = {
        name[len("kernel."):]: int(total)
        for name, total in recorder.counters.items()
        if name.startswith("kernel.")
    }

    return TraceSummary(
        mode=str(meta.get("mode", "unknown")),
        num_trials=int(meta.get("num_trials", 0)),
        num_distinct_trials=int(meta.get("num_distinct_trials", 0)),
        num_gates=int(meta.get("num_gates", 0)),
        num_layers=int(meta.get("num_layers", 0)),
        ops_applied=int(recorder.counter_total("ops.applied")),
        baseline_ops=int(meta.get("baseline_ops", 0)),
        trials_finished=int(recorder.counter_total("trials.finished")),
        finish_calls=len(recorder.events_named("finish", ph="i")),
        peak_msv=int(recorder.gauge_peak("msv.live")),
        peak_stored=int(recorder.gauge_peak("msv.stored")),
        cache_stores=len(recorder.events_named("cache.store", ph="i")),
        cache_hits=len(recorder.events_named("cache.hit", ph="i")),
        segment_compiles=int(recorder.counter_total("segment.compile")),
        segment_hits=int(recorder.counter_total("segment.hit")),
        scratch_swaps=int(recorder.counter_total("scratch.swaps")),
        kernel_histogram=kernel_histogram,
        hot_segments=hot,
        msv_high_water=high_water,
        wall_s=run_total if run_count else 0.0,
        num_events=len(recorder.events),
        dropped_events=int(getattr(recorder, "dropped_events", 0)),
    )


def segment_profile(recorder: InMemoryRecorder) -> Dict[str, object]:
    """Extract the trace's per-segment cost evidence.

    The shape lint rule ``P020`` compares against a resource
    certificate's ``plan`` section: per advance-span name the replay
    count and per-replay gate weight, the inject count, the recorded
    ``ops.applied`` total and the finished trial total.  Requires an
    untruncated recorder — ring eviction loses span events, so P020
    evidence must be recorded unbounded.
    """
    segments: Dict[str, Dict[str, int]] = {}
    injects = 0
    for event in recorder.events:
        if event.ph == "B" and event.cat == "segment":
            entry = segments.setdefault(event.name, {"count": 0, "gates": 0})
            entry["count"] += 1
            entry["gates"] = int((event.args or {}).get("gates", 0))
        elif event.ph == "i" and event.name == "inject":
            injects += 1
    return {
        "segments": segments,
        "injects": injects,
        "ops_applied": int(recorder.counter_total("ops.applied")),
        "trials_finished": int(recorder.counter_total("trials.finished")),
    }


def outcome_from_trace(recorder: InMemoryRecorder) -> ExecutionOutcome:
    """Replay an :class:`ExecutionOutcome` purely from recorded events.

    The returned object must equal the one the executor computed from its
    live counters — ``verify_trace`` and the integration tests assert
    field-for-field equality.
    """
    summary = summarize(recorder)
    return ExecutionOutcome(
        ops_applied=summary.ops_applied,
        num_trials=summary.num_trials,
        cache_stats=CacheStats(
            peak_msv=summary.peak_msv,
            peak_stored=summary.peak_stored,
            snapshots_taken=summary.cache_stores,
            snapshots_released=summary.cache_hits,
            spills=int(recorder.counter_total("cache.spill")),
            spill_loads=int(recorder.counter_total("cache.spill.load")),
            peak_resident_msv=int(recorder.gauge_peak("msv.resident", summary.peak_msv)),
        ),
        finish_calls=summary.finish_calls,
        ops_shared=int(recorder.counter_total("ops.shared")),
    )


def metrics_from_trace(recorder: InMemoryRecorder) -> RunMetrics:
    """Replay :class:`RunMetrics` purely from recorded events."""
    summary = summarize(recorder)
    return RunMetrics(
        num_trials=summary.num_trials,
        num_distinct_trials=summary.num_distinct_trials,
        optimized_ops=summary.ops_applied,
        baseline_ops=summary.baseline_ops,
        peak_msv=summary.peak_msv,
        peak_stored=summary.peak_stored,
        num_gates=summary.num_gates,
        num_layers=summary.num_layers,
    )


def verify_trace(
    recorder: InMemoryRecorder,
    outcome: Optional[ExecutionOutcome] = None,
    metrics: Optional[RunMetrics] = None,
) -> List[str]:
    """Cross-check trace-derived counters against executor counters.

    Returns human-readable mismatch descriptions; empty means the trace
    replays exactly.  A ring-truncated recorder cannot replay — instant
    counts describe the retained window only — so truncation is reported
    as a single problem instead of a cascade of spurious mismatches.
    """
    dropped = int(getattr(recorder, "dropped_events", 0))
    if dropped:
        return [
            f"recorder truncated ({dropped} event(s) evicted by the ring "
            "buffer); event replay is unavailable — use the aggregate "
            "counters, which remain exact"
        ]
    problems: List[str] = []

    def check(field: str, derived: object, live: object) -> None:
        if derived != live:
            problems.append(
                f"{field}: trace-derived {derived!r} != recorded-run {live!r}"
            )

    if outcome is not None:
        derived_outcome = outcome_from_trace(recorder)
        check("ops_applied", derived_outcome.ops_applied, outcome.ops_applied)
        check("ops_shared", derived_outcome.ops_shared, outcome.ops_shared)
        check("num_trials", derived_outcome.num_trials, outcome.num_trials)
        check("finish_calls", derived_outcome.finish_calls, outcome.finish_calls)
        check("peak_msv", derived_outcome.peak_msv, outcome.peak_msv)
        check("peak_stored", derived_outcome.peak_stored, outcome.peak_stored)
        check(
            "snapshots_taken",
            derived_outcome.cache_stats.snapshots_taken,
            outcome.cache_stats.snapshots_taken,
        )
        check(
            "snapshots_released",
            derived_outcome.cache_stats.snapshots_released,
            outcome.cache_stats.snapshots_released,
        )
    if metrics is not None:
        derived_metrics = metrics_from_trace(recorder)
        for field in (
            "num_trials",
            "num_distinct_trials",
            "optimized_ops",
            "baseline_ops",
            "peak_msv",
            "peak_stored",
            "num_gates",
            "num_layers",
        ):
            check(field, getattr(derived_metrics, field), getattr(metrics, field))
    return problems


# ---------------------------------------------------------------------------
# Text formatters (shared by ``repro trace`` and ``repro run``)
# ---------------------------------------------------------------------------


def _ratio(part: float, whole: float) -> str:
    return f"{part / whole:.1%}" if whole else "n/a"


def format_trace_summary(summary: TraceSummary, top: int = 10) -> str:
    """Human-readable profile block for one recorded run."""
    lines = [
        f"mode              : {summary.mode}",
        f"trials            : {summary.num_trials} "
        f"({summary.num_distinct_trials} distinct)",
        f"events recorded   : {summary.num_events}",
        f"ops applied       : {summary.ops_applied}",
        f"ops skipped       : {summary.ops_skipped} "
        f"({_ratio(summary.ops_skipped, summary.baseline_ops)} of baseline "
        f"{summary.baseline_ops})",
        f"peak MSV          : {summary.peak_msv} "
        f"(stored snapshots peak {summary.peak_stored})",
        f"cache store/hit   : {summary.cache_stores}/{summary.cache_hits} "
        f"(hit ratio {summary.cache_hit_ratio:.2f})",
    ]
    if summary.segment_compiles or summary.segment_hits:
        lines.append(
            f"segment programs  : {summary.segment_compiles} compiled, "
            f"{summary.segment_hits} reused "
            f"(reuse {summary.segment_reuse_ratio:.1%})"
        )
    if summary.kernel_histogram:
        histogram = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.kernel_histogram.items())
        )
        lines.append(f"kernel classes    : {histogram}")
    if summary.truncated:
        lines.append(
            f"ring truncation   : {summary.dropped_events} event(s) "
            "evicted (aggregate counters remain exact)"
        )
    if summary.scratch_swaps:
        lines.append(f"scratch swaps     : {summary.scratch_swaps}")
    if summary.wall_s:
        lines.append(f"recorded wall time: {summary.wall_s * 1e3:.2f} ms")
    if summary.hot_segments:
        lines.append(f"hottest segments  : (top {min(top, len(summary.hot_segments))})")
        for name, count, total in summary.hot_segments[:top]:
            lines.append(
                f"  {name:<18} x{count:<6} {total * 1e3:9.3f} ms total"
            )
    if summary.msv_high_water:
        lines.append("MSV high-water    :")
        for t, value in summary.msv_high_water:
            lines.append(f"  {t * 1e3:9.3f} ms  -> {value}")
    return "\n".join(lines)


def format_run_metrics(metrics: RunMetrics, wall_s: Optional[float] = None) -> str:
    """The standard ``RunMetrics`` block printed by ``repro run``."""
    lines = [
        f"trials            : {metrics.num_trials}",
        f"distinct trials   : {metrics.num_distinct_trials}",
        f"basic operations  : {metrics.optimized_ops}",
        f"baseline ops      : {metrics.baseline_ops}",
        f"normalized comp.  : {metrics.normalized_computation:.3f}",
        f"computation saved : {metrics.computation_saving:.1%}",
        f"peak MSV          : {metrics.peak_msv}",
        f"peak stored       : {metrics.peak_stored}",
    ]
    if wall_s is not None:
        lines.append(f"wall time         : {wall_s:.2f}s")
    return "\n".join(lines)

"""Metrics-vs-trace consistency: the served view must equal the record.

The metric registry (:mod:`repro.obs.metrics`) is the *current totals*
view a long-running process exposes; the trace recorder is the event-level
record.  Both are derived from the same instrumentation calls, so every
bridged family must be reproducible from the raw events — if a scraped
total and a trace replay disagree, one of the two derivations is lying
and neither can be trusted as performance evidence.

* **P025** — every ``repro_counter`` total equals the independent replay
  of the trace's counter deltas, every ``repro_gauge`` equals the
  replayed maximum, every ``repro_span_seconds`` histogram matches the
  matched-pair replay (count and sum), and the event/dropped totals
  equal the recorder's own bookkeeping.

Under ring-buffer truncation the event replay only describes the
retained window, so P025 degrades honestly: counter and gauge families
are checked against the recorder's out-of-band aggregates (exact under
truncation by construction) and the span histograms are checked against
a replay of the retained events only.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..obs.metrics import (
    COUNTER_FAMILY,
    DROPPED_FAMILY,
    EVENTS_FAMILY,
    GAUGE_FAMILY,
    SPAN_FAMILY,
    MetricRegistry,
    _span_duration_samples,
)
from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["lint_metrics_trace"]


register(
    "P025",
    "metrics-trace-mismatch",
    Severity.ERROR,
    "plan",
    "A scraped metric total diverges from an independent replay of the "
    "recorded trace.",
    explanation="registry_from_recorder bridges a recorded trace into an "
    "OpenMetrics snapshot, which 'repro profile --metrics' writes; it must "
    "be provably the same data as the trace.  (The daemon's /metrics comes "
    "from repro.serve.registry, which does not use this bridge.)  P025 "
    "re-derives every bridged family from first principles (counter totals from "
    "per-event deltas, gauge values from the replayed maximum, span "
    "histograms from matched begin/end pairs) and compares exactly.  A "
    "mismatch means the registry bridge and the trace recorder have "
    "diverged and every number the exporter publishes is suspect.  Under "
    "ring-buffer truncation the replay covers only the retained window, "
    "so counters and gauges are checked against the recorder's exact "
    "out-of-band aggregates instead — the check degrades, it never "
    "silently passes.",
)


def _emit(
    diagnostics: List[Diagnostic],
    message: str,
    location: str,
    hint: str = "",
    config: Optional[LintConfig] = None,
) -> None:
    diagnostic = make_diagnostic(
        "P025", message, location=location, hint=hint or None, config=config
    )
    if diagnostic is not None:
        diagnostics.append(diagnostic)


def _series_by_label(
    snapshot: Dict[str, Any], family: str, label: str
) -> Dict[str, Dict[str, Any]]:
    entry = snapshot.get(family)
    if not entry:
        return {}
    return {
        series["labels"][label]: series for series in entry.get("series", [])
    }


def _scalar_series(snapshot: Dict[str, Any], family: str) -> Optional[float]:
    entry = snapshot.get(family)
    if not entry or not entry.get("series"):
        return None
    return float(entry["series"][0]["value"])


def lint_metrics_trace(
    snapshot: Any,
    recorder,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P025``: prove a metrics snapshot against its source trace.

    ``snapshot`` is a :class:`~repro.obs.metrics.MetricRegistry` (it is
    snapshotted here) or the mapping :meth:`MetricRegistry.snapshot`
    returned; ``recorder`` is the :class:`InMemoryRecorder` the registry
    was bridged from.  Counter totals are replayed from per-event
    ``delta`` args and gauge values from the replayed maximum when the
    recorder is untruncated; under truncation both fall back to the
    recorder's exact aggregates.  Span histograms always compare against
    a matched-pair replay of the retained window.
    """
    if isinstance(snapshot, MetricRegistry):
        snapshot = snapshot.snapshot()
    diagnostics: List[Diagnostic] = []
    truncated = bool(getattr(recorder, "dropped_events", 0))

    # --- independent replay of the retained event window -------------------
    replayed_counters: Dict[str, float] = {}
    replayed_gauges: Dict[str, float] = {}
    for event in recorder.events:
        if event.ph != "C" or not event.args:
            continue
        if "delta" in event.args:
            replayed_counters[event.name] = replayed_counters.get(
                event.name, 0.0
            ) + float(event.args["delta"])  # type: ignore[arg-type]
        else:
            value = float(event.args["value"])  # type: ignore[arg-type]
            previous = replayed_gauges.get(event.name)
            if previous is None or value > previous:
                replayed_gauges[event.name] = value

    # --- counters -----------------------------------------------------------
    want_counters = (
        dict(recorder.counters) if truncated else replayed_counters
    )
    got_counters = _series_by_label(snapshot, COUNTER_FAMILY, "name")
    for name in sorted(set(want_counters) | set(got_counters)):
        want = want_counters.get(name)
        series = got_counters.get(name)
        if series is None:
            _emit(
                diagnostics,
                f"trace counter {name!r} (total {want}) has no "
                f"{COUNTER_FAMILY} series",
                location=f"metrics:{COUNTER_FAMILY}",
                hint="rebridge the registry with registry_from_recorder",
                config=config,
            )
            continue
        got = float(series["value"])
        if want is None:
            _emit(
                diagnostics,
                f"{COUNTER_FAMILY}{{name={name!r}}} = {got} but the trace "
                "records no such counter",
                location=f"metrics:{COUNTER_FAMILY}",
                hint="the registry was fed from a different recorder",
                config=config,
            )
        elif got != want:
            source = "aggregate" if truncated else "event replay"
            _emit(
                diagnostics,
                f"{COUNTER_FAMILY}{{name={name!r}}} = {got} but the trace "
                f"{source} totals {want}",
                location=f"metrics:{COUNTER_FAMILY}",
                hint="counter bridge and recorder aggregates diverged",
                config=config,
            )

    # --- gauges -------------------------------------------------------------
    want_gauges = (
        dict(recorder.gauge_peaks) if truncated else replayed_gauges
    )
    got_gauges = _series_by_label(snapshot, GAUGE_FAMILY, "name")
    for name in sorted(set(want_gauges) | set(got_gauges)):
        want = want_gauges.get(name)
        series = got_gauges.get(name)
        if series is None:
            _emit(
                diagnostics,
                f"trace gauge {name!r} (peak {want}) has no "
                f"{GAUGE_FAMILY} series",
                location=f"metrics:{GAUGE_FAMILY}",
                config=config,
            )
            continue
        got = float(series["value"])
        if want is None:
            _emit(
                diagnostics,
                f"{GAUGE_FAMILY}{{name={name!r}}} = {got} but the trace "
                "records no such gauge",
                location=f"metrics:{GAUGE_FAMILY}",
                config=config,
            )
        elif got != want:
            source = "aggregate peak" if truncated else "replayed maximum"
            _emit(
                diagnostics,
                f"{GAUGE_FAMILY}{{name={name!r}}} = {got} but the trace "
                f"{source} is {want}",
                location=f"metrics:{GAUGE_FAMILY}",
                config=config,
            )

    # --- span histograms (always the retained-window replay) ---------------
    samples = _span_duration_samples(recorder)
    got_spans = _series_by_label(snapshot, SPAN_FAMILY, "span")
    for span in sorted(set(samples) | set(got_spans)):
        observed = samples.get(span, [])
        series = got_spans.get(span)
        if series is None:
            _emit(
                diagnostics,
                f"trace span {span!r} ({len(observed)} matched pair(s)) has "
                f"no {SPAN_FAMILY} series",
                location=f"metrics:{SPAN_FAMILY}",
                config=config,
            )
            continue
        if int(series["count"]) != len(observed):
            _emit(
                diagnostics,
                f"{SPAN_FAMILY}{{span={span!r}}} count {series['count']} != "
                f"{len(observed)} matched pair(s) in the trace",
                location=f"metrics:{SPAN_FAMILY}",
                config=config,
            )
        want_sum = sum(observed)
        if not math.isclose(
            float(series["sum"]), want_sum, rel_tol=1e-9, abs_tol=1e-12
        ):
            _emit(
                diagnostics,
                f"{SPAN_FAMILY}{{span={span!r}}} sum {series['sum']} != "
                f"replayed {want_sum}",
                location=f"metrics:{SPAN_FAMILY}",
                config=config,
            )

    # --- meta counters ------------------------------------------------------
    got_events = _scalar_series(snapshot, EVENTS_FAMILY)
    if got_events is not None and int(got_events) != len(recorder.events):
        _emit(
            diagnostics,
            f"{EVENTS_FAMILY} = {int(got_events)} but the recorder retains "
            f"{len(recorder.events)} event(s)",
            location=f"metrics:{EVENTS_FAMILY}",
            config=config,
        )
    got_dropped = _scalar_series(snapshot, DROPPED_FAMILY)
    dropped = int(getattr(recorder, "dropped_events", 0))
    if got_dropped is not None and int(got_dropped) != dropped:
        _emit(
            diagnostics,
            f"{DROPPED_FAMILY} = {int(got_dropped)} but the recorder "
            f"dropped {dropped} event(s)",
            location=f"metrics:{DROPPED_FAMILY}",
            config=config,
        )

    return LintResult(
        diagnostics=diagnostics,
        info={
            "truncated": truncated,
            "counters_checked": len(set(want_counters) | set(got_counters)),
            "gauges_checked": len(set(want_gauges) | set(got_gauges)),
            "spans_checked": len(set(samples) | set(got_spans)),
        },
    )

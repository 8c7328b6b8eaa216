"""Observability: execution tracing, runtime metrics and profiling hooks.

The paper's argument is about *where the work goes* — which matrix-vector
multiplications are skipped, how many Maintained State Vectors are live at
once, when cached prefixes are stored and dropped.  This package makes
those quantities first-class observables instead of end-of-run aggregates:

* :class:`TraceRecorder` / :class:`NullRecorder` / :class:`InMemoryRecorder`
  — the write side.  Every instrumented hot path guards with a single
  ``if recorder:`` check and :class:`NullRecorder` is falsy, so disabled
  runs execute zero recorder calls (asserted in the overhead tests).
* :mod:`repro.obs.export` — Chrome ``chrome://tracing`` trace-event JSON
  (open a full noisy run in a trace viewer) and a structured JSON dump,
  plus the schema validator used by CI.
* :mod:`repro.obs.summary` — derive ``ExecutionOutcome`` / ``RunMetrics``
  *back out of the recorded events* and cross-check them against the
  executor's own counters (:func:`verify_trace`), plus the text
  formatters behind ``repro trace`` and ``repro run``.

Entry points::

    from repro import NoisySimulator, ibm_yorktown
    from repro.obs import InMemoryRecorder, summarize, write_chrome_trace

    recorder = InMemoryRecorder()
    result = sim.run(num_trials=1024, recorder=recorder)
    print(summarize(recorder).peak_msv)        # == result.metrics.peak_msv
    write_chrome_trace(recorder, "run.trace.json")

or end to end from the CLI: ``python -m repro trace grover``.
"""

from .recorder import InMemoryRecorder, NullRecorder, TraceEvent, TraceRecorder
from .export import (
    TRACE_SCHEMA,
    chrome_trace,
    trace_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace_json,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    registry_from_recorder,
    render_openmetrics,
    validate_openmetrics,
    write_openmetrics,
)
from .profile import (
    PROFILE_SCHEMA,
    SpanProfile,
    build_profile_report,
    flamegraph_lines,
    fold_spans,
    format_profile_report,
    write_flamegraph,
)
from .summary import (
    TraceSummary,
    format_run_metrics,
    format_trace_summary,
    metrics_from_trace,
    outcome_from_trace,
    segment_profile,
    summarize,
    verify_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemoryRecorder",
    "MetricRegistry",
    "NullRecorder",
    "PROFILE_SCHEMA",
    "SpanProfile",
    "TRACE_SCHEMA",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "build_profile_report",
    "chrome_trace",
    "flamegraph_lines",
    "fold_spans",
    "format_profile_report",
    "format_run_metrics",
    "format_trace_summary",
    "metrics_from_trace",
    "outcome_from_trace",
    "registry_from_recorder",
    "render_openmetrics",
    "segment_profile",
    "summarize",
    "trace_json",
    "validate_chrome_trace",
    "validate_openmetrics",
    "verify_trace",
    "write_chrome_trace",
    "write_flamegraph",
    "write_openmetrics",
    "write_trace_json",
]

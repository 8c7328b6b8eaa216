"""Trace exporters: Chrome trace-event JSON and the structured dump.

Two formats, one source of truth (:class:`~repro.obs.recorder.InMemoryRecorder`):

* :func:`chrome_trace` — the `Trace Event Format`_ consumed by
  ``chrome://tracing`` / Perfetto.  Spans become ``B``/``E`` duration
  events, instants become ``i`` events, counters and gauges become ``C``
  events whose ``args`` carry the sampled value, all on one pid/tid with
  microsecond timestamps rebased to the first event.
* :func:`trace_json` — a schema-tagged structured document (events +
  aggregated counters + derived summary) for tooling that wants numbers,
  not a timeline viewer.

:func:`validate_chrome_trace` is the schema check used by the tests and
the CI trace-smoke step: required keys, monotonically non-decreasing
``ts`` and balanced ``B``/``E`` nesting.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.atomicio import atomic_write_json
from .recorder import InMemoryRecorder

__all__ = [
    "TRACE_SCHEMA",
    "chrome_trace",
    "trace_json",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace_json",
]

TRACE_SCHEMA = "repro-trace/1"

_PID = 1
_TID = 1


def _orphan_end_positions(recorder: InMemoryRecorder) -> frozenset:
    """Positions of ``E`` events whose ``B`` fell off the ring buffer.

    Ring eviction drops the *oldest* events, and a span's begin always
    precedes its end, so truncation can only orphan end events — never
    leave a begin without its end.  Matching is LIFO per name, mirroring
    the validator's nesting rule.
    """
    orphans = set()
    stacks: Dict[str, list] = {}
    for position, event in enumerate(recorder.events):
        if event.ph == "B":
            stacks.setdefault(event.name, []).append(position)
        elif event.ph == "E":
            stack = stacks.get(event.name)
            if stack:
                stack.pop()
            else:
                orphans.add(position)
    return frozenset(orphans)


def chrome_trace(
    recorder: InMemoryRecorder, metadata: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Convert a recorder's events into a Chrome trace-event document.

    Truncation contract: when the recorder's ring buffer has evicted
    events (``dropped_events > 0``), end events whose begin was evicted
    are skipped — the exported document stays balanced and valid — and
    ``otherData`` records ``dropped_events`` plus how many orphan ends
    were skipped.  Untruncated recorders are exported verbatim, so a
    genuinely unbalanced stream still fails validation (an
    instrumentation bug must not be repaired silently).
    """
    skip: frozenset = frozenset()
    dropped = getattr(recorder, "dropped_events", 0)
    if dropped:
        skip = _orphan_end_positions(recorder)
    base = recorder.events[0].ts if recorder.events else 0.0
    trace_events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": _TID,
            "ts": 0,
            "args": {"name": "repro noisy simulation"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": _PID,
            "tid": _TID,
            "ts": 0,
            "args": {"name": "main"},
        },
    ]
    for position, event in enumerate(recorder.events):
        if position in skip:
            continue
        payload: Dict[str, object] = {
            "ph": event.ph,
            "name": event.name,
            "cat": event.cat,
            "ts": (event.ts - base) * 1e6,
            "pid": _PID,
            "tid": _TID,
        }
        if event.ph == "i":
            payload["s"] = "t"  # thread-scoped instant
        if event.args:
            payload["args"] = dict(event.args)
        trace_events.append(payload)
    other_data: Dict[str, object] = {"schema": TRACE_SCHEMA, **(metadata or {})}
    if dropped:
        other_data["truncated"] = True
        other_data["dropped_events"] = int(dropped)
        other_data["orphan_ends_skipped"] = len(skip)
    document: Dict[str, object] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }
    return document


def trace_json(
    recorder: InMemoryRecorder, metadata: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """The structured (non-viewer) export: events, counters, summary."""
    from .summary import summarize

    base = recorder.events[0].ts if recorder.events else 0.0
    return {
        "schema": TRACE_SCHEMA,
        "metadata": dict(metadata or {}),
        "summary": summarize(recorder).as_dict(),
        "counters": dict(recorder.counters),
        "dropped_events": int(getattr(recorder, "dropped_events", 0)),
        "events": [
            {
                "ph": event.ph,
                "name": event.name,
                "cat": event.cat,
                "ts_us": (event.ts - base) * 1e6,
                "args": dict(event.args) if event.args else {},
            }
            for event in recorder.events
        ],
    }


def validate_chrome_trace(document: Dict[str, object]) -> List[str]:
    """Schema-check a Chrome trace document; returns a list of problems.

    Checks: top-level shape, per-event required keys, monotonically
    non-decreasing ``ts`` and balanced ``B``/``E`` span nesting per
    ``(pid, tid)`` (every end matches the innermost open begin of the
    same name; nothing left open at the end).  An empty list means valid.

    Truncation contract: a ring-buffered recorder
    (``InMemoryRecorder(max_events=N)``) evicts its *oldest* events, so
    the only imbalance truncation can create is an end event whose begin
    was evicted.  :func:`chrome_trace` skips those orphan ends when the
    recorder reports ``dropped_events > 0`` and stamps
    ``otherData.truncated`` / ``dropped_events`` /
    ``orphan_ends_skipped``, so a truncated export still passes this
    validator; counter/gauge aggregates are recorded out-of-band and
    remain exact.  An imbalance in an *untruncated* stream is an
    instrumentation bug and fails validation here — only genuine ring
    eviction is repaired, never silently.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    last_ts: Dict[tuple, float] = {}
    open_spans: Dict[tuple, List[str]] = {}
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{position}] is not an object")
            continue
        for key in ("ph", "name", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"event[{position}] lacks required key {key!r}")
        ph = event.get("ph")
        if ph == "M":
            continue  # metadata events carry no timeline semantics
        track = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            previous = last_ts.get(track)
            if previous is not None and ts < previous:
                problems.append(
                    f"event[{position}] ts {ts} goes backwards "
                    f"(previous {previous})"
                )
            last_ts[track] = float(ts)
        name = event.get("name")
        if ph == "B":
            open_spans.setdefault(track, []).append(str(name))
        elif ph == "E":
            stack = open_spans.get(track, [])
            if not stack:
                problems.append(
                    f"event[{position}] ends span {name!r} with no span open"
                )
            elif stack[-1] != name:
                problems.append(
                    f"event[{position}] ends span {name!r} but innermost "
                    f"open span is {stack[-1]!r}"
                )
            else:
                stack.pop()
    for track, stack in open_spans.items():
        for name in stack:
            problems.append(f"span {name!r} on track {track} is never ended")
    return problems


def write_chrome_trace(
    recorder: InMemoryRecorder,
    path: str,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Export, validate and write the Chrome trace; returns the document.

    Raises :class:`ValueError` if the recorded event stream does not
    satisfy the trace schema — a malformed trace indicates an
    instrumentation bug and must not be shipped silently.
    """
    document = chrome_trace(recorder, metadata=metadata)
    problems = validate_chrome_trace(document)
    if problems:
        raise ValueError(
            "refusing to write invalid Chrome trace: " + "; ".join(problems)
        )
    atomic_write_json(path, document, indent=1, sort_keys=True)
    return document


def write_trace_json(
    recorder: InMemoryRecorder,
    path: str,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the structured trace document; returns it."""
    document = trace_json(recorder, metadata=metadata)
    atomic_write_json(path, document, indent=2, sort_keys=True)
    return document

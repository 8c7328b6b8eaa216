"""Trace recorders: the write side of the observability layer.

Everything the executor, the cache and the compiled backend can report
flows through one tiny protocol — :class:`TraceRecorder` — with exactly
four primitive event kinds:

``begin(name)`` / ``end(name)``
    A *span*: a named duration (one ``Advance`` segment, one kernel
    program, one baseline trial, one whole run).  Spans of the same name
    nest like a stack; exporters pair them into Chrome ``B``/``E``
    duration events.
``instant(name)``
    A zero-duration marker (a cache store, an error injection, a trial
    finish).
``counter(name, value)``
    A cumulative, monotone counter (``ops.applied``, ``scratch.swaps``);
    recorders aggregate the running total and keep the per-increment
    timeline.
``gauge(name, value)``
    A sampled level (``msv.live``) — the timeline the paper's MSV metric
    is the maximum of.

All four accept arbitrary keyword arguments, stored as the event's
``args`` payload.

Bounded recording
-----------------
:class:`InMemoryRecorder` accepts ``max_events=N`` for long or served
runs: the event timeline becomes a ring buffer that keeps the *newest*
``N`` events and counts every evicted one in :attr:`dropped_events`.
Aggregates — :attr:`counters` running totals and :attr:`gauge_peaks`
maxima — are maintained out-of-band and stay **exact** under truncation;
only event-replay derivations (span pairing, instant counts) describe
the retained window.  See :func:`repro.obs.export.validate_chrome_trace`
for the exporter's side of the truncation contract.

Disabled-path contract
----------------------
Instrumented hot paths guard every recorder touch with a single truthiness
check — ``if recorder:`` — and :class:`NullRecorder` is *falsy*, so the
disabled path performs no recorder calls, no argument packing and no
allocations whatsoever.  ``recorder=None`` and ``recorder=NullRecorder()``
are therefore exactly equivalent on the hot path; the overhead test suite
asserts both (zero method calls, identical outcomes).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["TraceEvent", "TraceRecorder", "NullRecorder", "InMemoryRecorder"]


class TraceEvent(NamedTuple):
    """One recorded event.

    ``ph`` follows the Chrome trace-event phase alphabet: ``B`` span
    begin, ``E`` span end, ``i`` instant, ``C`` counter/gauge sample.
    ``ts`` is a raw :func:`time.perf_counter` reading; exporters rebase
    it to the trace's first event.
    """

    ph: str
    name: str
    cat: str
    ts: float
    args: Optional[Dict[str, object]]


class TraceRecorder:
    """Recorder protocol; subclasses implement the four primitives.

    The base class supplies only the :meth:`span` convenience wrapper.
    Instrumentation sites must not call any method without first checking
    ``if recorder:`` — that single check is the whole disabled-path cost.
    """

    def begin(self, name: str, cat: str = "exec", **args: object) -> None:
        raise NotImplementedError

    def end(self, name: str, cat: str = "exec", **args: object) -> None:
        raise NotImplementedError

    def instant(self, name: str, cat: str = "exec", **args: object) -> None:
        raise NotImplementedError

    def counter(
        self, name: str, value: float = 1, cat: str = "counter", **args: object
    ) -> None:
        raise NotImplementedError

    def gauge(
        self, name: str, value: float, cat: str = "gauge", **args: object
    ) -> None:
        raise NotImplementedError

    @contextmanager
    def span(self, name: str, cat: str = "exec", **args: object) -> Iterator[None]:
        """``with recorder.span("phase"):`` — begin/end bracketing."""
        self.begin(name, cat, **args)
        try:
            yield
        finally:
            self.end(name, cat)


class NullRecorder(TraceRecorder):
    """The do-nothing recorder: falsy, so guarded call sites skip it.

    ``bool(NullRecorder()) is False`` — a hot path written as
    ``if recorder: recorder.counter(...)`` never invokes a method on it.
    The methods are still real no-ops so that *unguarded* (cold-path)
    callers remain safe.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def begin(self, name: str, cat: str = "exec", **args: object) -> None:
        pass

    def end(self, name: str, cat: str = "exec", **args: object) -> None:
        pass

    def instant(self, name: str, cat: str = "exec", **args: object) -> None:
        pass

    def counter(
        self, name: str, value: float = 1, cat: str = "counter", **args: object
    ) -> None:
        pass

    def gauge(
        self, name: str, value: float, cat: str = "gauge", **args: object
    ) -> None:
        pass


class InMemoryRecorder(TraceRecorder):
    """Append-only in-process recorder backing the exporters and summaries.

    Events land in :attr:`events` in emission order; counters additionally
    aggregate into :attr:`counters` (name -> running total) and gauges
    track their maxima in :attr:`gauge_peaks` so summary derivation never
    rescans the event list for totals.

    With ``max_events=N`` the event list is a bounded ring: once full,
    each append evicts the oldest event and bumps :attr:`dropped_events`.
    The aggregates above are exempt — they are updated before the event
    is enqueued, so ``counter_total`` / ``gauge_peak`` stay exact however
    long the run, which is what makes a bounded recorder suitable for
    served runs feeding the metric registry (:mod:`repro.obs.metrics`).
    """

    __slots__ = (
        "events",
        "counters",
        "gauge_peaks",
        "max_events",
        "dropped_events",
        "_clock",
    )

    def __init__(
        self,
        clock=time.perf_counter,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.counters: Dict[str, float] = {}
        self.gauge_peaks: Dict[str, float] = {}
        self.max_events = max_events
        self.dropped_events = 0
        self._clock = clock

    @property
    def truncated(self) -> bool:
        """True once the ring buffer has evicted at least one event."""
        return self.dropped_events > 0

    def _record(self, event: TraceEvent) -> None:
        events = self.events
        if self.max_events is not None and len(events) == self.max_events:
            self.dropped_events += 1
        events.append(event)

    def __bool__(self) -> bool:
        # Truthy even when empty: ``__len__`` would otherwise make a fresh
        # recorder falsy and silently disable every guarded call site.
        return True

    def __len__(self) -> int:
        return len(self.events)

    def begin(self, name: str, cat: str = "exec", **args: object) -> None:
        self._record(
            TraceEvent("B", name, cat, self._clock(), args or None)
        )

    def end(self, name: str, cat: str = "exec", **args: object) -> None:
        self._record(
            TraceEvent("E", name, cat, self._clock(), args or None)
        )

    def instant(self, name: str, cat: str = "exec", **args: object) -> None:
        self._record(
            TraceEvent("i", name, cat, self._clock(), args or None)
        )

    def counter(
        self, name: str, value: float = 1, cat: str = "counter", **args: object
    ) -> None:
        total = self.counters.get(name, 0) + value
        self.counters[name] = total
        payload: Dict[str, object] = {"value": total, "delta": value}
        if args:
            payload.update(args)
        self._record(TraceEvent("C", name, cat, self._clock(), payload))

    def gauge(
        self, name: str, value: float, cat: str = "gauge", **args: object
    ) -> None:
        peak = self.gauge_peaks.get(name)
        if peak is None or value > peak:
            self.gauge_peaks[name] = value
        payload: Dict[str, object] = {"value": value}
        if args:
            payload.update(args)
        self._record(TraceEvent("C", name, cat, self._clock(), payload))

    # -- read-side helpers (summaries, tests) -------------------------------

    def counter_total(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def gauge_peak(self, name: str, default: float = 0) -> float:
        return self.gauge_peaks.get(name, default)

    def events_named(self, name: str, ph: Optional[str] = None) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if event.name == name and (ph is None or event.ph == ph)
        ]

    def instants(self, cat: Optional[str] = None) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if event.ph == "i" and (cat is None or event.cat == cat)
        ]

    def first_instant_args(self, name: str) -> Optional[Dict[str, object]]:
        """Args of the first instant called ``name`` (e.g. ``run.meta``)."""
        for event in self.events:
            if event.ph == "i" and event.name == name:
                return event.args or {}
        return None

    def span_durations(self) -> Dict[str, Tuple[int, float]]:
        """Aggregate matched B/E pairs: name -> (count, total seconds).

        Spans of the same name pair LIFO (nested same-name spans close
        innermost-first); unbalanced events are ignored rather than
        raised — the exporter's validator is the strict path.
        """
        stacks: Dict[str, List[float]] = {}
        totals: Dict[str, Tuple[int, float]] = {}
        for event in self.events:
            if event.ph == "B":
                stacks.setdefault(event.name, []).append(event.ts)
            elif event.ph == "E":
                stack = stacks.get(event.name)
                if stack:
                    started = stack.pop()
                    count, total = totals.get(event.name, (0, 0.0))
                    totals[event.name] = (count + 1, total + event.ts - started)
        return totals

    def gauge_timeline(self, name: str) -> List[Tuple[float, float]]:
        """``(ts, value)`` samples of one gauge, in emission order."""
        return [
            (event.ts, float(event.args["value"]))  # type: ignore[index,arg-type]
            for event in self.events
            if event.ph == "C" and event.name == name and event.args
        ]

    def clear(self) -> None:
        self.events.clear()
        self.counters.clear()
        self.gauge_peaks.clear()
        self.dropped_events = 0

    def __repr__(self) -> str:
        dropped = (
            f", dropped={self.dropped_events}" if self.dropped_events else ""
        )
        return (
            f"InMemoryRecorder(events={len(self.events)}, "
            f"counters={len(self.counters)}{dropped})"
        )

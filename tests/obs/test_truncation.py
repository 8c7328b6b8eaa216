"""The ring-buffer truncation contract, end to end.

The recorder's bound keeps the *newest* events, counts evictions, and
maintains counter/gauge aggregates out-of-band so they stay exact; the
Chrome exporter repairs only the orphaned end events that genuine
eviction can create; replay-based consumers (verify_trace) degrade
explicitly instead of reporting spurious mismatches.
"""

import json

import pytest

from repro.obs import (
    InMemoryRecorder,
    chrome_trace,
    summarize,
    trace_json,
    validate_chrome_trace,
    verify_trace,
    write_chrome_trace,
)


def make_clock():
    state = {"now": 0.0}

    def tick():
        state["now"] += 1.0
        return state["now"]

    return tick


class TestRingBuffer:
    def test_unbounded_by_default(self):
        recorder = InMemoryRecorder()
        for _ in range(1000):
            recorder.instant("x")
        assert len(recorder.events) == 1000
        assert recorder.dropped_events == 0
        assert not recorder.truncated

    def test_bound_keeps_newest_and_counts_drops(self):
        recorder = InMemoryRecorder(max_events=3)
        for index in range(10):
            recorder.instant(f"event{index}")
        assert len(recorder.events) == 3
        assert [event.name for event in recorder.events] == [
            "event7", "event8", "event9",
        ]
        assert recorder.dropped_events == 7
        assert recorder.truncated

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            InMemoryRecorder(max_events=0)

    def test_aggregates_exact_under_truncation(self):
        recorder = InMemoryRecorder(max_events=2)
        for index in range(50):
            recorder.counter("ops", 2)
            recorder.gauge("level", index)
        assert recorder.counter_total("ops") == 100
        assert recorder.gauge_peak("level") == 49
        assert len(recorder.events) == 2

    def test_clear_resets_drop_count(self):
        recorder = InMemoryRecorder(max_events=1)
        recorder.instant("a")
        recorder.instant("b")
        assert recorder.dropped_events == 1
        recorder.clear()
        assert recorder.dropped_events == 0
        assert not recorder.truncated

class TestTruncatedExport:
    def _truncated_recorder(self):
        clock = make_clock()
        recorder = InMemoryRecorder(clock=clock, max_events=4)
        recorder.begin("run", cat="run")
        recorder.begin("early", cat="exec")
        recorder.end("early", cat="exec")
        recorder.begin("late", cat="exec")
        recorder.end("late", cat="exec")
        recorder.end("run", cat="run")  # 6 events through a 4-slot ring
        assert recorder.truncated
        return recorder

    def test_orphan_ends_skipped_and_document_valid(self):
        recorder = self._truncated_recorder()
        document = chrome_trace(recorder)
        assert validate_chrome_trace(document) == []
        other = document["otherData"]
        assert other["truncated"] is True
        assert other["dropped_events"] == 2
        # both evicted events were begins (run, early) -> their ends orphan
        assert other["orphan_ends_skipped"] == 2
        names = [
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] in ("B", "E")
        ]
        assert "run" not in names
        assert names.count("late") == 2

    def test_truncated_write_round_trips(self, tmp_path):
        recorder = self._truncated_recorder()
        path = tmp_path / "truncated.trace.json"
        write_chrome_trace(recorder, str(path))
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["truncated"] is True

    def test_untruncated_unbalanced_stream_still_fails(self, tmp_path):
        recorder = InMemoryRecorder()
        recorder.end("ghost")  # orphan end WITHOUT any ring eviction
        with pytest.raises(ValueError, match="no span open"):
            write_chrome_trace(recorder, str(tmp_path / "bad.json"))

    def test_empty_stream_exports_valid(self, tmp_path):
        recorder = InMemoryRecorder()
        document = write_chrome_trace(recorder, str(tmp_path / "empty.json"))
        assert validate_chrome_trace(document) == []
        assert [event["ph"] for event in document["traceEvents"]] == ["M", "M"]
        structured = trace_json(recorder)
        assert structured["events"] == []
        assert structured["dropped_events"] == 0

    def test_mid_span_stream_fails_chrome_but_exports_json(self):
        recorder = InMemoryRecorder()
        recorder.begin("run", cat="run")
        recorder.begin("advance[0,2)", cat="segment")
        problems = validate_chrome_trace(chrome_trace(recorder))
        assert any("never ended" in problem for problem in problems)
        structured = trace_json(recorder)  # the non-viewer dump never judges
        assert len(structured["events"]) == 2

    def test_trace_json_reports_dropped_events(self):
        recorder = self._truncated_recorder()
        structured = trace_json(recorder)
        assert structured["dropped_events"] == 2
        assert structured["summary"]["truncated"] is True


class TestTruncatedDerivations:
    def test_summarize_surfaces_truncation(self):
        recorder = InMemoryRecorder(max_events=2)
        for _ in range(5):
            recorder.instant("trial.finish")
        summary = summarize(recorder)
        assert summary.dropped_events == 3
        assert summary.truncated

    def test_verify_trace_degrades_with_single_message(self):
        recorder = InMemoryRecorder(max_events=2)
        for _ in range(5):
            recorder.counter("ops.applied", 1)
        problems = verify_trace(recorder)
        assert len(problems) == 1
        assert "truncated" in problems[0]
        assert "aggregate" in problems[0]

    def test_verify_trace_clean_when_unbounded(self):
        recorder = InMemoryRecorder()
        recorder.begin("run", cat="run")
        recorder.end("run", cat="run")
        assert verify_trace(recorder) == []

import pytest

from spans import Span, Spans, covered, self_times


def test_covered_merges_overlaps_once():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert covered([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)
    assert covered([(2.0, 3.0), (0.0, 2.5)]) == pytest.approx(3.0)


def test_self_time_subtracts_child_coverage():
    records = [
        Span("execute", 0.0, 10.0, None),
        Span("readout", 1.0, 2.0, 0),
        Span("readout", 5.0, 8.0, 0),
    ]
    totals = self_times(records)
    assert totals["execute"] == pytest.approx(6.0)
    assert totals["readout"] == pytest.approx(4.0)


def test_overlapping_children_counted_once():
    records = [
        Span("request", 0.0, 10.0, None),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 7.0, 0),
    ]
    assert self_times(records)["request"] == pytest.approx(4.0)


def test_child_overrunning_parent_is_clipped():
    records = [
        Span("parent", 0.0, 4.0, None),
        Span("child", 3.0, 6.0, 0),
    ]
    totals = self_times(records)
    assert totals["parent"] == pytest.approx(3.0)
    assert totals["child"] == pytest.approx(3.0)


def test_only_direct_children_are_subtracted():
    records = [
        Span("request", 0.0, 10.0, None),
        Span("execute", 2.0, 9.0, 0),
        Span("readout", 3.0, 5.0, 1),
    ]
    totals = self_times(records)
    assert totals["request"] == pytest.approx(3.0)
    assert totals["execute"] == pytest.approx(5.0)
    assert totals["readout"] == pytest.approx(2.0)
    assert sum(totals.values()) == pytest.approx(records[0].duration)


def test_spans_record_nesting():
    spans = Spans()
    with spans.span("request"):
        with spans.span("plan"):
            pass
        with spans.span("execute"):
            with spans.span("readout"):
                pass
    names = [(s.name, s.parent) for s in spans.records]
    assert names == [("request", None), ("plan", 0), ("execute", 0), ("readout", 2)]
    assert all(s.end >= s.start for s in spans.records)
    assert sum(self_times(spans.records).values()) == pytest.approx(
        spans.records[0].duration
    )

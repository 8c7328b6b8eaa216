"""The attribution profiler: exclusive folding, flamegraph, report.

Synthetic traces with a deterministic integer clock pin the folding
arithmetic exactly; one end-to-end run proves the headline acceptance
criteria on real data — coverage within 5% of the run span (it is 1.0 by
construction on a balanced trace) and a report of measured time only.
"""

import pytest

from repro.obs import InMemoryRecorder
from repro.obs.profile import (
    PROFILE_SCHEMA,
    build_profile_report,
    flamegraph_lines,
    fold_spans,
    write_flamegraph,
)

#: Report sections of the retired flop/byte model (``repro-profile/1``).
_MODELED_SECTIONS = {"segments", "kernel_classes", "calibration"}


def make_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestFoldSpans:
    def test_exclusive_vs_inclusive(self):
        # run [0, 10); child [2, 5) -> run exclusive 7, child exclusive 3
        recorder = InMemoryRecorder(clock=make_clock(0, 2, 5, 10))
        recorder.begin("run", cat="run")
        recorder.begin("child", cat="exec")
        recorder.end("child", cat="exec")
        recorder.end("run", cat="run")
        profile = fold_spans(recorder)
        assert profile.spans["run"]["total_s"] == 10
        assert profile.spans["run"]["exclusive_s"] == 7
        assert profile.spans["child"]["total_s"] == 3
        assert profile.spans["child"]["exclusive_s"] == 3
        assert profile.run_total_s == 10
        assert profile.attributed_s == 10
        assert profile.coverage == 1.0

    def test_stack_paths_accumulate(self):
        recorder = InMemoryRecorder(clock=make_clock(0, 1, 2, 3, 4, 6))
        recorder.begin("run", cat="run")
        recorder.begin("a")
        recorder.begin("b")
        recorder.end("b")
        recorder.end("a")
        recorder.end("run", cat="run")
        profile = fold_spans(recorder)
        assert profile.stacks == {
            "run": 3.0,  # [0,1) + [4,6)
            "run;a": 2.0,  # [1,2) + [3,4)
            "run;a;b": 1.0,  # [2,3)
        }

    def test_orphan_ends_and_unclosed_spans_counted(self):
        recorder = InMemoryRecorder(clock=make_clock(0, 1, 2))
        recorder.end("ghost")  # no begin
        recorder.begin("open")
        recorder.begin("deeper")
        profile = fold_spans(recorder)
        assert profile.orphan_ends == 1
        assert profile.unclosed_spans == 2
        assert profile.spans["open"]["total_s"] == 0.0

    def test_hotspots_ranked_by_exclusive(self):
        recorder = InMemoryRecorder(clock=make_clock(0, 1, 9, 10))
        recorder.begin("run", cat="run")
        recorder.begin("hot")
        recorder.end("hot")
        recorder.end("run", cat="run")
        hotspots = fold_spans(recorder).hotspots(top=1)
        assert hotspots[0]["name"] == "hot"
        assert hotspots[0]["exclusive_s"] == 8
        assert hotspots[0]["share"] == pytest.approx(0.8)


class TestFlamegraph:
    def test_lines_are_collapsed_stack_format(self, tmp_path):
        recorder = InMemoryRecorder(clock=make_clock(0, 1, 2, 3))
        recorder.begin("run", cat="run")
        recorder.begin("a")
        recorder.end("a")
        recorder.end("run", cat="run")
        profile = fold_spans(recorder)
        lines = flamegraph_lines(profile)
        assert lines == ["run 2000000", "run;a 1000000"]
        path = tmp_path / "out.folded"
        write_flamegraph(profile, str(path))
        assert path.read_text().splitlines() == lines

    def test_zero_width_stacks_kept_at_weight_one(self):
        recorder = InMemoryRecorder(clock=make_clock(0, 0, 0, 0))
        recorder.begin("run", cat="run")
        recorder.begin("a")
        recorder.end("a")
        recorder.end("run", cat="run")
        # zero elapsed -> no stack deltas accumulate at all
        profile = fold_spans(recorder)
        for line in flamegraph_lines(profile):
            count = int(line.rsplit(" ", 1)[1])
            assert count >= 1


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.bench.suite import resolve_benchmark
        from repro.core.runner import NoisySimulator

        circuit, model = resolve_benchmark("bv4")
        simulator = NoisySimulator(circuit, model, seed=11)
        recorder = InMemoryRecorder()
        simulator.run(
            num_trials=96, mode="optimized", backend="statevector",
            recorder=recorder,
        )
        return recorder

    def test_coverage_within_five_percent(self, run):
        profile = fold_spans(run)
        assert profile.run_total_s > 0
        assert abs(profile.coverage - 1.0) <= 0.05

    def test_report_holds_measured_time_only(self, run):
        profile = fold_spans(run)
        report = build_profile_report(profile, top=5)
        assert report["schema"] == PROFILE_SCHEMA == "repro-profile/2"
        assert not _MODELED_SECTIONS & set(report)
        assert report["run"]["coverage"] == profile.coverage
        assert report["hotspots"] == profile.hotspots(top=5)
        assert report["machine"]["cpu_count"] is not None


class TestProfileCli:
    def test_profile_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "report.json"
        folded = tmp_path / "out.folded"
        metrics = tmp_path / "out.metrics.txt"
        code = main(
            [
                "profile", "bv4", "--trials", "48",
                "--json", str(json_path),
                "--flamegraph", str(folded),
                "--metrics", str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate parity (P020): ok" in out
        assert "metrics consistency (P025): ok" in out
        assert json_path.exists() and folded.exists() and metrics.exists()
        import json as jsonlib

        report = jsonlib.loads(json_path.read_text())
        assert report["schema"] == PROFILE_SCHEMA
        assert not _MODELED_SECTIONS & set(report)
        assert report["parity"]["ok"] is True
        assert report["metrics"]["p025_ok"] is True
        assert abs(report["run"]["coverage"] - 1.0) <= 0.05

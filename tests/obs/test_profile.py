"""The attribution profiler: exclusive folding, flamegraph, roofline.

Synthetic traces with a deterministic integer clock pin the folding
arithmetic exactly; one end-to-end run proves the headline acceptance
criteria on real data — coverage within 5% of the run span (it is 1.0 by
construction on a balanced trace) and roofline numerators taken verbatim
from the certificate.
"""

import pytest

from repro.obs import InMemoryRecorder
from repro.obs.profile import (
    PROFILE_SCHEMA,
    build_profile_report,
    flamegraph_lines,
    fold_spans,
    measure_peaks,
    roofline_segments,
    write_flamegraph,
)


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

    def test_worker_tracks_fold_independently(self):
        recorder = InMemoryRecorder(clock=make_clock(0, 4))
        recorder.begin("run", cat="run")
        recorder.end("run", cat="run")
        child = InMemoryRecorder(clock=make_clock(1, 3))
        child.begin("task", cat="exec")
        child.end("task", cat="exec")
        recorder.merge(child, worker=0)
        profile = fold_spans(recorder)
        assert profile.spans["run"]["total_s"] == 4
        assert profile.spans["task"]["total_s"] == 2
        # worker spans have no run-cat root, so run coverage counts the
        # main track only
        assert profile.run_total_s == 4
        assert profile.attributed_s == 4

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


class TestRoofline:
    PEAKS = {"peak_gflops": 100.0, "dram_gbps": 10.0, "cache_gbps": 50.0}

    def _profile_with(self, name, seconds):
        recorder = InMemoryRecorder(clock=make_clock(0.0, float(seconds)))
        recorder.begin(name, cat="segment")
        recorder.end(name, cat="segment")
        return fold_spans(recorder)

    def test_numerators_come_from_certificate_verbatim(self):
        segments = {
            "advance[0,4)": {
                "count": 2, "gates": 8, "flops": 4_000_000_000,
                "bytes_moved": 1_000_000_000,
            }
        }
        profile = self._profile_with("advance[0,4)", 2.0)
        rows = roofline_segments(segments, profile, self.PEAKS, num_qubits=10)
        (row,) = rows
        assert row["flops"] == 4_000_000_000  # exactly the certified count
        assert row["achieved_gflops"] == pytest.approx(2.0)  # 4e9 / 2s / 1e9
        assert row["achieved_gbps"] == pytest.approx(0.5)
        assert row["intensity_flops_per_byte"] == pytest.approx(4.0)
        # intensity 4 * dram 10 = 40 < peak 100 -> memory bound, roof 40
        assert row["verdict"] == "memory-bound"
        assert row["bound_gflops"] == pytest.approx(40.0)
        assert row["efficiency"] == pytest.approx(2.0 / 40.0)

    def test_compute_bound_verdict(self):
        segments = {
            "advance[0,1)": {
                "count": 1, "gates": 1, "flops": 10_000_000_000,
                "bytes_moved": 100_000_000,  # intensity 100 -> roof = peak
            }
        }
        profile = self._profile_with("advance[0,1)", 1.0)
        (row,) = roofline_segments(
            segments, profile, self.PEAKS, num_qubits=10
        )
        assert row["verdict"] == "compute-bound"
        assert row["bound_gflops"] == pytest.approx(100.0)

    def test_cache_band_detected_above_dram_bandwidth(self):
        segments = {
            "advance[0,1)": {
                "count": 1, "gates": 1, "flops": 1_000_000,
                "bytes_moved": 20_000_000_000,  # 20 GB in 1s > 10 GB/s DRAM
            }
        }
        profile = self._profile_with("advance[0,1)", 1.0)
        (row,) = roofline_segments(
            segments, profile, self.PEAKS, num_qubits=10
        )
        assert row["band"] == "cache"

    def test_segments_missing_from_trace_skipped(self):
        segments = {"advance[0,1)": {"count": 1, "gates": 1, "flops": 1,
                                     "bytes_moved": 1}}
        profile = self._profile_with("advance[5,6)", 1.0)
        assert roofline_segments(
            segments, profile, self.PEAKS, num_qubits=10
        ) == []


class TestMeasurePeaks:
    def test_calibration_returns_positive_rates(self):
        peaks = measure_peaks(repeats=1, matmul_n=64, dram_mb=4, cache_kb=64)
        assert peaks["peak_gflops"] > 0
        assert peaks["dram_gbps"] > 0
        assert peaks["cache_gbps"] > 0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.bench.suite import resolve_benchmark
        from repro.circuits.layers import layerize
        from repro.core.runner import NoisySimulator
        from repro.core.schedule import build_plan
        from repro.lint import analyze_plan

        circuit, model = resolve_benchmark("bv4")
        simulator = NoisySimulator(circuit, model, seed=11)
        trials = simulator.sample(96)
        layered = layerize(circuit)
        compiled = simulator.compiled_circuit()
        plan = build_plan(layered, trials)
        analysis = analyze_plan(plan, layered, compiled=compiled)
        recorder = InMemoryRecorder()
        simulator.run(
            trials=trials, mode="optimized", backend="statevector",
            recorder=recorder,
        )
        return recorder, analysis, compiled, layered

    def test_coverage_within_five_percent(self, run):
        recorder, _, _, _ = run
        profile = fold_spans(recorder)
        assert profile.run_total_s > 0
        assert abs(profile.coverage - 1.0) <= 0.05

    def test_report_numerators_equal_certificate(self, run):
        recorder, analysis, compiled, layered = run
        peaks = {"peak_gflops": 10.0, "dram_gbps": 5.0, "cache_gbps": 20.0,
                 "repeats": 0}
        report = build_profile_report(
            recorder, analysis.to_dict()["segments"], compiled,
            layered.num_qubits, peaks=peaks,
        )
        assert report["schema"] == PROFILE_SCHEMA
        certified = analysis.to_dict()["segments"]
        for row in report["segments"]:
            assert row["flops"] == certified[row["name"]]["flops"]
            assert row["bytes_moved"] == certified[row["name"]]["bytes_moved"]
            assert row["count"] == certified[row["name"]]["count"]
        assert report["machine"]["cpu_count"] is not None

    def test_kernel_classes_partition_segment_time(self, run):
        recorder, analysis, compiled, layered = run
        peaks = {"peak_gflops": 10.0, "dram_gbps": 5.0, "cache_gbps": 20.0}
        report = build_profile_report(
            recorder, analysis.to_dict()["segments"], compiled,
            layered.num_qubits, peaks=peaks,
        )
        class_seconds = sum(row["seconds"] for row in report["kernel_classes"])
        segment_seconds = sum(row["seconds"] for row in report["segments"])
        assert class_seconds == pytest.approx(segment_seconds, rel=1e-9)

    def test_segment_kind_costs_sum_to_segment_cost(self, run):
        _, analysis, compiled, _ = run
        import re

        for name in analysis.to_dict()["segments"]:
            match = re.match(r"advance\[(\d+),(\d+)\)", name)
            start, end = int(match.group(1)), int(match.group(2))
            split = compiled.segment_kind_costs(start, end)
            cost = compiled.segment_cost(start, end)
            assert sum(k["flops"] for k in split.values()) == cost["flops"]
            assert (
                sum(k["bytes_moved"] for k in split.values())
                == cost["bytes_moved"]
            )
            assert sum(k["count"] for k in split.values()) == cost["kernels"]


class TestProfileCli:
    def test_profile_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "report.json"
        folded = tmp_path / "out.folded"
        metrics = tmp_path / "out.metrics.txt"
        code = main(
            [
                "profile", "bv4", "--trials", "48",
                "--calibration-repeats", "1",
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
        assert report["parity"]["ok"] is True
        assert report["metrics"]["p025_ok"] is True
        assert abs(report["run"]["coverage"] - 1.0) <= 0.05

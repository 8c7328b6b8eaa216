"""The bench regression gate: compare_bench and `repro bench --compare`."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import compare_bench, run_bench

ROOT = Path(__file__).resolve().parents[1]


def record(
    name,
    speedup,
    best_s=0.1,
    parallel=(),
    hybrid=(),
):
    """A bench record; ``hybrid`` lists ``(width, speedup)`` pairs, where a
    nonzero width is the wavefront width older payloads recorded."""
    rec = {
        "benchmark": name,
        "speedup": speedup,
        "compiled": {"best_s": best_s},
    }
    if parallel:
        rec["parallel"] = [
            {"workers": w, "speedup_vs_serial": s, "best_s": best_s}
            for w, s in parallel
        ]
    if hybrid:
        rec["hybrid"] = [
            {"speedup_vs_serial": s, "best_s": best_s, **({"batch": w} if w else {})}
            for w, s in hybrid
        ]
    return rec


def payload(*records, config=None):
    return {"results": list(records), "config": dict(config or {})}


class TestCompareBench:
    def test_equal_payloads_pass(self):
        current = payload(record("qft12", 1.5))
        outcome = compare_bench(current, current)
        assert outcome["ok"]
        assert outcome["regressions"] == []
        (row,) = outcome["rows"]
        assert row["ratio"] == pytest.approx(1.0)
        assert not row["regressed"]

    def test_regression_below_tolerance_detected(self):
        baseline = payload(record("qft12", 2.0))
        current = payload(record("qft12", 1.0))  # ratio 0.5 < 1 - 0.35
        outcome = compare_bench(current, baseline, tolerance=0.35)
        assert not outcome["ok"]
        assert outcome["regressions"] == ["qft12:compiled"]

    def test_drop_within_tolerance_passes(self):
        baseline = payload(record("qft12", 2.0))
        current = payload(record("qft12", 1.6))  # ratio 0.8 >= 0.65
        assert compare_bench(current, baseline, tolerance=0.35)["ok"]

    def test_noise_floor_suppresses_fast_sections(self):
        baseline = payload(record("bv4", 2.0, best_s=0.001))
        current = payload(record("bv4", 0.5, best_s=0.001))
        outcome = compare_bench(current, baseline, min_seconds=0.005)
        assert outcome["ok"]
        assert outcome["sections_skipped"] == ["bv4:compiled"]
        (row,) = outcome["rows"]
        assert row["below_noise_floor"]

    def test_either_side_below_floor_suppresses(self):
        baseline = payload(record("bv4", 2.0, best_s=0.5))
        current = payload(record("bv4", 0.5, best_s=0.001))
        assert compare_bench(current, baseline, min_seconds=0.005)["ok"]

    def test_all_section_kinds_compared(self):
        kwargs = dict(parallel=((2, 1.8),), hybrid=((0, 3.0),))
        baseline = payload(record("qft12", 1.5, **kwargs))
        current = payload(record("qft12", 1.5, **kwargs))
        outcome = compare_bench(current, baseline)
        assert sorted(row["section"] for row in outcome["rows"]) == [
            "compiled", "hybrid", "parallel[w2]",
        ]

    def test_hybrid_section_regression_detected(self):
        baseline = payload(record("qft12", 1.5, hybrid=((0, 3.0),)))
        current = payload(record("qft12", 1.5, hybrid=((0, 1.0),)))
        outcome = compare_bench(current, baseline, tolerance=0.35)
        assert outcome["regressions"] == ["qft12:hybrid"]

    def test_one_sided_benchmarks_informational(self):
        baseline = payload(record("qft12", 1.5), record("bv4", 1.2))
        current = payload(record("qft12", 1.5), record("rb", 1.1))
        outcome = compare_bench(current, baseline)
        assert outcome["ok"]
        assert outcome["benchmarks_compared"] == ["qft12"]
        assert outcome["benchmarks_skipped"] == ["bv4", "rb"]

    def test_one_sided_sections_informational(self):
        baseline = payload(record("qft12", 1.5, hybrid=((0, 2.0), (64, 3.0))))
        current = payload(record("qft12", 1.5, hybrid=((0, 2.0),)))
        outcome = compare_bench(current, baseline)
        assert outcome["ok"]
        assert outcome["sections_skipped"] == [
            "qft12:hybrid+batch[64] (not in current)"
        ]

    def test_config_mismatches_reported_not_failed(self):
        baseline = payload(record("qft12", 1.5),
                           config={"num_trials": 1024, "seed": 7})
        current = payload(record("qft12", 1.5),
                          config={"num_trials": 64, "seed": 7})
        outcome = compare_bench(current, baseline)
        assert outcome["ok"]
        assert any("num_trials" in m for m in outcome["config_mismatches"])
        assert not any("seed" in m for m in outcome["config_mismatches"])

    def test_zero_baseline_speedup_counts_as_regression(self):
        baseline = payload(record("qft12", 0.0))
        current = payload(record("qft12", 1.0))
        outcome = compare_bench(current, baseline)
        assert outcome["rows"][0]["ratio"] == 0.0
        assert not outcome["ok"]

    @pytest.mark.parametrize("tolerance", [0.0, 1.0, -0.1, 2.0])
    def test_tolerance_validated(self, tolerance):
        with pytest.raises(ValueError):
            compare_bench(payload(), payload(), tolerance=tolerance)


class TestCommittedBaselines:
    """CI gates fresh payloads against committed ones, some of which
    still carry wavefront sections."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return run_bench(
            ["bv14"], num_trials=48, repeats=1, warmup=0, check=False, hybrid=True
        )

    def test_hybrid_compares_with_the_width_zero_section(self, fresh):
        baseline = json.loads((ROOT / "BENCH_0009.json").read_text())
        (bv14,) = [r for r in baseline["results"] if r["benchmark"] == "bv14"]
        width_zero = next(s for s in bv14["hybrid"] if not s["batch"])
        outcome = compare_bench(fresh, baseline)
        (row,) = [
            r for r in outcome["rows"]
            if r["benchmark"] == "bv14" and r["section"] == "hybrid"
        ]
        assert row["baseline_speedup"] == width_zero["speedup_vs_serial"]
        assert "bv14:hybrid+batch[64] (not in current)" in outcome["sections_skipped"]

    def test_wavefront_only_baseline_compares(self, fresh):
        baseline = json.loads((ROOT / "BENCH_0007.json").read_text())
        outcome = compare_bench(fresh, baseline)
        assert {row["section"] for row in outcome["rows"]} == {"compiled"}


class TestCompareCli:
    def _bench(self, path, trials=16):
        code = main(
            [
                "bench", "--benchmarks", "bv4",
                "--trials", str(trials), "--repeats", "1", "--warmup", "0",
                "--no-check", "--json", str(path),
            ]
        )
        assert code == 0

    def test_self_compare_passes_gate(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        self._bench(out)
        capsys.readouterr()
        code = main(
            [
                "bench", "--benchmarks", "bv4",
                "--trials", "16", "--repeats", "1", "--warmup", "0",
                "--no-check", "--compare", str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "regression gate: ok" in captured

    def test_seeded_regression_fails_gate(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        self._bench(out)
        doctored = json.loads(out.read_text())
        for rec in doctored["results"]:
            rec["speedup"] = rec["speedup"] * 100.0  # impossible baseline
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doctored))
        capsys.readouterr()
        code = main(
            [
                "bench", "--benchmarks", "bv4",
                "--trials", "16", "--repeats", "1", "--warmup", "0",
                "--no-check",
                "--compare", str(baseline),
                "--compare-noise-floor", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSED" in captured.out
        assert "regression gate: FAILED" in captured.err

    def test_missing_baseline_file_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "bench", "--benchmarks", "bv4",
                "--trials", "16", "--repeats", "1", "--warmup", "0",
                "--no-check", "--compare", str(tmp_path / "nope.json"),
            ]
        )
        assert code == 2

"""The ``repro bench`` perf harness: payload shape, exactness, CLI."""

import json

import pytest

from repro.cli import main
from repro.perf import BENCH_SCHEMA, bench_one, bench_rows, run_bench


@pytest.fixture(scope="module")
def tiny_payload():
    # One small benchmark, minimal repeats: exercises the full pipeline
    # (timing + equivalence proof) while staying fast.
    return run_bench(
        benchmarks=["bv4"], num_trials=24, repeats=1, warmup=0, seed=7
    )


class TestHarness:
    def test_payload_shape(self, tiny_payload):
        assert tiny_payload["schema"] == BENCH_SCHEMA
        assert tiny_payload["config"]["num_trials"] == 24
        (record,) = tiny_payload["results"]
        assert record["benchmark"] == "bv4"
        assert record["ops_applied"] > 0
        assert record["interpreted"]["best_s"] > 0
        assert record["compiled"]["best_s"] > 0
        assert record["speedup"] > 0
        assert record["kernel_stats"]["gates"] > 0

    def test_equivalence_proved(self, tiny_payload):
        (record,) = tiny_payload["results"]
        assert record["equivalence"]["ops_equal"]
        assert record["equivalence"]["peak_msv_equal"]
        assert record["equivalence"]["states_allclose"]
        assert tiny_payload["summary"]["all_equivalent"] is True

    def test_payload_is_json_serializable(self, tiny_payload):
        round_tripped = json.loads(json.dumps(tiny_payload))
        assert round_tripped["summary"]["benchmarks"] == 1

    def test_rows_flatten(self, tiny_payload):
        (row,) = bench_rows(tiny_payload)
        assert row["benchmark"] == "bv4"
        assert row["exact"] == "yes"

    def test_no_check_skips_equivalence(self):
        record = bench_one(
            "rb", num_trials=8, repeats=1, warmup=0, seed=1, check=False
        )
        assert "equivalence" not in record

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_bench(benchmarks=["nope"], num_trials=4, repeats=1, warmup=0)

    def test_trace_attaches_crosschecked_profile(self):
        record = bench_one(
            "bv4", num_trials=24, repeats=1, warmup=0, seed=7,
            check=False, trace=True,
        )
        profile = record["profile"]
        assert profile["crosscheck_ok"] is True
        assert profile["ops_applied"] == record["ops_applied"]
        assert profile["peak_msv"] == record["peak_msv"]
        # the traced run replays programs memoized during the timed runs,
        # so it records reuse (segment.hit), not fresh compiles
        assert profile["segment_hits"] > 0
        assert profile["segment_compiles"] == 0
        assert json.dumps(profile)  # JSON-ready for BENCH_<n>.json

    def test_no_trace_no_profile(self, tiny_payload):
        (record,) = tiny_payload["results"]
        assert "profile" not in record


class TestSectionLoop:
    def test_every_section_is_exact_and_keeps_the_ci_keys(self):
        record = bench_one(
            "bv4", num_trials=24, repeats=1, warmup=0, seed=7, check=False,
            workers=[1], batches=[2], hybrid=True,
        )
        sections = record["parallel"] + record["batch"] + record["hybrid"]
        assert len(sections) == 3
        for section in sections:
            assert section["exact"] == {
                "ops_equal": True, "states_bit_identical": True, "ok": True,
            }
            assert section["best_s"] > 0 and section["speedup_vs_serial"] > 0
            assert section["peak_rss_kb"]["self"]
        (parallel,) = record["parallel"]
        assert parallel["workers"] == 1 and parallel["partition_depth"] == 1
        assert {"num_tasks", "used_fork", "shm_bytes"} <= set(parallel)
        assert [s["batch"] for s in record["batch"]] == [2]
        assert [s["batch"] for s in record["hybrid"]] == [0]
        assert all({"active", "stats"} <= set(s) for s in record["hybrid"])
        assert record["batch_best"]["batch"] == 2
        assert record["hybrid_best"]["batch"] == 0

    def test_one_perturbed_payload_fails_exactness(self, monkeypatch):
        import repro.core.wavefront as wavefront
        from repro.sim.statevector import Statevector

        real_run_wavefront = wavefront.run_wavefront

        def perturbed(layered, trials, backend, on_finish=None, **kwargs):
            if on_finish is None:
                return real_run_wavefront(layered, trials, backend, **kwargs)
            seen = []

            def tamper(payload, indices):
                if not seen:
                    vector = payload.vector.copy()
                    vector[0] += 1e-12
                    payload = Statevector.from_buffer(
                        vector, layered.num_qubits
                    )
                seen.append(indices)
                on_finish(payload, indices)

            return real_run_wavefront(layered, trials, backend, tamper, **kwargs)

        monkeypatch.setattr(wavefront, "run_wavefront", perturbed)
        record = bench_one(
            "bv4", num_trials=24, repeats=1, warmup=0, seed=7, check=False,
            batches=[2],
        )
        (section,) = record["batch"]
        assert section["exact"] == {
            "ops_equal": True, "states_bit_identical": False, "ok": False,
        }


class TestBenchCli:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--benchmarks", "rb",
                "--trials", "16",
                "--repeats", "1",
                "--warmup", "0",
                "--json", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "speedup" in captured
        payload = json.loads(out.read_text())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["results"][0]["equivalence"]["ok"]

    def test_bench_unknown_benchmark_exit_code(self, capsys):
        assert main(["bench", "--benchmarks", "nope"]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--batch", "0"], "batch_size must be >= 1, got 0"),
            (["--workers", "0"], "workers must be >= 1 (0 runs serially), got 0"),
        ],
    )
    def test_rejected_section_exits_2_before_timing(
        self, flags, message, capsys
    ):
        assert main(["bench", "--benchmarks", "bv4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_bench_trace_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--benchmarks", "bv4",
                "--trials", "16",
                "--repeats", "1",
                "--warmup", "0",
                "--no-check",
                "--trace",
                "--json", str(out),
            ]
        )
        assert code == 0
        assert "replay cross-check: ok" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["config"]["trace"] is True
        assert payload["results"][0]["profile"]["crosscheck_ok"] is True

"""The ``repro bench`` perf harness: payload shape, exactness, CLI."""

import json

import pytest

from repro.cli import main
from repro.perf import (
    BENCH_SCHEMA,
    LAYER_CLASS,
    MICROBENCH_CLASSES,
    bench_one,
    bench_rows,
    kernel_microbench,
    run_bench,
)


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
            hybrid=True,
        )
        assert "parallel" not in record
        (hybrid,) = record["hybrid"]
        assert hybrid["exact"] == {
            "ops_equal": True, "states_bit_identical": True, "ok": True,
        }
        assert hybrid["best_s"] > 0 and hybrid["speedup_vs_serial"] > 0
        assert hybrid["peak_rss_kb"]["self"]
        assert {"active", "stats"} <= set(hybrid)

    def test_serial_references_run_dfs_where_the_default_picks_hybrid(self, monkeypatch):
        """bv14 runs hybrid by default, so every serial reference (both
        timed engines, the payloads each section is proven against and
        the traced run) forces DFS, and the interpreted one runs under
        its own backend name."""
        import repro.perf as perf

        ran = []
        real_execute = perf.execute

        def spy(*args, **options):
            outcome = real_execute(*args, **options)
            backend = options.get("backend", "statevector")
            ran.append((backend, options.get("hybrid"), outcome.executor))
            return outcome

        monkeypatch.setattr(perf, "execute", spy)
        record = bench_one("bv14", num_trials=64, repeats=1, warmup=0, trace=True, hybrid=True)
        (section,) = record["hybrid"]
        assert section["executor"] == "hybrid" and section["exact"]["ok"]
        assert record["equivalence"]["ok"] and record["profile"]["crosscheck_ok"]
        references = [entry for entry in ran if entry[1] is not True]
        assert {executor for _, _, executor in references} == {"dfs"}
        assert {backend for backend, _, _ in references} == {
            "statevector", "statevector-interpreted",
        }

    def test_one_perturbed_payload_fails_exactness(self, monkeypatch):
        import repro.core.hybrid as hybrid
        from repro.sim.statevector import Statevector

        real_run_hybrid = hybrid.run_hybrid

        def perturbed(layered, trials, backend, on_finish=None, **kwargs):
            if on_finish is None:
                return real_run_hybrid(layered, trials, backend, **kwargs)
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

            return real_run_hybrid(layered, trials, backend, tamper, **kwargs)

        monkeypatch.setattr(hybrid, "run_hybrid", perturbed)
        record = bench_one(
            "bv4", num_trials=24, repeats=1, warmup=0, seed=7, check=False,
            hybrid=True,
        )
        (section,) = record["hybrid"]
        assert section["exact"] == {
            "ops_equal": True, "states_bit_identical": False, "ok": False,
        }


class TestKernelMicrobench:
    def test_rows_cover_every_class_and_target(self):
        rows = kernel_microbench(widths=(3,), repeats=1, min_time=0.0)
        assert {tuple(sorted(row)) for row in rows} == {
            ("class", "num_qubits", "target", "us")
        }
        assert {
            (row["class"], row["num_qubits"], row["target"]) for row in rows
        } == {
            (kind, 3, target)
            for kind in MICROBENCH_CLASSES
            for target in range(3)
        }
        assert len(rows) == len(MICROBENCH_CLASSES) * 3
        assert all(row["us"] > 0 for row in rows)

    def test_layer_class_has_one_row_per_width(self):
        rows = kernel_microbench(
            widths=(3, 4), repeats=1, min_time=0.0, classes=(LAYER_CLASS,),
        )
        assert [
            (row["class"], row["num_qubits"], row["target"]) for row in rows
        ] == [(LAYER_CLASS, n, None) for n in (3, 4)]
        assert all(row["us"] > 0 for row in rows)


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

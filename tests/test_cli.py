"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "qv_n5d5" in out
        assert "cnot_paper" in out

    def test_device(self, capsys):
        assert main(["device"]) == 0
        out = capsys.readouterr().out
        assert "Q0" in out
        assert "Q3-Q4" in out

    def test_fig5_subset(self, capsys):
        assert main(["fig5", "--benchmarks", "rb"]) == 0
        out = capsys.readouterr().out
        assert "rb" in out
        assert "8192 trials" in out

    def test_fig6_subset(self, capsys):
        assert main(["fig6", "--benchmarks", "rb", "bv4"]) == 0
        out = capsys.readouterr().out
        assert "msv" in out

    def test_fig7_tiny(self, capsys):
        assert main(["fig7", "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert "n40,d20" in out
        assert "average computation saving" in out

    def test_fig8_tiny(self, capsys):
        assert main(["fig8", "--trials", "500"]) == 0
        assert "n10,d5" in capsys.readouterr().out

    def test_run_optimized(self, capsys):
        assert main(["run", "rb", "--trials", "128"]) == 0
        out = capsys.readouterr().out
        assert "computation saved" in out
        assert "peak MSV" in out

    def test_run_baseline(self, capsys):
        assert main(["run", "rb", "--trials", "64", "--mode", "baseline"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_run_json_dump(self, tmp_path, capsys):
        import json

        target = tmp_path / "run.json"
        assert main(
            ["run", "bv4", "--trials", "128", "--json", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["benchmark"] == "bv4"
        assert payload["metrics"]["num_trials"] == 128
        assert payload["metrics"]["optimized_ops"] > 0
        assert sum(payload["counts"].values()) == 128
        out = capsys.readouterr().out
        assert "computation saved" in out
        assert f"wrote {target}" in out

    def test_trace_subcommand(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        target = tmp_path / "bv4.trace.json"
        assert main(
            ["trace", "bv4", "--trials", "64", "--out", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace cross-check : ok" in out
        assert "cache store/hit" in out
        assert validate_chrome_trace(json.loads(target.read_text())) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "5", "profile", "qft5"],
            ["profile", "qft5", "--seed", "5"],
        ],
        ids=["global", "subcommand"],
    )
    def test_profile_seed_either_spelling(self, argv, monkeypatch):
        import repro.cli

        monkeypatch.setattr(repro.cli, "_cmd_profile", lambda args: args.seed)
        assert main(argv) == 5

    def test_trace_baseline_mode(self, tmp_path, capsys):
        target = tmp_path / "b.trace.json"
        assert main(
            [
                "trace", "bv4", "--trials", "32",
                "--mode", "baseline", "--out", str(target),
            ]
        ) == 0
        assert "mode              : baseline" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["run", "qft5", "--trials", "16", "--hybrid",
                 "--mode", "baseline"],
                "hybrid requires mode='optimized' (the fast path rewrites "
                "the optimized plan's trie spans)",
            ),
            (
                ["run", "bv4", "--trials", "16", "--hybrid",
                 "--max-cache-bytes", "4096"],
                "hybrid is incompatible with max_cache_bytes: symbolic "
                "snapshots are O(n) Pauli frames, not budgetable "
                "statevectors",
            ),
            (
                ["run", "qft5", "--trials", "16", "--hybrid",
                 "--journal", "reject.journal"],
                "hybrid is incompatible with journal: symbolic spans "
                "produce no trial-ordered finish stream to journal",
            ),
        ],
    )
    def test_rejected_options_exit_2_with_the_table_message(
        self, argv, message, capsys
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "qft5"], ["trace", "qft5"], ["profile", "qft5"],
            ["advise", "qft5"], ["predict", "qft5"], ["lint"], ["fig7"],
            ["fig8"], ["ablations"], ["submit", "state", "qft5"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_trial_count_below_one_is_a_usage_error(self, argv, count, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--trials", count])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --trials: expected an integer >= 1, got '{count}'" in err
        assert "Traceback" not in err

    def test_advise_checks_options_through_the_table(self, capsys):
        argv = ["advise", "qft5", "--trials", "16", "--max-cache-bytes", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: max_cache_bytes must be an int >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv", [["submit", "qft5", "--trials", "16"], ["jobs"]],
        ids=lambda argv: argv[0],
    )
    def test_no_server_running_is_one_line(self, argv, tmp_path, capsys):
        assert main(argv[:1] + [str(tmp_path)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: no server is running at {tmp_path} (no endpoint.json)\n"
        )

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-benchmark"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_ablations(self, capsys):
        assert main(["ablations", "--benchmarks", "bv4", "--trials", "256"]) == 0
        out = capsys.readouterr().out
        assert "dedup_only" in out
        assert "consecutive_sorted" in out

    def test_draw_logical(self, capsys):
        assert main(["draw", "bv4"]) == 0
        assert "q0:" in capsys.readouterr().out

    def test_draw_compiled(self, capsys):
        assert main(["draw", "rb", "--compiled"]) == 0
        assert "q4:" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "fig6.json"
        assert main(["fig6", "--benchmarks", "rb", "--json", str(target)]) == 0
        import json

        rows = json.loads(target.read_text())
        assert rows[0]["benchmark"] == "rb"
        assert "wrote 1 rows" in capsys.readouterr().out

    def test_table1_json_export(self, tmp_path):
        target = tmp_path / "t1.json"
        assert main(["table1", "--json", str(target)]) == 0
        import json

        assert len(json.loads(target.read_text())) == 12

    def test_predict(self, capsys):
        assert main(["predict", "bv4", "--trials", "512"]) == 0
        out = capsys.readouterr().out
        assert "predicted saving (bound)" in out
        assert "measured saving" in out

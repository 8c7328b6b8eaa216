"""Satellite guarantees around the analyzer: deterministic output,
mandatory rationales, docs/registry parity, crash-safe CLI exit codes,
and the certificate's advice as the run it names."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.api import sort_diagnostics
from repro.lint.diagnostics import Diagnostic, LintResult, Severity
from repro.lint.registry import register, registered_codes, unregister

DOCS = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"


class TestDeterministicDiagnostics:
    def test_sort_orders_by_code_then_location(self):
        result = LintResult()
        for code, location in [
            ("P010", "plan[10]"),
            ("C001", "layer 3"),
            ("P010", "plan[2]"),
            ("C001", None),
        ]:
            result.add(
                Diagnostic(code, Severity.WARNING, "m", location=location)
            )
        sort_diagnostics(result)
        ordered = [(d.code, d.location) for d in result.diagnostics]
        assert ordered == [
            ("C001", None),
            ("C001", "layer 3"),
            ("P010", "plan[2]"),
            ("P010", "plan[10]"),
        ]

    def test_lint_output_is_stable_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            main(["lint", "--benchmarks", "qft4", "--trials", "64"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestExplainCli:
    def test_explain_prints_rationale(self, capsys):
        code = main(["lint", "--explain", "P023"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P023" in out
        assert len(out.strip().splitlines()) >= 3

    @pytest.mark.parametrize("retired", ["P018", "P022"])
    def test_retired_codes_are_unknown(self, retired, capsys):
        code = main(["lint", "--explain", retired])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unknown diagnostic code {retired!r}" in err
        assert retired not in registered_codes()

    def test_explain_unknown_code_exits_two(self, capsys):
        code = main(["lint", "--explain", "X999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "X999" in err

    def test_every_registered_code_explains(self, capsys):
        for registered in registered_codes():
            assert main(["lint", "--explain", registered]) == 0
        capsys.readouterr()


class TestMandatoryRationale:
    def test_register_without_rationale_fails(self):
        def undocumented_checker(circuit):
            return ()

        with pytest.raises(ValueError, match="rationale"):
            register(
                "Z901",
                "synthetic",
                Severity.WARNING,
                "circuit",
                "synthetic rule",
                checker=undocumented_checker,
            )
        assert "Z901" not in registered_codes()

    def test_every_shipped_rule_has_rationale(self):
        from repro.lint.registry import get_rule

        for code in registered_codes():
            assert get_rule(code).explanation.strip()


class TestRegistryDocsContract:
    """Every shipped code documented; every documented code shipped."""

    def _documented_codes(self):
        text = DOCS.read_text()
        return set(re.findall(r"^\| *`([A-Z]\d{3})` *\|", text, re.MULTILINE))

    def test_docs_table_matches_registry(self):
        documented = self._documented_codes()
        shipped = set(registered_codes())
        assert shipped - documented == set(), (
            "codes missing from docs/architecture.md lint-code table"
        )
        assert documented - shipped == set(), (
            "stale codes documented but not registered"
        )


class TestCrashingRuleExitCode:
    @pytest.fixture
    def crashing_rule(self):
        def exploding_checker(circuit):
            """Synthetic always-crashing rule (test scaffolding)."""
            raise RuntimeError("synthetic analyzer crash")

        register(
            "Z902",
            "synthetic-crash",
            Severity.WARNING,
            "circuit",
            "synthetic crashing rule",
            checker=exploding_checker,
        )
        yield "Z902"
        unregister("Z902")

    def test_json_exit_nonzero_on_internal_error(
        self, crashing_rule, capsys
    ):
        code = main(
            [
                "lint", "--benchmarks", "qft4", "--trials", "64",
                "--format", "json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        payload = json.loads(captured.out)
        assert payload is not None
        assert "Z902" in captured.err

    def test_text_exit_nonzero_on_internal_error(
        self, crashing_rule, capsys
    ):
        code = main(["lint", "--benchmarks", "qft4", "--trials", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert "INTERNAL ERROR" in captured.err


class TestAutoCli:
    def test_run_auto_smoke(self, capsys):
        code = main(["run", "bv4", "--trials", "64", "--auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate cross-check : ok" in out

    def test_run_auto_builds_only_what_its_check_reads(
        self, monkeypatch, capsys
    ):
        """P020, P021 and P023 read the plan, budget and trial count, so ``--auto``
        builds neither the hybrid section nor partition schedules."""
        import repro.lint as lint

        built = []

        def spy(*args, **kwargs):
            certificate = build_certificate(*args, **kwargs)
            built.append(certificate)
            return certificate

        build_certificate = lint.build_certificate
        monkeypatch.setattr(lint, "build_certificate", spy)
        code = main(["run", "grover", "--trials", "256", "--auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate cross-check : ok" in out
        (certificate,) = built
        assert "hybrid" not in certificate
        assert "schedules" not in certificate
        assert lint.validate_certificate(certificate) == []

    @pytest.mark.parametrize(
        "extra, executor, budget",
        [
            (("--max-cache-bytes", "2048"), "dfs", 2048),
        ],
        ids=["budget-2048"],
    )
    def test_run_auto_runs_the_given_options(
        self, extra, executor, budget, tmp_path, capsys
    ):
        path = tmp_path / "run.json"
        code = main(
            ["run", "qft5", "--trials", "128", "--auto", *extra,
             "--json", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate cross-check : ok" in out
        payload = json.loads(path.read_text())
        assert payload["executor"] == executor
        assert payload["advice"]["max_cache_bytes"] == budget
        assert (f"cache budget      : {budget} bytes" in out) == bool(budget)

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("bv14", ()),
            ("qft12", ()),
            ("bv5", ()),
            ("qft5", ("--max-cache-bytes", "1100")),
            ("qft5", ("--max-cache-bytes", str(1 << 20))),
        ],
        ids=["bv14", "qft12", "bv5", "qft5-budget-1100", "qft5-budget-1MB"],
    )
    def test_advise_prints_a_legal_run_of_its_top_candidate(
        self, name, extra, tmp_path, capsys
    ):
        """The printed ``repro run`` line runs the executor the advice names."""
        cert_path = tmp_path / "cert.json"
        code = main(
            ["advise", name, "--trials", "256", "--json", str(cert_path), *extra]
        )
        out = capsys.readouterr().out
        assert code == 0
        advice = json.loads(cert_path.read_text())["advice"]
        assert f"executor          : {advice['executor']} " in out
        line = next(
            row for row in out.splitlines() if row.startswith("advice")
        )
        words = line.split(":", 1)[1].split()
        assert words[:5] == ["repro", "run", name, "--trials", "256"]
        run_path = tmp_path / "run.json"
        assert main([*words[1:], "--json", str(run_path)]) == 0
        capsys.readouterr()
        assert json.loads(run_path.read_text())["executor"] == advice["executor"]

    def test_advise_json_writes_valid_certificate(self, tmp_path, capsys):
        from repro.lint import validate_certificate

        path = tmp_path / "cert.json"
        code = main(
            ["advise", "bv4", "--trials", "64", "--json", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        certificate = json.loads(path.read_text())
        assert not validate_certificate(certificate)
        assert certificate["benchmark"] == "bv4"

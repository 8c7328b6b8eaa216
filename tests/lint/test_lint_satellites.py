"""Satellite guarantees around the analyzer: deterministic output,
mandatory rationales, docs/registry parity, crash-safe CLI exit codes,
and the certificate-driven scheduler's bit-exactness."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.bench.suite import resolve_benchmark
from repro.circuits.layers import layerize
from repro.cli import main
from repro.core.parallel import run_parallel
from repro.lint.api import sort_diagnostics
from repro.lint.diagnostics import Diagnostic, LintResult, Severity
from repro.lint.registry import register, registered_codes, unregister
from repro.noise.sampling import sample_trials
from repro.sim.compiled import CompiledStatevectorBackend

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
        code = main(["lint", "--explain", "P022"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P022" in out
        assert len(out.strip().splitlines()) >= 3

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


class TestCertificateScheduler:
    def test_task_weights_change_schedule_not_results(self):
        circuit, model = resolve_benchmark("bv5")
        layered = layerize(circuit)
        trials = sample_trials(layered, model, 96, np.random.default_rng(3))

        def collect(weights):
            states = []
            outcome = run_parallel(
                layered,
                trials,
                lambda: CompiledStatevectorBackend(layered),
                lambda payload, idx: states.append(
                    (tuple(idx), payload.vector.copy())
                ),
                workers=2,
                depth=1,
                inline=True,
                task_weights=weights,
            )
            return outcome, states

        baseline_outcome, baseline = collect(None)
        num_tasks = baseline_outcome.num_tasks
        degenerate, shuffled = collect([1] * num_tasks)[1], collect(
            list(range(num_tasks, 0, -1))
        )[1]
        for other in (degenerate, shuffled):
            assert len(other) == len(baseline)
            for (idx_a, state_a), (idx_b, state_b) in zip(baseline, other):
                assert idx_a == idx_b
                assert np.array_equal(state_a, state_b)

    def test_weight_length_mismatch_rejected(self):
        circuit, model = resolve_benchmark("bv4")
        layered = layerize(circuit)
        trials = sample_trials(layered, model, 32, np.random.default_rng(3))
        with pytest.raises(ValueError, match="task weight"):
            run_parallel(
                layered,
                trials,
                lambda: CompiledStatevectorBackend(layered),
                workers=2,
                depth=1,
                inline=True,
                task_weights=[1],
            )


class TestAutoCli:
    def test_run_auto_smoke(self, capsys):
        code = main(["run", "bv4", "--trials", "64", "--auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "auto-tuned" in out
        assert "certificate cross-check : ok" in out

    #: ``repro run`` flags of an advice line, by the run() keyword they set.
    RUN_FLAGS = {
        "--workers": ("workers", int),
        "--partition-depth": ("partition_depth", int),
        "--max-cache-bytes": ("max_cache_bytes", int),
        "--cache-degrade": ("cache_degrade", str),
        "--batch": ("batch_size", int),
    }

    @pytest.mark.parametrize("name", ["bv14", "qft12", "bv5"])
    def test_advise_prints_a_legal_run_of_its_top_candidate(
        self, name, tmp_path, capsys
    ):
        from repro.core.options import validate

        path = tmp_path / "cert.json"
        code = main(
            ["advise", name, "--trials", "256", "--json", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        line = next(
            row for row in out.splitlines() if row.startswith("advice")
        )
        words = line.split(":", 1)[1].split()
        assert words[:4] == ["repro", "run", name, "--trials"]
        options = {"hybrid": False}
        rest = iter(words[5:])
        for flag in rest:
            if flag == "--hybrid":
                options["hybrid"] = True
            else:
                keyword, kind = self.RUN_FLAGS[flag]
                options[keyword] = kind(next(rest))
        validate(**options)
        top = json.loads(path.read_text())["candidates"][0]
        assert options.get("workers", 0) == top["workers"]
        assert options["hybrid"] == top["hybrid"]
        if top["workers"] or top["hybrid"]:
            # The wavefront width advisory applies to serial DFS only.
            assert "batch_size" not in options, line

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

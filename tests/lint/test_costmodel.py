"""Tests for the static cost model behind ResourceCertificates.

The tentpole claim: a certificate predicts a run without executing it.
So the central tests here compare certified numbers against real runs —
op counts exactly equal on every committed benchmark, nominal memory
peaks equal to the plan sanitizer's audit, budget spilling (spills,
spill loads, resident peaks) equal to the runtime CacheStats.
"""

import numpy as np
import pytest

from repro.bench.suite import (
    benchmark_names,
    large_benchmark_names,
    resolve_benchmark,
)
from repro.circuits.layers import layerize
from repro.core.cache import CacheBudget
from repro.core.executor import run_optimized
from repro.core.options import pick
from repro.core.schedule import build_plan
from repro.lint import (
    analyze_hybrid,
    analyze_plan,
    build_certificate,
    sanitize_plan,
    validate_certificate,
    write_certificate,
)
from repro.lint.costmodel import CERT_SCHEMA
from repro.noise.sampling import sample_trials
from repro.sim.backend import StatevectorBackend
from repro.sim.compiled import CompiledCircuit, CompiledStatevectorBackend
from repro.sim.counting import CountingBackend
from repro.sim.kernels import (
    DiagonalKernel,
    KernelCost,
    PermutationKernel,
    kernel_cost,
)
from repro.testing import random_circuit, random_trials
from tests.core.test_cache_budget import budgeted_run

import json


def _setup(name, trials=96, seed=2020):
    circuit, model = resolve_benchmark(name)
    layered = layerize(circuit)
    trial_set = sample_trials(
        layered, model, trials, np.random.default_rng(seed)
    )
    return layered, trial_set


class TestKernelCost:
    def test_cost_addition(self):
        total = KernelCost(3, 10) + KernelCost(4, 6)
        assert total == KernelCost(7, 16)

    def test_diagonal_cost_closed_form(self):
        n = 4
        kernel = DiagonalKernel(np.diag([1.0, 1.0j]), (1,), n)
        cost = kernel_cost(kernel, n)
        assert cost.flops == 6 * (1 << n)
        assert cost.bytes_moved == 2 * 16 * (1 << n)

    def test_pure_permutation_costs_no_flops(self):
        n = 3
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        kernel = PermutationKernel(x, (0,), n)
        cost = kernel_cost(kernel, n)
        assert cost.flops == 0
        assert cost.bytes_moved == 2 * 16 * (1 << n)


@pytest.mark.parametrize("name", benchmark_names() + large_benchmark_names())
def test_certificate_ops_match_runtime_everywhere(name):
    """The acceptance bar: certified op counts == ops_applied, exactly."""
    trials = 64 if name in large_benchmark_names() else 96
    layered, trial_set = _setup(name, trials=trials)
    certificate = build_certificate(layered, trial_set, benchmark=name)
    outcome = run_optimized(layered, trial_set, CountingBackend(layered))
    assert certificate["plan"]["ops"] == outcome.ops_applied
    assert certificate["plan"]["memory"]["peak_msv"] == outcome.peak_msv
    assert certificate["plan"]["finished_trials"] == len(trial_set)
    assert not validate_certificate(certificate)


class TestPlanAnalysis:
    @pytest.fixture
    def layered(self, rng):
        return layerize(random_circuit(4, 30, rng))

    @pytest.fixture
    def trials(self, layered, rng):
        return random_trials(layered, 64, rng)

    def test_nominal_peaks_match_sanitizer_audit(self, layered, trials):
        plan = build_plan(layered, trials)
        audit = sanitize_plan(plan, layered=layered, trials=trials)
        assert audit.ok
        analysis = analyze_plan(plan, layered)
        assert analysis.peak_msv == audit.peak_msv
        assert analysis.peak_stored == audit.peak_stored
        assert analysis.finished_trials == len(trials)

    def test_timeline_is_monotone_change_points(self, layered, trials):
        plan = build_plan(layered, trials)
        analysis = analyze_plan(plan, layered)
        indices = [point[0] for point in analysis.timeline]
        assert indices == sorted(indices)
        assert max(point[1] for point in analysis.timeline) == (
            analysis.peak_msv
        )

    def test_budget_predictions_match_runtime(self, layered, trials, tmp_path):
        state_bytes = 16 * (1 << layered.num_qubits)
        # Two resident states: below this plan's peak, so snapshots spill.
        budget = CacheBudget(max_bytes=2 * state_bytes, spill_dir=str(tmp_path))
        plan = build_plan(layered, trials)
        compiled = CompiledCircuit(layered)
        analysis = analyze_plan(plan, layered, compiled=compiled, budget=budget)
        outcome = budgeted_run(
            layered, trials, budget, plan=plan,
            make_backend=lambda: CompiledStatevectorBackend(
                layered, compiled=compiled
            ),
        )
        stats = outcome.cache_stats
        assert stats.spills > 0
        assert analysis.predicted_spills == stats.spills
        assert analysis.predicted_spill_loads == stats.spill_loads
        assert analysis.peak_resident_msv == stats.peak_resident_msv
        assert analysis.peak_resident_stored == stats.peak_resident_stored
        assert analysis.ops == outcome.ops_applied

    def test_budgeted_run_stays_within_certified_timeline(
        self, layered, trials
    ):
        state_bytes = 16 * (1 << layered.num_qubits)
        budget = CacheBudget(max_bytes=3 * state_bytes)
        plan = build_plan(layered, trials)
        analysis = analyze_plan(plan, layered, budget=budget)
        outcome = budgeted_run(
            layered, trials, budget, plan=plan,
            make_backend=lambda: StatevectorBackend(layered),
        )
        certified_peak = max(point[3] for point in analysis.timeline)
        assert outcome.cache_stats.peak_resident_msv <= certified_peak


class TestCertificateSerialization:
    @pytest.fixture
    def certificate(self):
        layered, trials = _setup("bv5")
        return build_certificate(
            layered, trials, benchmark="bv5", seed=2020
        )

    def test_schema_and_roundtrip(self, certificate, tmp_path):
        assert certificate["schema"] == CERT_SCHEMA
        path = tmp_path / "cert.json"
        write_certificate(path, certificate)
        loaded = json.loads(path.read_text())
        assert loaded["plan"]["ops"] == certificate["plan"]["ops"]
        assert not validate_certificate(loaded)

    def test_validate_rejects_missing_section(self, certificate):
        broken = dict(certificate)
        del broken["advice"]
        assert validate_certificate(broken) == ["missing key 'advice'"]

    def test_validate_rejects_tampered_ops(self, certificate):
        broken = json.loads(json.dumps(certificate))
        broken["plan"]["ops"] += 1
        assert validate_certificate(broken)

    def test_validate_reports_the_first_schema(self, certificate):
        first = dict(certificate, schema="repro-cert/1")
        assert validate_certificate(first) == [
            f"schema is 'repro-cert/1', expected {CERT_SCHEMA!r}"
        ]

    def test_validate_refuses_the_previous_schema(self, certificate):
        previous = dict(certificate, schema="repro-cert/4")
        assert validate_certificate(previous) == [
            f"schema is 'repro-cert/4', expected {CERT_SCHEMA!r}"
        ]

    def test_validate_rejects_unknown_executor(self, certificate):
        broken = json.loads(json.dumps(certificate))
        broken["advice"]["executor"] = "turbo"
        assert validate_certificate(broken) == [
            "advice.executor 'turbo' names no executor"
        ]

    def test_validate_rejects_advice_off_the_budget(self):
        layered, trials = _setup("bv5")
        certificate = build_certificate(
            layered, trials, budget=CacheBudget(max_bytes=2048)
        )
        assert not validate_certificate(certificate)
        broken = json.loads(json.dumps(certificate))
        broken["advice"]["max_cache_bytes"] = None
        assert validate_certificate(broken) == [
            "advice.max_cache_bytes None is not the certified budget 2048"
        ]


class TestAdvice:
    """``advice`` is the default pick's verdict, not a second ranking."""

    @pytest.mark.parametrize("name", benchmark_names() + large_benchmark_names())
    def test_advice_is_the_default_pick(self, name):
        for seed in (1, 7, 11):
            layered, trials = _setup(name, trials=256, seed=seed)
            advice = build_certificate(layered, trials)["advice"]
            assert advice == {
                "executor": pick(layered, trials).name,
                "max_cache_bytes": None,
            }, seed

    def test_budget_advises_dfs_with_that_budget(self):
        # bv14's default pick is the hybrid, which takes no budget.
        layered, trials = _setup("bv14", trials=256, seed=7)
        assert pick(layered, trials).name == "hybrid"
        budget = CacheBudget(max_bytes=4096)
        advice = build_certificate(layered, trials, budget=budget)["advice"]
        assert advice == {"executor": "dfs", "max_cache_bytes": 4096}


def _advise_certificate(name):
    """``name``'s certificate with the hybrid section ``repro advise`` adds."""
    layered, trials = _setup(name)
    certificate = build_certificate(layered, trials, benchmark=name, seed=2020)
    certificate["hybrid"] = analyze_hybrid(layered, build_plan(layered, trials))
    return certificate


class TestHybridCostModel:
    """The certificate's hybrid section: flop split, cache shrink."""

    @pytest.fixture(scope="class")
    def bv5_case(self):
        layered, trials = _setup("bv5")
        plan = build_plan(layered, trials)
        compiled = CompiledCircuit(layered)
        hybrid = analyze_hybrid(layered, plan, compiled=compiled)
        return layered, trials, plan, hybrid

    def test_flop_components_sum(self, bv5_case):
        _, _, _, hybrid = bv5_case
        flops = hybrid["flops"]
        assert (
            flops["anchor"]
            + flops["dense"]
            + flops["materialize"]
            + flops["frame"]
            == flops["total"]
        )
        assert "modeled_speedup" not in hybrid

    def test_gate_split_conserves_planned_ops(self, bv5_case):
        _, _, _, hybrid = bv5_case
        stats = hybrid["stats"]
        assert (
            stats["symbolic_gates"]
            + stats["dense_gates"]
            + stats["symbolic_injects"]
            + stats["dense_injects"]
            == stats["planned_ops"]
        )

    def test_cache_shrinks_strictly_with_symbolic_snapshots(self, bv5_case):
        """The ISSUE's static peak-MSV claim: frame deltas beat states."""
        _, _, _, hybrid = bv5_case
        memory = hybrid["memory"]
        assert memory["cache_frame_snapshots"] > 0
        assert (
            memory["cache_resident_bytes"]
            < memory["dense_cache_resident_bytes"]
        )
        assert memory["cache_shrink"]
        # Frame deltas are O(n), full snapshots are 16 * 2**n.
        assert memory["frame_bytes"] < 16 * 2 ** 5

    def test_certificate_carries_valid_hybrid_section(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cert.json"
        assert main(["advise", "bv5", "--trials", "96", "--json", str(path)]) == 0
        capsys.readouterr()
        certificate = json.loads(path.read_text())
        assert "hybrid" in certificate
        assert not validate_certificate(certificate)

    def test_validate_rejects_tampered_hybrid_flops(self):
        broken = _advise_certificate("bv5")
        assert not validate_certificate(broken)
        broken["hybrid"]["flops"]["total"] += 1
        assert validate_certificate(broken)

    def test_validate_rejects_tampered_cache_bytes(self):
        broken = _advise_certificate("bv5")
        broken["hybrid"]["memory"]["cache_resident_bytes"] += 8
        assert validate_certificate(broken)

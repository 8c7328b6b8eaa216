"""Tests for the static cost model behind ResourceCertificates.

The tentpole claim: a certificate predicts a run without executing it.
So the central tests here compare certified numbers against real runs —
op counts exactly equal on every committed benchmark, nominal memory
peaks equal to the plan sanitizer's audit, budget degradation (spills,
drops, recompute ops, resident peaks) equal to the runtime CacheStats,
and the mirrored LPT scheduler identical bucket-for-bucket to
``PlanPartition.assign``.
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
from repro.core.parallel import partition_plan
from repro.core.schedule import build_plan
from repro.lint import (
    analyze_partition,
    analyze_plan,
    build_certificate,
    sanitize_plan,
    validate_certificate,
    write_certificate,
)
from repro.lint.costmodel import CERT_SCHEMA, lpt_assign, lpt_makespan
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

    @pytest.mark.parametrize("mode", ["spill", "drop"])
    def test_budget_predictions_match_runtime(
        self, layered, trials, mode, tmp_path
    ):
        state_bytes = 16 * (1 << layered.num_qubits)
        budget = CacheBudget(
            max_bytes=3 * state_bytes, mode=mode,
            spill_dir=str(tmp_path) if mode == "spill" else None,
        )
        plan = build_plan(layered, trials)
        compiled = CompiledCircuit(layered)
        analysis = analyze_plan(plan, layered, compiled=compiled, budget=budget)
        outcome = run_optimized(
            layered,
            trials,
            CompiledStatevectorBackend(layered, compiled=compiled),
            plan=plan,
            cache_budget=budget,
        )
        stats = outcome.cache_stats
        assert analysis.predicted_spills == stats.spills
        assert analysis.predicted_spill_loads == stats.spill_loads
        assert analysis.predicted_drops == stats.drops
        assert analysis.predicted_recomputes == stats.recomputes
        assert analysis.peak_resident_msv == stats.peak_resident_msv
        assert analysis.peak_resident_stored == stats.peak_resident_stored
        if mode == "drop" and stats.recomputes:
            assert analysis.predicted_recompute_ops > 0
            degraded_total = analysis.ops + analysis.predicted_recompute_ops
            assert degraded_total == outcome.ops_applied

    def test_budgeted_run_stays_within_certified_timeline(
        self, layered, trials
    ):
        state_bytes = 16 * (1 << layered.num_qubits)
        budget = CacheBudget(max_bytes=3 * state_bytes, mode="drop")
        plan = build_plan(layered, trials)
        analysis = analyze_plan(plan, layered, budget=budget)
        outcome = run_optimized(
            layered,
            trials,
            StatevectorBackend(layered),
            plan=plan,
            cache_budget=budget,
        )
        certified_peak = max(point[3] for point in analysis.timeline)
        assert outcome.cache_stats.peak_resident_msv <= certified_peak


class TestScheduleAnalysis:
    @pytest.fixture
    def partitioned(self, rng):
        layered = layerize(random_circuit(4, 30, rng))
        trials = random_trials(layered, 64, rng)
        return layered, trials, partition_plan(layered, trials, depth=1)

    def test_lpt_assign_mirrors_partition_assign(self, partitioned):
        _, _, partition = partitioned
        weights = [task.est_ops for task in partition.tasks]
        for workers in (1, 2, 3, 4):
            buckets, _loads = lpt_assign(weights, workers)
            actual = [
                list(bucket) for bucket in partition.assign(workers)
            ]
            assert buckets == actual

    def test_lpt_makespan_monotone_in_workers(self, partitioned):
        _, _, partition = partitioned
        weights = [task.est_ops for task in partition.tasks]
        spans = [lpt_makespan(weights, k) for k in (1, 2, 3, 4)]
        certified = [min(spans[: i + 1]) for i in range(len(spans))]
        assert certified == sorted(certified, reverse=True)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_prefix_peaks_match_runtime_prefix(self, depth):
        """The walk's static prefix peaks equal what the parallel phase 1
        measures under either state model: cached + working + emitted
        entries, with the working state released at an EmitTask no
        Restore follows.  Both models also write the same entry states
        (at 256 trials the depth-2 prefix has symbolic work to share, so
        the hybrid model runs there; the depth-1 prefix falls back)."""
        from repro.core.parallel import _prefix_phase

        layered, trials = _setup("qft5", trials=256)
        partition = partition_plan(layered, trials, depth=depth)
        schedule = analyze_partition(partition, layered)
        written = []
        for hybrid in (False, True):
            entries = np.zeros(
                (partition.num_tasks, 1 << layered.num_qubits),
                dtype=np.complex128,
            )
            runtime = _prefix_phase(
                partition, layered, CompiledStatevectorBackend(layered),
                entries, hybrid=hybrid,
            )
            assert schedule["prefix_peak_live"] == runtime["peak_live"]
            assert schedule["prefix_peak_stored"] == runtime["peak_stored"]
            assert schedule["prefix_ops"] == runtime["ops"]
            written.append(entries)
        assert np.array_equal(*written)

    def test_partition_ops_conservation(self, partitioned):
        layered, trials, partition = partitioned
        schedule = analyze_partition(partition, layered)
        plan = build_plan(layered, trials)
        analysis = analyze_plan(plan, layered)
        assert (
            schedule["prefix_ops"] + sum(schedule["task_ops"])
            == analysis.ops
        )


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
        del broken["schedules"]
        assert validate_certificate(broken)

    def test_validate_rejects_tampered_ops(self, certificate):
        broken = json.loads(json.dumps(certificate))
        broken["plan"]["ops"] += 1
        assert validate_certificate(broken)

    def test_candidates_sorted_by_score(self, certificate):
        scores = [c["score"] for c in certificate["candidates"]]
        assert scores == sorted(scores)
        assert certificate["advice"]["score"] == scores[0]


class TestHybridCostModel:
    """The certificate's hybrid section: flop split, cache shrink."""

    @pytest.fixture(scope="class")
    def bv5_case(self):
        layered, trials = _setup("bv5")
        plan = build_plan(layered, trials)
        compiled = CompiledCircuit(layered)
        from repro.lint import analyze_hybrid

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
        assert hybrid["modeled_speedup"] > 0

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

    def test_certificate_carries_valid_hybrid_section(self):
        layered, trials = _setup("bv5")
        certificate = build_certificate(
            layered, trials, benchmark="bv5", seed=2020
        )
        assert "hybrid" in certificate
        assert isinstance(certificate["advice"]["hybrid"], dict | bool | type(None))
        assert any(c.get("hybrid") for c in certificate["candidates"])
        assert not validate_certificate(certificate)

    def test_validate_rejects_tampered_hybrid_flops(self):
        layered, trials = _setup("bv5")
        certificate = build_certificate(
            layered, trials, benchmark="bv5", seed=2020
        )
        broken = json.loads(json.dumps(certificate))
        broken["hybrid"]["flops"]["total"] += 1
        assert validate_certificate(broken)

    def test_validate_rejects_tampered_cache_bytes(self):
        layered, trials = _setup("bv5")
        certificate = build_certificate(
            layered, trials, benchmark="bv5", seed=2020
        )
        broken = json.loads(json.dumps(certificate))
        broken["hybrid"]["memory"]["cache_resident_bytes"] += 8
        assert validate_certificate(broken)

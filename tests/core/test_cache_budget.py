"""Memory-budgeted snapshot spilling: never diverge, never recompute.

A :class:`CacheBudget` caps the bytes the snapshot cache may keep resident.
Over budget, the coldest snapshots are spilled to CRC-checked files and
reloaded on restore.  Every budgeted run's payloads stay ``array_equal``
to the unbudgeted run's, and its operations stay the plan's:
``ops_applied + ops_shared == plan.planned_operations(layered)``.  The
*nominal* MSV peaks — the paper's metric and the lint sanitizer's static
bound — are reported unchanged, with the spilled reality in separate
resident counters.
"""

import gc

import numpy as np
import pytest

from repro.bench.suite import build_compiled_benchmark, resolve_benchmark
from repro.circuits import layerize
from repro.core import run_optimized
from repro.core.cache import CacheBudget
from repro.core.resilience import load_journal, run_journaled
from repro.core.runner import NoisySimulator
from repro.core.schedule import ScheduleError, build_plan
from repro.lint import (
    analyze_plan,
    build_certificate,
    check_recorded_run,
    lint_budget_prediction,
    lint_certificate_trace,
    sanitize_plan,
)
from repro.obs import InMemoryRecorder
from repro.noise import ibm_yorktown, sample_trials
from repro.sim.compiled import CompiledStatevectorBackend
from repro.sim.counting import CountingBackend
from repro.sim.statevector import Statevector


def _setup(name="bv4", num_trials=160, seed=9):
    layered = layerize(build_compiled_benchmark(name))
    trials = sample_trials(
        layered, ibm_yorktown(), num_trials, np.random.default_rng(seed)
    )
    return layered, trials


def _stream(layered, trials, budget=None, backend=None, plan=None):
    stream = []
    outcome = run_optimized(
        layered, trials, backend or CompiledStatevectorBackend(layered),
        lambda p, i: stream.append((np.array(p.vector, copy=True), i)),
        plan=plan, cache_budget=budget,
    )
    return stream, outcome


def _state_bytes(layered):
    return 16 * (1 << layered.num_qubits)


def _assert_streams_identical(reference, degraded):
    assert len(reference) == len(degraded)
    for (r_state, r_indices), (d_state, d_indices) in zip(reference, degraded):
        assert r_indices == d_indices
        assert np.array_equal(r_state, d_state)


def budgeted_run(layered, trials, budget, make_backend=None, plan=None):
    """Run ``trials`` under ``budget`` and without; assert the budgeted
    run's payloads equal the other's and that it applies exactly the
    plan's operations.  Returns the budgeted run's outcome."""
    make_backend = make_backend or (lambda: CompiledStatevectorBackend(layered))
    plan = plan or build_plan(layered, trials)
    reference, _ = _stream(layered, trials, backend=make_backend(), plan=plan)
    degraded, outcome = _stream(
        layered, trials, budget, backend=make_backend(), plan=plan
    )
    _assert_streams_identical(reference, degraded)
    assert outcome.ops_applied + outcome.ops_shared == plan.planned_operations(
        layered
    )
    return outcome


class TestSpill:
    def test_bit_identical_and_degradation_counted(self, tmp_path):
        layered, trials = _setup()
        budget = CacheBudget(
            max_bytes=_state_bytes(layered), spill_dir=str(tmp_path),
        )
        stats = budgeted_run(layered, trials, budget).cache_stats
        assert stats.spills > 0
        assert stats.spill_loads == stats.spills
        assert stats.degraded

    @pytest.mark.parametrize("name", ["qft5", "grover"])
    @pytest.mark.parametrize("states", [1, 2])
    def test_spill_reloads_exactly(self, name, states):
        # One resident state spills every snapshot; two keep the newest
        # snapshot resident beside the working state.
        layered, trials = _setup(name, num_trials=256, seed=7)
        budget = CacheBudget(max_bytes=states * _state_bytes(layered))
        assert budgeted_run(layered, trials, budget).cache_stats.spills > 0

    def test_spill_files_cleaned_up(self, tmp_path):
        layered, trials = _setup()
        budget = CacheBudget(
            max_bytes=_state_bytes(layered), spill_dir=str(tmp_path),
        )
        budgeted_run(layered, trials, budget)
        assert list(tmp_path.iterdir()) == []

    def test_default_spill_dir_is_temporary(self):
        layered, trials = _setup()
        budget = CacheBudget(max_bytes=_state_bytes(layered))
        budgeted_run(layered, trials, budget)


class TestBudgetBound:
    """A budget of ``k`` states keeps at most ``max(1, k)`` resident: the
    coldest snapshots spill before a snapshot copies, and with no room
    beside the working state the snapshot goes to disk uncopied."""

    #: Spills (each reloaded once) at budgets of 1, 2 and 3 states;
    #: making room first spills the same snapshots as spilling after.
    SPILLS = {"qft5": (212, 59, 12), "grover": (142, 40, 2), "bv4": (47, 12, 0)}

    @pytest.mark.parametrize("name", sorted(SPILLS))
    @pytest.mark.parametrize("states", [1, 2, 3])
    def test_resident_states_stay_within_the_budget(self, name, states):
        layered, trials = _setup(name, num_trials=256, seed=7)
        budget = CacheBudget(max_bytes=states * _state_bytes(layered))
        stats = budgeted_run(layered, trials, budget).cache_stats
        spills = self.SPILLS[name][states - 1]
        assert stats.peak_resident_msv <= states
        assert (stats.spills, stats.spill_loads) == (spills, spills)
        certificate = build_certificate(layered, trials, budget=budget)
        assert certificate["budget"]["peak_resident_msv"] == (
            stats.peak_resident_msv
        )
        result = lint_budget_prediction(certificate, stats)
        assert result.ok, [str(d) for d in result.errors]

    @pytest.mark.parametrize("states", [1, 2])
    def test_states_in_memory_stay_within_the_budget(self, states):
        """Nothing outside the cache keeps a buffer alive: at every copy
        and every reload the statevectors in memory fit the budget."""
        layered, trials = _setup("qft5", num_trials=64, seed=7)
        seen = []

        def in_memory():
            return sum(isinstance(o, Statevector) for o in gc.get_objects())

        class Watched(CompiledStatevectorBackend):
            def copy_state(self, state):
                copy = super().copy_state(state)
                seen.append(in_memory())
                return copy

            def adopt_state(self, state):
                seen.append(in_memory())
                return super().adopt_state(state)

        budget = CacheBudget(max_bytes=states * _state_bytes(layered))
        gc.collect()  # no garbage from earlier tests in the count
        outcome = run_optimized(
            layered, trials, Watched(layered), lambda p, i: None,
            cache_budget=budget,
        )
        assert outcome.cache_stats.spill_loads > 0
        assert max(seen) <= states


class TestNominalAccounting:
    def test_nominal_peaks_unchanged_resident_lower(self):
        """The paper's MSV metric must not silently improve under budget."""
        layered, trials = _setup()
        _, ref_outcome = _stream(layered, trials)
        budget = CacheBudget(max_bytes=_state_bytes(layered))
        outcome = budgeted_run(layered, trials, budget)
        stats = outcome.cache_stats
        assert outcome.peak_msv == ref_outcome.peak_msv
        assert outcome.peak_stored == ref_outcome.peak_stored
        assert stats.peak_resident_stored < ref_outcome.peak_stored

    def test_static_bound_still_matches_nominal_peak(self):
        layered, trials = _setup()
        plan = build_plan(layered, trials)
        audit = sanitize_plan(plan, trials=trials, layered=layered)
        assert audit.ok
        budget = CacheBudget(max_bytes=_state_bytes(layered))
        outcome = budgeted_run(layered, trials, budget)
        assert audit.peak_msv == outcome.peak_msv

    def test_generous_budget_never_degrades(self):
        layered, trials = _setup()
        budget = CacheBudget(max_bytes=1 << 40)
        outcome = budgeted_run(layered, trials, budget)
        stats = outcome.cache_stats
        assert not stats.degraded
        assert stats.peak_resident_stored == outcome.peak_stored


class TestBudgetEverywhere:
    def test_counting_backend_rejected(self):
        layered, trials = _setup(num_trials=32)
        budget = CacheBudget(max_bytes=1)
        with pytest.raises(ScheduleError):
            run_optimized(
                layered, trials, CountingBackend(layered),
                cache_budget=budget,
            )

    def test_certificate_p020_parity_under_spill_budget(self):
        # Spilling moves bytes, never operations: the recorded ops.applied
        # must equal the certified plan ops with no allowance.
        circuit, model = resolve_benchmark("qft5")
        simulator = NoisySimulator(circuit, model, seed=7)
        trials = simulator.sample(256)
        recorder = InMemoryRecorder()
        budgeted = simulator.run(
            trials=trials, recorder=recorder, max_cache_bytes=1100,
            collect_final_states=True,
        )
        assert recorder.counter_total("cache.spill") > 0
        reference = simulator.run(trials=trials, collect_final_states=True)
        for got, want in zip(budgeted.final_states, reference.final_states):
            assert np.array_equal(got.vector, want.vector)
        plan = build_plan(simulator.layered, trials)
        assert (
            budgeted.metrics.optimized_ops + budgeted.ops_shared
            == plan.planned_operations(simulator.layered)
        )
        analysis = analyze_plan(plan, simulator.layered)
        certificate = {"plan": analysis.to_dict(), "num_trials": len(trials)}
        result = lint_certificate_trace(certificate, recorder)
        assert result.ok, [str(d) for d in result.errors]

    def test_resumed_journal_spills_exactly(self, tmp_path):
        """The remaining trials of a resumed journal run under the budget:
        the run returns the unbudgeted payloads, applies exactly the
        remaining trials' planned operations and passes its evidence."""
        circuit, model = resolve_benchmark("qft5")
        simulator = NoisySimulator(circuit, model, seed=7)
        trials = simulator.sample(256)
        path = str(tmp_path / "run.journal")
        finished = []

        def crash_after_five(payload, indices):
            finished.append(indices)
            if len(finished) == 5:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_journaled(
                simulator.layered, trials,
                lambda: simulator.make_backend("statevector"),
                crash_after_five, path,
            )
        committed = load_journal(path).completed_trials
        recorder = InMemoryRecorder()
        resumed = simulator.run(
            trials=trials, journal=path, max_cache_bytes=1100,
            recorder=recorder, collect_final_states=True,
        )
        assert resumed.journal.resumed
        assert recorder.counter_total("cache.spill") > 0
        reference = simulator.run(trials=trials, collect_final_states=True)
        for got, want in zip(resumed.final_states, reference.final_states):
            assert np.array_equal(got.vector, want.vector)
        remaining = [t for i, t in enumerate(trials) if i not in committed]
        assert resumed.metrics.optimized_ops + resumed.ops_shared == (
            build_plan(simulator.layered, remaining).planned_operations(
                simulator.layered
            )
        )
        checks = check_recorded_run(
            simulator.layered, trials, recorder, resumed.metrics,
            journal=path, max_cache_bytes=1100,
        )
        assert not any(checks.values()), checks

    def test_runner_budget_counts_identical(self):
        circuit = build_compiled_benchmark("bv4")
        reference = NoisySimulator(circuit, ibm_yorktown(), seed=3).run(
            num_trials=96, collect_final_states=True
        )
        layered = layerize(circuit)
        budgeted = NoisySimulator(circuit, ibm_yorktown(), seed=3).run(
            num_trials=96,
            max_cache_bytes=_state_bytes(layered),
            collect_final_states=True,
        )
        assert budgeted.counts == reference.counts
        for got, want in zip(budgeted.final_states, reference.final_states):
            assert np.array_equal(got.vector, want.vector)
        assert budgeted.metrics.optimized_ops == reference.metrics.optimized_ops

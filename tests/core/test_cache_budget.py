"""Memory-budgeted cache degradation: spill or recompute, never diverge.

A :class:`CacheBudget` caps the bytes the snapshot cache may keep resident.
Over budget, the coldest snapshots are spilled to disk (and reloaded) or
dropped (and recomputed by replaying the instructions that built them).
Either way the executor's results stay bit-identical to the unbudgeted
run; the *nominal* MSV peaks — the paper's metric and the lint
sanitizer's static bound — are reported unchanged, with the degraded
reality in separate resident counters.
"""

import numpy as np
import pytest

from repro.bench.suite import build_compiled_benchmark, resolve_benchmark
from repro.circuits import layerize
from repro.core import run_optimized
from repro.core.cache import CacheBudget
from repro.core.parallel import fork_available, run_parallel
from repro.core.runner import NoisySimulator
from repro.core.schedule import ScheduleError, build_plan
from repro.lint import analyze_plan, lint_certificate_trace, sanitize_plan
from repro.obs import InMemoryRecorder
from repro.noise import ibm_yorktown, sample_trials
from repro.sim.compiled import CompiledStatevectorBackend
from repro.sim.counting import CountingBackend


def _setup(name="bv4", num_trials=160, seed=9):
    layered = layerize(build_compiled_benchmark(name))
    trials = sample_trials(
        layered, ibm_yorktown(), num_trials, np.random.default_rng(seed)
    )
    return layered, trials


def _stream(layered, trials, budget=None):
    stream = []
    outcome = run_optimized(
        layered, trials, CompiledStatevectorBackend(layered),
        lambda p, i: stream.append((np.array(p.vector, copy=True), i)),
        cache_budget=budget,
    )
    return stream, outcome


def _state_bytes(layered):
    return 16 * (1 << layered.num_qubits)


def _assert_streams_identical(reference, degraded):
    assert len(reference) == len(degraded)
    for (r_state, r_indices), (d_state, d_indices) in zip(reference, degraded):
        assert r_indices == d_indices
        assert np.array_equal(r_state, d_state)


def _pool_stream(layered, trials, budget, depth=1, inline=True):
    stream = []
    outcome = run_parallel(
        layered, trials, lambda: CompiledStatevectorBackend(layered),
        lambda p, i: stream.append((np.array(p.vector, copy=True), i)),
        workers=2, depth=depth, inline=inline, cache_budget=budget,
    )
    return stream, outcome


_TRANSPORTS = pytest.mark.parametrize(
    "inline",
    [True, pytest.param(False, marks=pytest.mark.skipif(
        not fork_available(), reason="needs fork"
    ))],
    ids=["inline", "fork"],
)


class TestSpill:
    def test_bit_identical_and_degradation_counted(self, tmp_path):
        layered, trials = _setup()
        reference, ref_outcome = _stream(layered, trials)
        budget = CacheBudget(
            max_bytes=_state_bytes(layered), mode="spill",
            spill_dir=str(tmp_path),
        )
        degraded, outcome = _stream(layered, trials, budget)
        _assert_streams_identical(reference, degraded)
        # Spilling costs I/O, never operations.
        assert outcome.ops_applied == ref_outcome.ops_applied
        stats = outcome.cache_stats
        assert stats.spills > 0
        assert stats.spill_loads == stats.spills
        assert stats.degraded

    def test_spill_files_cleaned_up(self, tmp_path):
        layered, trials = _setup()
        budget = CacheBudget(
            max_bytes=_state_bytes(layered), mode="spill",
            spill_dir=str(tmp_path),
        )
        _stream(layered, trials, budget)
        assert list(tmp_path.iterdir()) == []

    def test_default_spill_dir_is_temporary(self):
        layered, trials = _setup()
        budget = CacheBudget(max_bytes=_state_bytes(layered), mode="spill")
        reference, _ = _stream(layered, trials)
        degraded, _ = _stream(layered, trials, budget)
        _assert_streams_identical(reference, degraded)


class TestDrop:
    def test_bit_identical_with_recompute_ops(self):
        layered, trials = _setup()
        reference, ref_outcome = _stream(layered, trials)
        budget = CacheBudget(max_bytes=_state_bytes(layered), mode="drop")
        degraded, outcome = _stream(layered, trials, budget)
        _assert_streams_identical(reference, degraded)
        stats = outcome.cache_stats
        assert stats.drops > 0
        assert stats.recomputes == stats.drops
        # Recomputing dropped snapshots costs real operations.
        assert outcome.ops_applied > ref_outcome.ops_applied

    @pytest.mark.parametrize("name", ["qft5", "grover"])
    @pytest.mark.parametrize("states", [1, 2])
    def test_recompute_replays_the_plan_segments(self, name, states):
        # Compiled segments fuse per [start, end): a snapshot rebuilt
        # through other advance boundaries than the plan's rounds
        # differently, so only an exact replay is bit-identical.
        layered, trials = _setup(name, num_trials=256, seed=7)
        reference, _ = _stream(layered, trials)
        budget = CacheBudget(
            max_bytes=states * _state_bytes(layered), mode="drop"
        )
        degraded, outcome = _stream(layered, trials, budget)
        assert outcome.cache_stats.recomputes > 0
        _assert_streams_identical(reference, degraded)

    @pytest.mark.parametrize("name", ["qft5", "grover"])
    @pytest.mark.parametrize("depth", [1, 2])
    @_TRANSPORTS
    def test_pool_recompute_replays_from_the_task_entry(
        self, name, depth, inline
    ):
        layered, trials = _setup(name, num_trials=256, seed=7)
        reference, _ = _stream(layered, trials)
        budget = CacheBudget(max_bytes=_state_bytes(layered), mode="drop")
        stream, outcome = _pool_stream(layered, trials, budget, depth, inline)
        assert outcome.used_fork is not inline
        _assert_streams_identical(reference, stream)

    def test_unknown_mode_rejected(self):
        layered, trials = _setup()
        budget = CacheBudget(max_bytes=1, mode="shred")
        with pytest.raises(ScheduleError):
            _stream(layered, trials, budget)


class TestNominalAccounting:
    def test_nominal_peaks_unchanged_resident_lower(self):
        """The paper's MSV metric must not silently improve under budget."""
        layered, trials = _setup()
        _, ref_outcome = _stream(layered, trials)
        budget = CacheBudget(max_bytes=_state_bytes(layered), mode="spill")
        _, outcome = _stream(layered, trials, budget)
        stats = outcome.cache_stats
        assert outcome.peak_msv == ref_outcome.peak_msv
        assert outcome.peak_stored == ref_outcome.peak_stored
        assert stats.peak_resident_stored < ref_outcome.peak_stored

    def test_static_bound_still_matches_nominal_peak(self):
        layered, trials = _setup()
        plan = build_plan(layered, trials)
        audit = sanitize_plan(plan, trials=trials, layered=layered)
        assert audit.ok
        budget = CacheBudget(max_bytes=_state_bytes(layered), mode="drop")
        _, outcome = _stream(layered, trials, budget)
        assert audit.peak_msv == outcome.peak_msv

    def test_generous_budget_never_degrades(self):
        layered, trials = _setup()
        budget = CacheBudget(max_bytes=1 << 40, mode="spill")
        _, outcome = _stream(layered, trials, budget)
        stats = outcome.cache_stats
        assert not stats.degraded
        assert stats.peak_resident_stored == outcome.peak_stored


class TestBudgetEverywhere:
    def test_counting_backend_rejected(self):
        layered, trials = _setup(num_trials=32)
        budget = CacheBudget(max_bytes=1, mode="spill")
        with pytest.raises(ScheduleError):
            run_optimized(
                layered, trials, CountingBackend(layered),
                cache_budget=budget,
            )

    @pytest.mark.parametrize("mode", ["spill", "drop"])
    def test_parallel_with_budget_matches_serial(self, mode):
        layered, trials = _setup()
        reference, _ = _stream(layered, trials)
        budget = CacheBudget(max_bytes=_state_bytes(layered), mode=mode)
        stream, _ = _pool_stream(layered, trials, budget)
        _assert_streams_identical(reference, stream)

    @pytest.mark.parametrize("mode", ["spill", "drop"])
    @_TRANSPORTS
    def test_parallel_reports_worker_degradation(self, mode, inline):
        layered, trials = _setup("qft5", num_trials=256, seed=7)
        _, reference = _stream(layered, trials)
        budget = CacheBudget(max_bytes=_state_bytes(layered), mode=mode)
        _, outcome = _pool_stream(layered, trials, budget, inline=inline)
        stats = outcome.cache_stats
        assert stats.degraded
        if mode == "spill":
            assert stats.spills > 0 and stats.spill_loads == stats.spills
            assert outcome.ops_applied == reference.ops_applied
        else:
            assert stats.drops > 0 and stats.recomputes == stats.drops
            assert outcome.ops_applied > reference.ops_applied

    @pytest.mark.parametrize("workers", (0, 2))
    def test_certificate_p020_parity_under_drop_budget(self, workers):
        # A recompute is charged to ops.applied, so its cache.recompute
        # instant must carry those ops for P020 to add up — serially and
        # for the pool's workers, which replay from their task's entry.
        circuit, model = resolve_benchmark("qft5")
        simulator = NoisySimulator(circuit, model, seed=7)
        trials = simulator.sample(256)
        recorder = InMemoryRecorder()
        simulator.run(
            trials=trials, recorder=recorder, workers=workers,
            max_cache_bytes=1100, cache_degrade="drop",
        )
        assert recorder.counter_total("cache.recompute") > 0
        analysis = analyze_plan(
            build_plan(simulator.layered, trials), simulator.layered
        )
        certificate = {"plan": analysis.to_dict(), "num_trials": len(trials)}
        result = lint_certificate_trace(certificate, recorder)
        assert result.ok, [str(d) for d in result.errors]

    def test_runner_budget_counts_identical(self):
        circuit = build_compiled_benchmark("bv4")
        reference = NoisySimulator(circuit, ibm_yorktown(), seed=3).run(
            num_trials=96
        )
        layered = layerize(circuit)
        budgeted = NoisySimulator(circuit, ibm_yorktown(), seed=3).run(
            num_trials=96,
            max_cache_bytes=_state_bytes(layered),
            cache_degrade="drop",
        )
        assert budgeted.counts == reference.counts

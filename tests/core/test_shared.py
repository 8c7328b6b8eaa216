"""SharedPrefixStore: cross-job prefix dedup, eviction, bit-identity."""

import gc
import os
import weakref

import numpy as np
import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.core.cache import CacheBudget
from repro.core.shared import (
    SharedPrefixStore,
    advance_step,
    circuit_fingerprint,
    inject_step,
)
from repro.obs import InMemoryRecorder


def _run(shared=None, seed=7, trials=96, name="bv4", recorder=None):
    sim = NoisySimulator(
        build_compiled_benchmark(name), ibm_yorktown(), seed=seed
    )
    return sim.run(num_trials=trials, shared=shared, recorder=recorder)


class TestStoreBasics:
    def test_publish_fetch_roundtrip_is_bit_identical(self):
        store = SharedPrefixStore()
        vector = (np.arange(8) + 1j * np.arange(8)).astype(np.complex128)
        steps = (advance_step(0, 3),)
        assert store.publish(123, steps, vector, layer=3)
        fetched = store.fetch(123, steps)
        assert fetched is not None
        assert np.array_equal(fetched, vector)
        # The fetch is a copy: mutating it must not poison the store.
        fetched[0] = 99.0
        again = store.fetch(123, steps)
        assert np.array_equal(again, vector)

    def test_fetch_misses_on_unknown_key(self):
        store = SharedPrefixStore()
        assert store.fetch(1, (advance_step(0, 1),)) is None
        stats = store.stats()
        assert stats.misses == 1 and stats.hits == 0

    def test_duplicate_publish_is_deduped(self):
        store = SharedPrefixStore()
        vector = np.ones(4, dtype=np.complex128)
        steps = (advance_step(0, 2), inject_step_like())
        assert store.publish(5, steps, vector, layer=2)
        assert not store.publish(5, steps, vector, layer=2)
        assert store.stats().entries == 1

    def test_distinct_fingerprints_do_not_alias(self):
        store = SharedPrefixStore()
        steps = (advance_step(0, 2),)
        a = np.full(4, 1.0, dtype=np.complex128)
        b = np.full(4, 2.0, dtype=np.complex128)
        store.publish(1, steps, a, layer=2)
        store.publish(2, steps, b, layer=2)
        assert np.array_equal(store.fetch(1, steps), a)
        assert np.array_equal(store.fetch(2, steps), b)


def inject_step_like():
    from repro.core.events import ErrorEvent

    return inject_step(ErrorEvent(1, 0, "x"))


class TestEviction:
    def _fill(self, store, count=6, size=32):
        vectors = {}
        for index in range(count):
            vector = np.full(size, float(index + 1), dtype=np.complex128)
            steps = (advance_step(0, index + 1),)
            store.publish(9, steps, vector, layer=index + 1)
            vectors[steps] = vector
        return vectors

    def test_spill_mode_reloads_bit_identically(self, tmp_path):
        budget = CacheBudget(
            max_bytes=2 * 32 * 16, mode="spill", spill_dir=str(tmp_path)
        )
        store = SharedPrefixStore(budget)
        vectors = self._fill(store)
        stats = store.stats()
        assert stats.spills > 0
        assert stats.resident_bytes <= budget.max_bytes
        for steps, vector in vectors.items():
            fetched = store.fetch(9, steps)
            assert fetched is not None and np.array_equal(fetched, vector)
        assert store.stats().spill_loads > 0

    def test_drop_mode_turns_evictions_into_misses(self):
        budget = CacheBudget(max_bytes=2 * 32 * 16, mode="drop")
        store = SharedPrefixStore(budget)
        vectors = self._fill(store)
        stats = store.stats()
        assert stats.drops > 0
        hits = sum(
            1 for steps in vectors if store.fetch(9, steps) is not None
        )
        assert 0 < hits < len(vectors)

    def test_corrupt_spill_file_is_a_miss_not_wrong_data(self, tmp_path):
        budget = CacheBudget(
            max_bytes=2 * 32 * 16, mode="spill", spill_dir=str(tmp_path)
        )
        store = SharedPrefixStore(budget)
        vectors = self._fill(store)
        spilled = sorted(os.listdir(tmp_path))
        assert spilled
        victim = os.path.join(tmp_path, spilled[0])
        with open(victim, "r+b") as handle:
            handle.seek(8)
            byte = handle.read(1)
            handle.seek(8)
            handle.write(bytes([byte[0] ^ 0xFF]))
        results = [store.fetch(9, steps) for steps in vectors]
        for steps, fetched in zip(vectors, results):
            if fetched is not None:
                assert np.array_equal(fetched, vectors[steps])
        assert any(fetched is None for fetched in results)

    def test_close_removes_owned_spill_dir(self):
        budget = CacheBudget(max_bytes=64, mode="spill")
        store = SharedPrefixStore(budget)
        self._fill(store, count=3)
        spill_dir = store._spill_dir
        assert spill_dir is not None and os.path.isdir(spill_dir)
        store.close()
        assert not os.path.exists(spill_dir)


class TestCrossJobSharing:
    def test_a_shared_run_frees_its_backend_on_return(self):
        """No reference cycle keeps a finished job's compiled circuit (and
        its layer unitaries) alive until the collector runs: a served
        daemon runs one job after another with the store attached."""
        gc.disable()
        try:
            sim = NoisySimulator(
                build_compiled_benchmark("grover"), ibm_yorktown(), seed=3
            )
            sim.run(num_trials=64, shared=SharedPrefixStore())
            compiled = weakref.ref(sim.compiled_circuit())
            del sim
            assert compiled() is None
        finally:
            gc.enable()

    def test_second_identical_job_is_bit_identical_and_cheaper(self):
        isolated = _run()
        store = SharedPrefixStore()
        first = _run(shared=store)
        second = _run(shared=store)
        assert first.counts == isolated.counts
        assert second.counts == isolated.counts
        assert np.array_equal(
            np.array([first.trial_clbits[i] == isolated.trial_clbits[i]
                      for i in range(len(isolated.trial_clbits))]),
            np.ones(len(isolated.trial_clbits), dtype=bool),
        )
        assert first.ops_shared == 0
        assert second.ops_shared > 0
        # Conservation: executed + adopted == the isolated run's work.
        assert (
            second.metrics.optimized_ops + second.ops_shared
            == isolated.metrics.optimized_ops
        )

    def test_sharing_survives_budget_pressure(self, tmp_path):
        budget = CacheBudget(
            max_bytes=8 * (2 ** 4) * 16, mode="spill", spill_dir=str(tmp_path)
        )
        store = SharedPrefixStore(budget)
        isolated = _run(name="qft4", trials=64)
        _run(name="qft4", trials=64, shared=store)
        second = _run(name="qft4", trials=64, shared=store)
        assert second.counts == isolated.counts
        assert (
            second.metrics.optimized_ops + second.ops_shared
            == isolated.metrics.optimized_ops
        )

    def test_different_seeds_never_corrupt_each_other(self):
        store = SharedPrefixStore()
        baseline_a = _run(seed=1)
        baseline_b = _run(seed=2)
        shared_a = _run(seed=1, shared=store)
        shared_b = _run(seed=2, shared=store)
        assert shared_a.counts == baseline_a.counts
        assert shared_b.counts == baseline_b.counts

    def test_recorder_sees_shared_counters(self):
        store = SharedPrefixStore()
        _run(shared=store)
        recorder = InMemoryRecorder()
        result = _run(shared=store, recorder=recorder)
        assert recorder.counter_total("ops.shared") == result.ops_shared
        assert recorder.counter_total("shared.publish") >= 0
        hits = [e for e in recorder.events if e.name == "shared.hit"]
        assert hits, "a warm store must record shared.hit instants"

    def test_trace_verification_covers_ops_shared(self):
        from repro.obs.summary import outcome_from_trace

        store = SharedPrefixStore()
        _run(shared=store)
        recorder = InMemoryRecorder()
        result = _run(shared=store, recorder=recorder)
        derived = outcome_from_trace(recorder)
        assert derived.ops_shared == result.ops_shared


class TestFingerprint:
    def test_fingerprint_distinguishes_circuits(self):
        from repro.circuits import layerize

        bv = circuit_fingerprint(layerize(build_compiled_benchmark("bv4")))
        qft = circuit_fingerprint(layerize(build_compiled_benchmark("qft4")))
        assert bv != qft

    def test_fingerprint_is_stable(self):
        from repro.circuits import layerize

        layered = layerize(build_compiled_benchmark("bv4"))
        assert circuit_fingerprint(layered) == circuit_fingerprint(layered)


class TestValidation:
    def test_shared_requires_serial_optimized_statevector(self):
        store = SharedPrefixStore()
        sim = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=3
        )
        with pytest.raises(ValueError):
            sim.run(num_trials=8, mode="baseline", shared=store)
        with pytest.raises(ValueError):
            sim.run(num_trials=8, backend="counting", shared=store)
        with pytest.raises(ValueError):
            sim.run(num_trials=8, hybrid=True, shared=store)

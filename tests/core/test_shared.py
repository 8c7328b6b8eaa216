"""SharedPrefixStore: cross-job prefix dedup, eviction, bit-identity."""

import gc
import weakref

import numpy as np
import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
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
        assert store.publish(123, steps, vector)
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
        assert store.publish(5, steps, vector)
        assert not store.publish(5, steps, vector)
        assert store.stats().entries == 1

    def test_publish_under_a_present_key_never_reads_the_vector(self):
        class Unreadable:
            def __array__(self, dtype=None, copy=None):
                raise AssertionError("a present key must not read the state")

        store = SharedPrefixStore()
        steps = (advance_step(0, 2),)
        store.publish(5, steps, np.ones(4, dtype=np.complex128))
        assert not store.publish(5, steps, Unreadable())
        assert store.stats().publishes == 1

    def test_distinct_fingerprints_do_not_alias(self):
        store = SharedPrefixStore()
        steps = (advance_step(0, 2),)
        a = np.full(4, 1.0, dtype=np.complex128)
        b = np.full(4, 2.0, dtype=np.complex128)
        store.publish(1, steps, a)
        store.publish(2, steps, b)
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
            store.publish(9, steps, vector)
            vectors[steps] = vector
        return vectors

    def test_evictions_are_misses_of_the_least_recently_used(self):
        store = SharedPrefixStore(max_bytes=2 * 32 * 16)
        vectors = self._fill(store)
        stats = store.stats()
        assert stats.drops == len(vectors) - 2
        assert stats.entries == 2
        assert stats.resident_bytes <= store.max_bytes
        fetched = [store.fetch(9, steps) for steps in vectors]
        # The two newest survive bit-identically; the rest miss.
        assert [state is not None for state in fetched] == [False] * 4 + [True] * 2
        for steps, state in zip(vectors, fetched):
            if state is not None:
                assert np.array_equal(state, vectors[steps])

    def test_a_hit_refreshes_its_entry(self):
        store = SharedPrefixStore(max_bytes=2 * 32 * 16)
        first, second, third = list(self._fill(store, count=3))
        assert store.fetch(9, first) is None
        assert store.fetch(9, second) is not None  # now the most recent
        store.publish(9, (advance_step(0, 7),), np.ones(32, dtype=np.complex128))
        assert store.fetch(9, second) is not None
        assert store.fetch(9, third) is None

    def test_an_entry_larger_than_the_cap_is_kept_alone(self):
        store = SharedPrefixStore(max_bytes=16)
        vectors = self._fill(store, count=3)
        assert store.stats().entries == 1
        last = list(vectors)[-1]
        assert np.array_equal(store.fetch(9, last), vectors[last])

    def test_index_stays_bounded_under_many_publishes(self):
        store = SharedPrefixStore(max_bytes=2048)
        self._fill(store, count=1000)
        stats = store.stats()
        assert stats.entries == 2048 // (32 * 16)
        assert stats.publishes == 1000
        assert stats.drops == 1000 - stats.entries


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

    def test_sharing_survives_budget_pressure(self):
        state_bytes = 16 * 2 ** build_compiled_benchmark("qft4").num_qubits
        store = SharedPrefixStore(max_bytes=8 * state_bytes)
        isolated = _run(name="qft4", trials=64)
        _run(name="qft4", trials=64, shared=store)
        second = _run(name="qft4", trials=64, shared=store)
        assert store.stats().drops > 0
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

"""Concurrent runs share compiled kernels safely.

``kernel_for_gate`` hands one kernel object to every simulator of the
same width in the process, and ``repro serve --exec-threads N`` runs jobs
on a thread pool, so a kernel must keep no temporary of its own (and the
module none either).  Two threads run the wide benchmarks at once, where
one-qubit dense kernels use the two-product form, and every result must
equal the same run made alone.
"""

import sys
import threading

import pytest

from repro.bench.suite import resolve_benchmark
from repro.core.runner import NoisySimulator
from repro.sim.kernels import DENSE_PRODUCT_MIN_QUBITS

BENCHMARKS = ("bv14", "qft12")
ROUNDS = 3
TRIALS = 256


def run_once(name, seed):
    circuit, model = resolve_benchmark(name)
    result = NoisySimulator(circuit, model, seed=seed).run(num_trials=TRIALS)
    return result.counts, result.trial_clbits, result.metrics.optimized_ops


@pytest.fixture(scope="module")
def isolated():
    return {
        (name, seed): run_once(name, seed)
        for name in BENCHMARKS
        for seed in range(ROUNDS)
    }


def test_benchmarks_use_the_two_product_form():
    for name in BENCHMARKS:
        circuit, _ = resolve_benchmark(name)
        assert circuit.num_qubits >= DENSE_PRODUCT_MIN_QUBITS


def test_two_threads_equal_isolated_runs(isolated):
    results = {0: [], 1: []}
    errors = []

    def worker(index):
        # Both threads run the same benchmark at once (so they share its
        # cached kernels), each on a different seed.
        try:
            for shift in range(ROUNDS):
                seed = (index + shift) % ROUNDS
                for name in BENCHMARKS:
                    results[index].append(((name, seed), run_once(name, seed)))
        except Exception as exc:  # re-raised in the main thread below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    for index in (0, 1):
        assert len(results[index]) == ROUNDS * len(BENCHMARKS)
        for key, outcome in results[index]:
            counts, clbits, ops = outcome
            expected_counts, expected_clbits, expected_ops = isolated[key]
            assert counts == expected_counts, (index, key)
            assert clbits == expected_clbits, (index, key)
            assert ops == expected_ops, (index, key)

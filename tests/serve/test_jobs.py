"""Job specs, the store, and the execute_job retry discipline."""

import json
import os
import stat

import numpy as np
import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.core.resilience import load_journal, run_journaled
from repro.noise import sample_trials
from repro.serve import JobSpec, JobStore, execute_job
from repro.sim.compiled import CompiledStatevectorBackend
from repro.serve.jobs import resolve_circuit, resolve_noise


def _payload(**overrides):
    payload = {
        "circuit": {"benchmark": "bv4"},
        "noise": "ibm_yorktown",
        "trials": 32,
        "seed": 7,
        "label": "t",
    }
    payload.update(overrides)
    return payload


class TestJobSpec:
    def test_roundtrip_and_digest_stability(self):
        spec = JobSpec.from_dict(_payload())
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.digest() == spec.digest()

    def test_digest_tracks_content(self):
        assert (
            JobSpec.from_dict(_payload(seed=1)).digest()
            != JobSpec.from_dict(_payload(seed=2)).digest()
        )

    def test_unknown_fields_are_refused(self):
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict(_payload(bogus=1))

    def test_missing_required_fields_are_refused(self):
        with pytest.raises(ValueError, match="missing required"):
            JobSpec.from_dict({"circuit": {"benchmark": "bv4"}})

    def test_bad_circuit_fails_at_admission(self):
        with pytest.raises(KeyError):
            JobSpec.from_dict(_payload(circuit={"benchmark": "nope"}))
        with pytest.raises(ValueError):
            JobSpec.from_dict(_payload(circuit={}))

    def test_bad_priority_and_trials(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict(_payload(priority="urgent"))
        with pytest.raises(ValueError):
            JobSpec.from_dict(_payload(trials=0))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"mode": "bogus"}, "unknown mode 'bogus'"),
            (
                {"hybrid": True, "max_cache_bytes": 1000000},
                "hybrid is incompatible with max_cache_bytes",
            ),
            ({"workers": 2}, r"unknown job spec fields \['workers'\]"),
            (
                {"hybrid": True, "max_cache_bytes": 4096},
                "hybrid is incompatible with max_cache_bytes",
            ),
        ],
    )
    def test_engine_options_the_table_rejects_fail_at_admission(
        self, overrides, message
    ):
        with pytest.raises(ValueError, match=message):
            JobSpec.from_dict(_payload(**overrides))

    def test_eligibility_flags(self):
        serial = JobSpec.from_dict(_payload())
        assert serial.journal_eligible and serial.share_eligible
        hybrid = JobSpec.from_dict(_payload(hybrid=True))
        assert not hybrid.journal_eligible and not hybrid.share_eligible
        counting = JobSpec.from_dict(_payload(backend="counting"))
        assert not counting.journal_eligible and not counting.share_eligible


class TestResolvers:
    def test_qasm_circuit_roundtrip(self):
        from repro.circuits import to_qasm

        qasm = to_qasm(build_compiled_benchmark("bv4"))
        circuit = resolve_circuit({"qasm": qasm})
        assert circuit.num_qubits == build_compiled_benchmark("bv4").num_qubits

    def test_named_and_dict_noise(self):
        named = resolve_noise("ibm_yorktown")
        payload = {"model": named.to_dict()}
        rebuilt = resolve_noise(payload)
        assert rebuilt.to_dict() == named.to_dict()
        artificial = resolve_noise({"artificial": 0.01})
        assert artificial is not None

    def test_unknown_noise_is_refused(self):
        with pytest.raises(ValueError):
            resolve_noise("noisy_mcnoiseface")
        with pytest.raises(ValueError):
            resolve_noise({"surprise": 1})


class TestJobStore:
    def test_admit_commits_spec_before_execution(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.admit(JobSpec.from_dict(_payload()))
        with open(store.spec_path(record.job_id)) as handle:
            on_disk = json.load(handle)
        assert on_disk["job_id"] == record.job_id
        assert on_disk["spec"]["trials"] == 32

    def test_admit_makes_the_new_job_directory_durable(
        self, tmp_path, fsync_log
    ):
        store = JobStore(str(tmp_path))
        record = store.admit(JobSpec.from_dict(_payload()))
        directories = [
            status.st_ino
            for status in fsync_log
            if stat.S_ISDIR(status.st_mode)
        ]
        # jobs/ (the new directory), then the job directory (spec.json).
        assert directories == [
            os.stat(store.jobs_root).st_ino,
            os.stat(store.job_dir(record.job_id)).st_ino,
        ]

    def test_recover_classifies_terminal_states(self, tmp_path):
        store = JobStore(str(tmp_path))
        done = store.admit(JobSpec.from_dict(_payload(label="done")))
        failed = store.admit(JobSpec.from_dict(_payload(label="failed")))
        inflight = store.admit(JobSpec.from_dict(_payload(label="inflight")))
        store.commit_result(done.job_id, {"counts": {}})
        store.commit_error(failed.job_id, {"message": "boom"})
        pending, finished = JobStore(str(tmp_path)).recover()
        assert [r.job_id for r in pending] == [inflight.job_id]
        states = {r.job_id: r.state for r in finished}
        assert states[done.job_id] == "done"
        assert states[failed.job_id] == "failed"

    def test_recover_loads_specs_with_the_retired_batch_size(self, tmp_path):
        """A state directory written while specs carried ``batch_size``
        still recovers: a finished job keeps its result, and an in-flight
        batched job (which kept no journal) runs to the isolated result."""
        store = JobStore(str(tmp_path))

        def write_legacy(seq, batch_size, label):
            spec = dict(JobSpec.from_dict(_payload(label=label)).to_dict())
            spec["batch_size"] = batch_size
            job_id = f"j{seq:06d}-0000000{seq}"
            os.makedirs(store.job_dir(job_id))
            with open(store.spec_path(job_id), "w") as handle:
                json.dump({"job_id": job_id, "seq": seq, "spec": spec}, handle)
            return job_id

        done_id = write_legacy(0, 0, "done")
        inflight_id = write_legacy(1, 8, "inflight")
        stored = {"job_id": done_id, "counts": {"0101": 32}}
        store.commit_result(done_id, stored)

        pending, finished = JobStore(str(tmp_path)).recover()
        assert [(r.job_id, r.state, r.result) for r in finished] == [
            (done_id, "done", stored)
        ]
        (record,) = pending
        assert record.job_id == inflight_id and record.spec.label == "inflight"
        payload = execute_job(record, store)
        reference = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        ).run(num_trials=32)
        assert payload["counts"] == reference.counts
        assert payload["ops_applied"] == reference.metrics.optimized_ops

    def test_recover_resumes_a_job_stored_with_the_retired_workers(
        self, tmp_path
    ):
        """A job admitted while specs carried ``workers`` still recovers:
        an in-flight ``workers: 2`` job resumes its partial journal on
        serial DFS to the isolated result, since the pool journaled the
        same finish stream as DFS."""
        store = JobStore(str(tmp_path))
        spec = dict(JobSpec.from_dict(_payload(label="pool")).to_dict())
        spec["workers"] = 2
        job_id = "j000000-00000000"
        os.makedirs(store.job_dir(job_id))
        with open(store.spec_path(job_id), "w") as handle:
            json.dump({"job_id": job_id, "seq": 0, "spec": spec}, handle)

        class Killed(Exception):
            pass

        streamed = []

        def kill_after_eight(index, bits):
            streamed.append(index)
            if len(streamed) == 8:
                raise Killed

        with pytest.raises(Killed):
            NoisySimulator(
                build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
            ).run(
                num_trials=32, journal=store.journal_path(job_id),
                on_trial=kill_after_eight,
            )
        partial = load_journal(store.journal_path(job_id))
        assert 8 <= len(partial.completed_trials) < 32

        (record,), finished = JobStore(str(tmp_path)).recover()
        assert finished == [] and record.job_id == job_id
        payload = execute_job(record, store)
        reference = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        ).run(num_trials=32)
        assert payload["counts"] == reference.counts
        assert payload["journal"]["resumed"] is True
        assert payload["journal"]["replayed_trials"] == len(partial.completed_trials)
        assert payload["ops_applied"] < reference.metrics.optimized_ops

    def test_recovered_job_sets_a_foreign_journal_aside(self, tmp_path):
        """An in-flight job whose journal holds other trials than its spec
        now draws (a journal written before the sampler's stream changed,
        docs/architecture.md §7 pin 4) restarts cleanly: the journal moves
        aside, the job runs from scratch in its first attempt, and the
        result equals an isolated run of its spec."""
        store = JobStore(str(tmp_path))
        admitted = store.admit(JobSpec.from_dict(_payload(label="inflight")))
        layered = admitted.spec.build_simulator().layered
        foreign = sample_trials(layered, ibm_yorktown(), 32, np.random.default_rng(99))
        journal = store.journal_path(admitted.job_id)

        class Killed(Exception):
            pass

        finishes = []

        def kill_after_two(payload, indices):
            finishes.append(indices)
            if len(finishes) == 2:
                raise Killed

        with pytest.raises(Killed):
            run_journaled(
                layered, foreign, lambda: CompiledStatevectorBackend(layered),
                kill_after_two, journal,
            )
        stale = load_journal(journal)

        (record,), finished = JobStore(str(tmp_path)).recover()
        assert record.job_id == admitted.job_id and not finished
        payload = execute_job(
            record, store, sleep=lambda _s: pytest.fail("the job retried")
        )
        reference = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        ).run(num_trials=32)
        assert record.state == "done" and record.attempts == 1
        assert payload["counts"] == reference.counts
        assert payload["ops_applied"] == reference.metrics.optimized_ops
        assert payload["journal"]["resumed"] is False
        assert load_journal(journal + ".stale").fingerprint == stale.fingerprint
        assert load_journal(journal).fingerprint != stale.fingerprint

    def test_recover_skips_torn_spec(self, tmp_path):
        store = JobStore(str(tmp_path))
        job_dir = store.job_dir("j000099-deadbeef")
        os.makedirs(job_dir)
        with open(os.path.join(job_dir, "spec.json"), "w") as handle:
            handle.write('{"spec": {"trunc')
        pending, finished = JobStore(str(tmp_path)).recover()
        assert not pending and not finished


class TestExecuteJob:
    def test_success_commits_result(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.admit(JobSpec.from_dict(_payload()))
        payload = execute_job(record, store)
        assert record.state == "done"
        assert store.load_result(record.job_id) == payload
        assert payload["num_trials"] == 32

    def test_matches_direct_simulator_run(self, tmp_path):
        reference = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        ).run(num_trials=32)
        store = JobStore(str(tmp_path))
        record = store.admit(JobSpec.from_dict(_payload()))
        payload = execute_job(record, store)
        assert payload["counts"] == reference.counts
        assert payload["ops_applied"] == reference.metrics.optimized_ops

    def test_circuit_and_noise_resolve_once_per_job(self, tmp_path, monkeypatch):
        """Admission resolves the circuit and the model; every attempt of
        the job reuses them, and the wire form never sees them."""
        import repro.bench

        reference = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        ).run(num_trials=32)
        built = []
        real_build = repro.bench.build_compiled_benchmark

        def counted(name, *args, **kwargs):
            built.append(name)
            return real_build(name, *args, **kwargs)

        monkeypatch.setattr(repro.bench, "build_compiled_benchmark", counted)
        spec = JobSpec.from_dict(_payload(retries=1))
        unresolved = JobSpec(**_payload(retries=1))
        assert spec.to_dict() == unresolved.to_dict()
        assert spec.digest() == unresolved.digest()
        store = JobStore(str(tmp_path))
        record = store.admit(spec)
        real_run = NoisySimulator.run
        failures = {"left": 1}

        def flaky_run(self, *args, **kwargs):
            if failures["left"]:
                failures["left"] -= 1
                raise OSError("chaos: transient engine failure")
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(NoisySimulator, "run", flaky_run)
        payload = execute_job(record, store, sleep=lambda _s: None)
        assert record.attempts == 2
        assert built == ["bv4"]
        assert payload["counts"] == reference.counts
        assert payload["ops_applied"] == reference.metrics.optimized_ops
        # A finished job releases them; asking again builds them anew.
        spec.resolved()
        assert built == ["bv4", "bv4"]

    def test_retries_with_backoff_then_succeeds(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(str(tmp_path))
        record = store.admit(JobSpec.from_dict(_payload(retries=2)))
        real_build = JobSpec.build_simulator
        failures = {"left": 2}
        delays = []

        def flaky(self):
            simulator = real_build(self)
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("chaos: transient engine failure")
            return simulator

        monkeypatch.setattr(JobSpec, "build_simulator", flaky)
        payload = execute_job(record, store, sleep=delays.append)
        assert record.state == "done"
        assert record.attempts == 3
        assert delays == [0.05, 0.1]  # capped exponential backoff
        assert payload["counts"]

    def test_budgeted_job_journals_the_unbudgeted_finishes(self, tmp_path):
        """A served job with ``max_cache_bytes`` spills snapshots: its
        journal holds the unbudgeted serial finishes bit for bit and passes
        P019, and it applies exactly the plan's operations."""
        from repro.core.cache import CacheBudget
        from repro.core.executor import run_optimized
        from repro.core.schedule import build_plan
        from repro.lint import analyze_plan, lint_journal

        sim = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        )
        trials = sim.sample(256)
        budget = 2 * 16 * 2 ** sim.layered.num_qubits
        plan = build_plan(sim.layered, trials)
        assert analyze_plan(
            plan, sim.layered, budget=CacheBudget(max_bytes=budget)
        ).predicted_spills > 0
        reference = []
        run_optimized(
            sim.layered, trials, CompiledStatevectorBackend(sim.layered),
            lambda state, indices: reference.append(
                (np.array(state.vector, copy=True), indices)
            ),
        )
        store = JobStore(str(tmp_path))
        record = store.admit(
            JobSpec.from_dict(_payload(trials=256, max_cache_bytes=budget))
        )
        payload = execute_job(record, store)
        assert payload["ops_applied"] + payload["ops_shared"] == (
            plan.planned_operations(sim.layered)
        )
        replay = load_journal(store.journal_path(record.job_id))
        assert len(replay.finishes) == len(reference)
        for (got, got_indices), (want, want_indices) in zip(
            replay.finishes, reference
        ):
            assert got_indices == want_indices
            assert np.array_equal(got, want)
        assert lint_journal(replay, layered=sim.layered, trials=trials).ok

    def test_counting_job_runs_without_a_stream(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.admit(JobSpec.from_dict(_payload(backend="counting")))
        streamed = []
        payload = execute_job(
            record, store, on_trial=lambda index, bits: streamed.append(index)
        )
        assert record.state == "done" and record.attempts == 1
        assert payload["counts"] == {} and payload["ops_applied"] > 0
        assert streamed == []

    def test_permanent_failure_commits_error(self, tmp_path, monkeypatch):
        store = JobStore(str(tmp_path))
        record = store.admit(JobSpec.from_dict(_payload(retries=1)))

        def broken(self):
            raise OSError("chaos: engine is gone")

        monkeypatch.setattr(JobSpec, "build_simulator", broken)
        with pytest.raises(RuntimeError, match="failed after"):
            execute_job(record, store, sleep=lambda _s: None)
        assert record.state == "failed"
        error = store.load_error(record.job_id)
        assert error is not None and "engine is gone" in error["message"]

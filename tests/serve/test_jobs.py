"""Job specs, the store, and the execute_job retry/degrade discipline."""

import json

import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.serve import JobSpec, JobStore, execute_job
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
            ({"workers": -2}, "workers must be >= 1"),
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
        forked = JobSpec.from_dict(_payload(workers=2))
        assert forked.journal_eligible and not forked.share_eligible
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

    def test_recover_skips_torn_spec(self, tmp_path):
        store = JobStore(str(tmp_path))
        job_dir = store.job_dir("j000099-deadbeef")
        import os

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

    def test_fork_pool_failure_degrades_to_inline(
        self, tmp_path, monkeypatch
    ):
        reference = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=7
        ).run(num_trials=32)
        store = JobStore(str(tmp_path))
        record = store.admit(
            JobSpec.from_dict(_payload(workers=2, retries=1))
        )
        real_run = NoisySimulator.run

        def run_unless_forked(self, *args, **kwargs):
            if kwargs.get("workers"):
                raise OSError("chaos: fork pool is broken")
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(NoisySimulator, "run", run_unless_forked)
        payload = execute_job(record, store, sleep=lambda _s: None)
        assert record.state == "done"
        assert record.degraded and payload["degraded"]
        assert record.attempts == 3  # two forked attempts + inline rescue
        assert payload["counts"] == reference.counts

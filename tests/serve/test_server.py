"""The asyncio job server: API surface, streaming, metrics, recovery."""

import asyncio
import json
import os
import threading
import time

import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.obs.metrics import validate_openmetrics
from repro.serve import (
    JobServer,
    ServeClient,
    ServeConfig,
    ServeError,
)


class ServerHarness:
    """A JobServer on a background thread with its own event loop."""

    def __init__(self, state_dir, **config_overrides):
        self.config = ServeConfig(state_dir=str(state_dir), **config_overrides)
        self.server = JobServer(self.config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._drive, daemon=True)
        self.error = None

    def _drive(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.start())
            self.loop.run_until_complete(self.server.serve_forever())
        except Exception as exc:  # pragma: no cover - surfaced in teardown
            self.error = exc

    def start(self):
        self.thread.start()
        deadline = time.monotonic() + 10
        while self.server.port is None:
            if self.error is not None:
                raise self.error
            if time.monotonic() > deadline:
                raise TimeoutError("server did not bind in time")
            time.sleep(0.02)
        return ServeClient("127.0.0.1", self.server.port)

    def stop(self):
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(
                self.server.request_shutdown, "stop"
            )
            self.thread.join(timeout=30)
        if self.error is not None:
            raise self.error


@pytest.fixture
def harness(tmp_path):
    active = []

    def start(**overrides):
        instance = ServerHarness(tmp_path / "state", **overrides)
        active.append(instance)
        return instance.start()

    yield start
    for instance in active:
        instance.stop()


def _spec(label="job", **overrides):
    payload = {
        "circuit": {"benchmark": "bv4"},
        "noise": "ibm_yorktown",
        "trials": 48,
        "seed": 5,
        "label": label,
    }
    payload.update(overrides)
    return payload


class TestApi:
    def test_ping_and_endpoint_discovery(self, harness, tmp_path):
        client = harness()
        assert client.ping()["pong"] is True
        discovered = ServeClient.from_state_dir(tmp_path / "state")
        assert discovered.port == client.port

    def test_submit_wait_result_roundtrip(self, harness):
        reference = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=5
        ).run(num_trials=48)
        client = harness()
        accepted = client.submit(_spec())
        assert accepted["ok"] and accepted["job_id"].startswith("j")
        outcome = client.wait(accepted["job_id"])
        assert outcome["state"] == "done"
        assert outcome["result"]["counts"] == reference.counts

    def test_streaming_delivers_every_trial(self, harness):
        client = harness()
        stream = {}
        result = client.submit_streaming(
            _spec(), on_trial=lambda i, b: stream.setdefault(i, b)
        )
        assert len(stream) == 48
        assert sum(result["counts"].values()) == 48

    def test_status_and_list(self, harness):
        client = harness()
        accepted = client.submit(_spec(label="listed"))
        client.wait(accepted["job_id"])
        status = client.status(accepted["job_id"])
        assert status["state"] == "done" and status["label"] == "listed"
        labels = [job["label"] for job in client.list_jobs()]
        assert "listed" in labels

    def test_unknown_job_is_not_found(self, harness):
        client = harness()
        with pytest.raises(ServeError) as info:
            client.status("j999999-00000000")
        assert info.value.code == "not_found" and info.value.status == 404

    def test_malformed_request_is_bad_request(self, harness):
        client = harness()
        with pytest.raises(ServeError) as info:
            client._request({"op": "submit", "spec": {"trials": -1}})
        assert info.value.code == "bad_request"

    def test_unknown_op_is_bad_request(self, harness):
        client = harness()
        with pytest.raises(ServeError) as info:
            client._request({"op": "teleport"})
        assert info.value.code == "bad_request"


class TestAdmissionValidation:
    def test_illegal_spec_is_bad_request_and_never_stored(
        self, harness, tmp_path
    ):
        client = harness()
        with pytest.raises(ServeError) as info:
            client.submit(_spec(hybrid=True, max_cache_bytes=1000000))
        assert info.value.code == "bad_request"
        assert "hybrid is incompatible with max_cache_bytes" in str(info.value)
        assert os.listdir(tmp_path / "state" / "jobs") == []
        assert client.list_jobs() == []


class TestDeadlines:
    def test_deadline_interrupts_the_run_and_leaves_it_resumable(
        self, harness, tmp_path
    ):
        from repro.core.resilience import load_journal

        spec = _spec(circuit={"benchmark": "qft4"}, trials=4000, timeout=0.05)
        client = harness()
        job_id = client.submit(spec)["job_id"]
        outcome = client.wait(job_id)
        assert outcome["state"] == "interrupted"
        assert "deadline of 0.05s exceeded" in outcome["message"]
        journal = tmp_path / "state" / "jobs" / job_id / "run.journal"
        committed = load_journal(str(journal)).completed_trials
        assert len(committed) < 4000

        def simulator():
            return NoisySimulator(
                build_compiled_benchmark("qft4"), ibm_yorktown(), seed=5
            )

        resumed = simulator().run(num_trials=4000, journal=str(journal))
        assert resumed.journal.replayed_trials == len(committed)
        assert resumed.counts == simulator().run(num_trials=4000).counts

    def test_run_returning_after_its_deadline_is_done(
        self, harness, monkeypatch
    ):
        import repro.serve.server as server_module

        real_execute_job = server_module.execute_job

        def slow_execute_job(record, store, **kwargs):
            time.sleep(0.3)  # past the deadline, without polling the stop
            kwargs["stop"] = None
            return real_execute_job(record, store, **kwargs)

        monkeypatch.setattr(server_module, "execute_job", slow_execute_job)
        client = harness()
        result = client.submit_streaming(_spec(timeout=0.05))
        assert sum(result["counts"].values()) == 48
        (job,) = client.list_jobs()
        assert job["state"] == "done"
        scrape = client.metrics_http()
        assert 'state="completed"' in scrape
        assert not any(
            line.startswith("repro_serve_jobs_total") and 'state="done"' in line
            for line in scrape.splitlines()
        )


class TestMetricsEndpoint:
    def test_http_scrape_is_valid_openmetrics(self, harness):
        client = harness()
        client.wait(client.submit(_spec())["job_id"])
        text = client.metrics_http()
        assert validate_openmetrics(text) == []
        assert "repro_serve_jobs_total" in text
        assert 'state="accepted"' in text and 'state="completed"' in text
        assert "repro_serve_job_seconds_bucket" in text

    def test_ndjson_metrics_matches_schema_too(self, harness):
        client = harness()
        assert validate_openmetrics(client.metrics()) == []

    def test_unknown_path_is_http_404(self, harness):
        import socket

        client = harness()
        sock = socket.create_connection(("127.0.0.1", client.port), 5)
        try:
            sock.sendall(b"GET /nope HTTP/1.0\r\n\r\n")
            raw = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
        finally:
            sock.close()
        assert raw.startswith(b"HTTP/1.0 404")

    def test_shared_store_gauges_appear_after_sharing(self, harness):
        client = harness()
        client.wait(client.submit(_spec(label="warm"))["job_id"])
        client.wait(client.submit(_spec(label="hit"))["job_id"])
        text = client.metrics_http()
        for line in text.splitlines():
            if line.startswith("repro_serve_shared") and 'stat="hits"' in line:
                assert float(line.split()[-1]) > 0
                break
        else:
            pytest.fail("no shared-store hits gauge in scrape")


class TestCrossJobSharing:
    def test_second_job_shares_and_totals_shrink(self, harness):
        isolated = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=5
        ).run(num_trials=48)
        client = harness()
        first = client.wait(client.submit(_spec(label="a"))["job_id"])
        second = client.wait(client.submit(_spec(label="b"))["job_id"])
        assert first["result"]["counts"] == isolated.counts
        assert second["result"]["counts"] == isolated.counts
        assert second["result"]["ops_shared"] > 0
        total = (
            first["result"]["ops_applied"] + second["result"]["ops_applied"]
        )
        assert total < 2 * isolated.metrics.optimized_ops


class TestShutdownAndRecovery:
    def test_drain_refuses_new_work_and_exits(self, tmp_path):
        instance = ServerHarness(tmp_path / "state")
        client = instance.start()
        accepted = client.submit(_spec(label="drained"))
        client.shutdown("drain")
        with pytest.raises(ServeError) as info:
            client.submit(_spec(label="late"))
        assert info.value.code == "shutting_down"
        instance.thread.join(timeout=30)
        assert not instance.thread.is_alive()
        # The drained job finished and its result is on disk.
        from repro.serve import JobStore

        store = JobStore(str(tmp_path / "state"))
        assert store.load_result(accepted["job_id"]) is not None

    def test_restart_recovers_unfinished_jobs(self, tmp_path):
        # First lifetime: admit a job but never run it (simulate a crash
        # between admission and dispatch by writing the store directly).
        from repro.serve import JobSpec, JobStore

        state = tmp_path / "state"
        store = JobStore(str(state))
        record = store.admit(JobSpec.from_dict(_spec(label="orphan")))
        # Second lifetime: the server must pick it up and finish it.
        instance = ServerHarness(state)
        client = instance.start()
        try:
            outcome = client.wait(record.job_id)
            assert outcome["state"] == "done"
            reference = NoisySimulator(
                build_compiled_benchmark("bv4"), ibm_yorktown(), seed=5
            ).run(num_trials=48)
            assert outcome["result"]["counts"] == reference.counts
            text = client.metrics_http()
            assert 'state="recovered"' in text
        finally:
            instance.stop()

    def test_endpoint_file_is_removed_on_clean_exit(self, tmp_path):
        instance = ServerHarness(tmp_path / "state")
        instance.start()
        endpoint = tmp_path / "state" / "endpoint.json"
        assert endpoint.exists()
        assert json.loads(endpoint.read_text())["pid"] == os.getpid()
        instance.stop()
        assert not endpoint.exists()

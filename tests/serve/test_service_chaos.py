"""Service-tier chaos: every fault plan must leave bit-identical results.

The contract under test, for each fault:

* per-job counts and the per-trial payload stream equal an isolated,
  fault-free serial run of the same spec (``np.array_equal``, not
  "close");
* the operation ledger is conserved — executed plus shared plus
  journal-replayed work adds up to the isolated run's, never more;
* recovery does zero recomputation of journal-committed trials.

Fault plans: server kill mid-job (SIGKILL semantics via
:class:`~repro.testing.ServerKilled`), client disconnect mid-stream,
queue-full submission storms, a torn journal tail (crash mid-write
after the kill), and an OS crash that loses the journal's open group.
"""

import os
import socket

import numpy as np
import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.core.resilience import GROUP_RECORDS, RunJournal, load_journal
from repro.core.shared import SharedPrefixStore
from repro.serve import JobSpec, JobStore, ServeError, execute_job
from repro.testing import ServerKilled, ServiceChaosPlan

TRIALS = 150


def _spec(label, **overrides):
    payload = {
        "circuit": {"benchmark": "qft4"},
        "noise": "ibm_yorktown",
        "trials": TRIALS,
        "seed": 11,
        "label": label,
    }
    payload.update(overrides)
    return JobSpec.from_dict(payload)


@pytest.fixture(scope="module")
def isolated():
    """The fault-free serial reference: counts, stream, op ledger."""
    stream = {}
    result = NoisySimulator(
        build_compiled_benchmark("qft4"), ibm_yorktown(), seed=11
    ).run(num_trials=TRIALS, on_trial=lambda i, b: stream.setdefault(i, b))
    return {
        "counts": result.counts,
        "stream": stream,
        "ops": result.metrics.optimized_ops,
    }


def _assert_stream_identical(stream, reference):
    """Bit-identity of the full per-trial payload stream."""
    assert sorted(stream) == sorted(reference)
    ours = np.array([stream[i] for i in sorted(stream)])
    theirs = np.array([reference[i] for i in sorted(reference)])
    assert np.array_equal(ours, theirs)


class TestServerKill:
    def test_kill_then_recover_is_bit_identical_with_zero_recompute(
        self, tmp_path, isolated
    ):
        store = JobStore(str(tmp_path))
        record = store.admit(_spec("victim"))
        chaos = ServiceChaosPlan(kill_after={"victim": 60})
        stream = {}
        with pytest.raises(ServerKilled):
            execute_job(
                record,
                store,
                on_trial=lambda i, b: stream.setdefault(i, b),
                chaos=chaos,
            )
        assert chaos.killed == ["victim"]
        committed = len(stream)
        assert committed >= 60

        # Second server lifetime over the same state directory.
        recovered_store = JobStore(str(tmp_path))
        pending, _ = recovered_store.recover()
        assert [r.job_id for r in pending] == [record.job_id]
        resumed = pending[0]
        resumed_stream = {}
        payload = execute_job(
            resumed,
            recovered_store,
            on_trial=lambda i, b: resumed_stream.setdefault(i, b),
        )
        assert payload["counts"] == isolated["counts"]
        _assert_stream_identical(resumed_stream, isolated["stream"])
        journal = payload["journal"]
        assert journal["resumed"] and journal["replayed_trials"] >= 60
        # Zero recompute: the resumed engine touched strictly less work
        # than the isolated run, and replay covered the committed tail.
        assert payload["ops_applied"] < isolated["ops"]
        assert (
            journal["replayed_trials"] + journal["recorded_finishes"] > 0
        )

    def test_torn_journal_tail_still_resumes_exactly(self, tmp_path, isolated):
        store = JobStore(str(tmp_path))
        record = store.admit(_spec("torn"))
        chaos = ServiceChaosPlan(
            kill_after={"torn": 40}, torn_labels=("torn",)
        )
        with pytest.raises(ServerKilled):
            execute_job(record, store, chaos=chaos)
        # The crash interrupted a write: garbage lands after the last
        # committed record.
        chaos.tear_journal(store.journal_path(record.job_id))

        recovered_store = JobStore(str(tmp_path))
        pending, _ = recovered_store.recover()
        stream = {}
        payload = execute_job(
            pending[0],
            recovered_store,
            on_trial=lambda i, b: stream.setdefault(i, b),
        )
        assert payload["counts"] == isolated["counts"]
        _assert_stream_identical(stream, isolated["stream"])
        assert payload["journal"]["resumed"]
        assert payload["journal"]["truncated_tail"]
        assert payload["ops_applied"] < isolated["ops"]

    def test_double_kill_still_converges(self, tmp_path, isolated):
        store = JobStore(str(tmp_path))
        record = store.admit(_spec("unlucky"))
        with pytest.raises(ServerKilled):
            execute_job(
                record, store,
                chaos=ServiceChaosPlan(kill_after={"unlucky": 30}),
            )
        pending, _ = JobStore(str(tmp_path)).recover()
        with pytest.raises(ServerKilled):
            execute_job(
                pending[0], store,
                chaos=ServiceChaosPlan(kill_after={"unlucky": 90}),
            )
        pending, _ = JobStore(str(tmp_path)).recover()
        payload = execute_job(pending[0], store)
        assert payload["counts"] == isolated["counts"]
        assert payload["journal"]["replayed_trials"] >= 90


OS_CRASH_TRIALS = 256


@pytest.fixture(scope="module")
def isolated_qft5():
    """The fault-free serial reference of the OS-crash job."""
    stream = {}
    result = NoisySimulator(
        build_compiled_benchmark("qft5"), ibm_yorktown(), seed=11
    ).run(
        num_trials=OS_CRASH_TRIALS,
        on_trial=lambda i, b: stream.setdefault(i, b),
    )
    return {
        "counts": result.counts,
        "stream": stream,
        "ops": result.metrics.optimized_ops,
    }


def _record_ends(path):
    """File offset just past each record of a journal with no torn tail."""
    replay = load_journal(path)
    ends, offset = [], 28
    for vector, indices in replay.finishes:
        offset += 24 + 8 * len(indices) + vector.nbytes + 4
        ends.append(offset)
    assert ends[-1] == os.path.getsize(path)
    return ends, replay.finishes


@pytest.mark.parametrize("cut", ["group-boundary", "inside-open-group"])
def test_os_crash_loses_at_most_the_open_group(
    tmp_path, monkeypatch, isolated_qft5, cut
):
    """A power loss keeps what was fsynced, and maybe part of the rest.

    A kill keeps the OS cache, and ``ServerKilled`` unwinds through the
    journal's ``close()``, which fsyncs the open group.  So the test
    drops the unsynced bytes itself: it records the journal's size at
    each fsync made before the kill, then cuts the file at the last one
    (a group boundary) or one and a half records past it (the OS wrote
    part of the open group back before it died).  The journal's clock
    stands still, so groups close every ``GROUP_RECORDS`` records.
    """
    monkeypatch.setattr(RunJournal, "clock", staticmethod(lambda: 0.0))
    chaos = ServiceChaosPlan(kill_after={"power-loss": 200})
    synced = []
    real_fsync = os.fsync

    def fsync_until_the_kill(fd):
        if not chaos.killed:
            synced.append(os.fstat(fd))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_until_the_kill)
    store = JobStore(str(tmp_path))
    record = store.admit(
        _spec(
            "power-loss", circuit={"benchmark": "qft5"}, trials=OS_CRASH_TRIALS,
        )
    )
    with pytest.raises(ServerKilled):
        execute_job(record, store, chaos=chaos)

    path = store.journal_path(record.job_id)
    inode = os.stat(path).st_ino
    synced_size = [st.st_size for st in synced if st.st_ino == inode][-1]
    ends, finishes = _record_ends(path)
    kept = ends.index(synced_size) + 1
    assert kept % GROUP_RECORDS == 0 and kept < len(ends) - 2
    if cut == "group-boundary":
        size = synced_size
    else:
        size = ends[kept] + (ends[kept + 1] - ends[kept]) // 2
        kept += 1
    os.truncate(path, size)

    recovered_store = JobStore(str(tmp_path))
    pending, _ = recovered_store.recover()
    stream = {}
    payload = execute_job(
        pending[0],
        recovered_store,
        on_trial=lambda i, b: stream.setdefault(i, b),
    )
    assert payload["counts"] == isolated_qft5["counts"]
    _assert_stream_identical(stream, isolated_qft5["stream"])
    journal = payload["journal"]
    assert journal["resumed"]
    assert journal["replayed_finishes"] == kept
    assert journal["replayed_trials"] == sum(
        len(indices) for _, indices in finishes[:kept]
    )
    assert journal["truncated_tail"] == (cut == "inside-open-group")
    assert payload["ops_applied"] < isolated_qft5["ops"]


class TestCrossJobConservation:
    def test_two_same_family_jobs_share_and_conserve_ops(
        self, tmp_path, isolated
    ):
        store = JobStore(str(tmp_path))
        shared = SharedPrefixStore()
        payload_a = execute_job(
            store.admit(_spec("conserve-a")), store, shared=shared
        )
        payload_b = execute_job(
            store.admit(_spec("conserve-b")), store, shared=shared
        )
        # Nonzero cross-job sharing, recorded by the store's counter...
        assert shared.stats().hits > 0
        assert payload_b["ops_shared"] > 0
        # ...with strict conservation per job and in total.
        assert (
            payload_b["ops_applied"] + payload_b["ops_shared"]
            == isolated["ops"]
        )
        total = payload_a["ops_applied"] + payload_b["ops_applied"]
        assert total < 2 * isolated["ops"]
        assert payload_a["counts"] == isolated["counts"]
        assert payload_b["counts"] == isolated["counts"]

    def test_killed_job_resumed_against_warm_store_stays_identical(
        self, tmp_path, isolated
    ):
        store = JobStore(str(tmp_path))
        shared = SharedPrefixStore()
        execute_job(store.admit(_spec("warmup")), store, shared=shared)
        record = store.admit(_spec("victim"))
        with pytest.raises(ServerKilled):
            execute_job(
                record, store, shared=shared,
                chaos=ServiceChaosPlan(kill_after={"victim": 50}),
            )
        pending, _ = JobStore(str(tmp_path)).recover()
        stream = {}
        payload = execute_job(
            pending[0], store, shared=shared,
            on_trial=lambda i, b: stream.setdefault(i, b),
        )
        assert payload["counts"] == isolated["counts"]
        _assert_stream_identical(stream, isolated["stream"])
        # Sharing on top of replay must never inflate the ledger.
        assert (
            payload["ops_applied"] + payload["ops_shared"] < isolated["ops"]
        )


class TestSocketFaults:
    """Faults that need the real asyncio server and real sockets."""

    def _start(self, tmp_path, **overrides):
        from tests.serve.test_server import ServerHarness

        instance = ServerHarness(tmp_path / "state", **overrides)
        return instance, instance.start()

    def test_client_disconnect_mid_stream_does_not_hurt_the_job(
        self, tmp_path, isolated
    ):
        from repro.serve.protocol import decode_line, encode_message

        instance, client = self._start(tmp_path)
        try:
            spec = _spec("dropped").to_dict()
            sock = socket.create_connection(("127.0.0.1", client.port), 10)
            sock.sendall(
                encode_message({"op": "submit", "spec": spec, "stream": True})
            )
            buffer = b""
            seen = 0
            job_id = None
            while seen < 10:
                chunk = sock.recv(65536)
                assert chunk, "server closed early"
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    event = decode_line(line)
                    if job_id is None and event.get("ok"):
                        job_id = event["job_id"]
                    elif event.get("event") == "trial":
                        seen += 1
            # Vanish mid-stream, ungracefully.
            sock.close()
            assert job_id is not None
            outcome = client.wait(job_id)
            assert outcome["state"] == "done"
            assert outcome["result"]["counts"] == isolated["counts"]
        finally:
            instance.stop()

    def test_queue_full_storm_rejects_visibly_and_admitted_jobs_survive(
        self, tmp_path, isolated, monkeypatch
    ):
        import threading

        import repro.serve.server as server_module

        # Admitted jobs run only once the storm is over, so they hold
        # their slots however fast a job would finish.
        storm_over = threading.Event()
        real_execute_job = server_module.execute_job

        def held(*args, **kwargs):
            storm_over.wait(30)
            return real_execute_job(*args, **kwargs)

        monkeypatch.setattr(server_module, "execute_job", held)
        instance, client = self._start(tmp_path, max_pending=2)
        try:
            accepted, rejected = [], 0
            for index in range(8):
                try:
                    response = client.submit(
                        _spec(f"storm-{index}", priority="batch").to_dict()
                    )
                    accepted.append(response["job_id"])
                except ServeError as exc:
                    assert exc.code == "queue_full"
                    assert exc.status == 429
                    assert exc.retry_after and exc.retry_after > 0
                    rejected += 1
            assert rejected > 0 and len(accepted) <= 2
            storm_over.set()
            for job_id in accepted:
                outcome = client.wait(job_id)
                assert outcome["state"] == "done"
                assert outcome["result"]["counts"] == isolated["counts"]
            # Rejections were counted, and backpressure cleared: a
            # post-storm submit with backoff gets through.
            response = client.submit_with_backoff(
                _spec("after-storm").to_dict()
            )
            outcome = client.wait(response["job_id"])
            assert outcome["result"]["counts"] == isolated["counts"]
            assert 'state="rejected"' in client.metrics_http()
        finally:
            storm_over.set()
            instance.stop()

    def test_sigkilled_server_process_resumes_over_state_dir(
        self, tmp_path, isolated
    ):
        """Real kill -9 of a serving subprocess, then in-process resume."""
        import os
        import signal
        import subprocess
        import sys
        import time as time_module

        state = tmp_path / "state"
        store = JobStore(str(state))
        record = store.admit(_spec("killed-for-real", trials=4000))
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                (
                    "import sys\n"
                    "from repro.serve import JobStore, execute_job\n"
                    "store = JobStore(sys.argv[1])\n"
                    "pending, _ = store.recover()\n"
                    "print('RUNNING', flush=True)\n"
                    "execute_job(pending[0], store)\n"
                ),
                str(state),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        assert child.stdout is not None
        assert child.stdout.readline().strip() == "RUNNING"
        journal = store.journal_path(record.job_id)
        deadline = time_module.monotonic() + 60
        while time_module.monotonic() < deadline:
            if os.path.exists(journal) and os.path.getsize(journal) > 4096:
                break
            time_module.sleep(0.05)
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        pending, _ = JobStore(str(state)).recover()
        assert [r.job_id for r in pending] == [record.job_id]
        payload = execute_job(pending[0], JobStore(str(state)))
        reference = NoisySimulator(
            build_compiled_benchmark("qft4"), ibm_yorktown(), seed=11
        ).run(num_trials=4000)
        assert payload["counts"] == reference.counts
        if payload["journal"]["resumed"]:
            assert payload["ops_applied"] < reference.metrics.optimized_ops

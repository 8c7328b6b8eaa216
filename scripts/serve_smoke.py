#!/usr/bin/env python
"""CI smoke for the serving tier: share, kill -9, resume, clean exit.

The script drives a real ``python -m repro serve`` daemon through the
full crash-safety story the serve tier promises:

1. start the daemon and discover it through ``endpoint.json``, and check
   that a spec the execution-options table rejects is refused at
   admission (``bad_request`` with the table's message, no job directory);
2. submit two same-family jobs and prove nonzero cross-job prefix
   sharing (the second job's ``ops_shared`` and the store's ``hits``
   counter in the /metrics scrape);
3. submit a long job, ``kill -9`` the daemon mid-run, and confirm the
   process died by signal with a journal on disk;
4. restart over the same state directory and verify the job resumes to
   a bit-identical result (equal counts vs an isolated in-process run,
   strictly fewer freshly executed ops);
5. drain-shutdown the second daemon and check every exit code.

Exits 0 only if every stage holds.  Run from a checkout where ``repro``
is importable (CI installs the package; locally use ``PYTHONPATH=src``).
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.core.options import OptionError, validate
from repro.obs.metrics import validate_openmetrics
from repro.serve import ServeClient, ServeError

BENCH = "qft4"
SEED = 11
SHORT_TRIALS = 200
LONG_TRIALS = 6000


def log(message):
    print(f"[serve-smoke] {message}", flush=True)


def spec(label, trials):
    return {
        "circuit": {"benchmark": BENCH},
        "noise": "ibm_yorktown",
        "trials": trials,
        "seed": SEED,
        "label": label,
    }


def reference_counts(trials):
    result = NoisySimulator(
        build_compiled_benchmark(BENCH), ibm_yorktown(), seed=SEED
    ).run(num_trials=trials)
    return result.counts, result.metrics.optimized_ops


def start_daemon(state_dir):
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", state_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    endpoint = os.path.join(state_dir, "endpoint.json")
    deadline = time.monotonic() + 30
    while True:
        if child.poll() is not None:
            raise SystemExit(
                f"daemon died at startup (exit {child.returncode}):\n"
                + (child.stdout.read() if child.stdout else "")
            )
        if os.path.exists(endpoint):
            try:
                published = json.loads(open(endpoint).read())
                if published.get("pid") == child.pid:
                    client = ServeClient.from_state_dir(state_dir)
                    if client.ping().get("pong"):
                        return child, client
            except (OSError, ValueError):
                pass  # torn read or a stale file from a killed daemon
        if time.monotonic() > deadline:
            child.kill()
            raise SystemExit("daemon did not publish its endpoint in 30s")
        time.sleep(0.05)


def main():
    state_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    short_counts, short_ops = reference_counts(SHORT_TRIALS)

    log(f"state dir {state_dir}")
    daemon, client = start_daemon(state_dir)

    # Stage 0: an illegal spec is refused at admission and never stored.
    illegal = {"hybrid": True, "max_cache_bytes": 1_000_000}
    try:
        validate(**illegal)
        raise SystemExit("the options table accepts the illegal spec")
    except OptionError as exc:
        expected = str(exc)
    jobs_dir = os.path.join(state_dir, "jobs")
    before = set(os.listdir(jobs_dir))
    try:
        client.submit(dict(spec("illegal", SHORT_TRIALS), **illegal))
        raise SystemExit("the daemon admitted an illegal spec")
    except ServeError as exc:
        assert exc.code == "bad_request", exc.code
        assert str(exc) == expected, str(exc)
    assert set(os.listdir(jobs_dir)) == before, "illegal spec left a job dir"
    log(f"illegal spec refused at admission: {expected}")

    # Stage 1: two same-family jobs must share prefix work.
    first = client.wait(client.submit(spec("share-a", SHORT_TRIALS))["job_id"])
    second = client.wait(client.submit(spec("share-b", SHORT_TRIALS))["job_id"])
    assert first["state"] == "done" and second["state"] == "done"
    assert first["result"]["counts"] == short_counts, "job A counts drifted"
    assert second["result"]["counts"] == short_counts, "job B counts drifted"
    assert second["result"]["ops_shared"] > 0, "no cross-job sharing"
    assert (
        second["result"]["ops_applied"] + second["result"]["ops_shared"]
        == short_ops
    ), "op ledger not conserved"
    scrape = client.metrics_http()
    assert validate_openmetrics(scrape) == [], "invalid OpenMetrics scrape"
    hits = [
        line
        for line in scrape.splitlines()
        if line.startswith("repro_serve_shared") and 'stat="hits"' in line
    ]
    assert hits and float(hits[0].split()[-1]) > 0, "hit counter not exported"
    log(
        f"cross-job sharing ok: ops_shared={second['result']['ops_shared']} "
        f"of {short_ops}"
    )

    # Stage 2: kill -9 mid-job.
    victim = client.submit(spec("victim", LONG_TRIALS))["job_id"]
    journal = os.path.join(state_dir, "jobs", victim, "run.journal")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(journal) and os.path.getsize(journal) > 4096:
            break
        time.sleep(0.05)
    else:
        raise SystemExit("victim job never built a journal to kill over")
    os.kill(daemon.pid, signal.SIGKILL)
    daemon.wait(timeout=30)
    assert daemon.returncode == -signal.SIGKILL, daemon.returncode
    log(f"daemon SIGKILLed mid-job with {os.path.getsize(journal)} journal bytes")

    # Stage 3: restart over the same state dir; the job must resume to a
    # bit-identical result with zero recompute of committed trials.
    long_counts, long_ops = reference_counts(LONG_TRIALS)
    daemon, client = start_daemon(state_dir)
    outcome = client.wait(victim)
    assert outcome["state"] == "done", outcome
    assert outcome["result"]["counts"] == long_counts, "resume broke counts"
    journal_summary = outcome["result"]["journal"]
    assert journal_summary["resumed"], journal_summary
    assert journal_summary["replayed_trials"] > 0, journal_summary
    assert outcome["result"]["ops_applied"] < long_ops, "resume recomputed"
    assert 'state="recovered"' in client.metrics_http()
    log(
        f"resume ok: replayed {journal_summary['replayed_trials']} trials, "
        f"{outcome['result']['ops_applied']} of {long_ops} ops re-executed"
    )

    # Stage 4: graceful drain exits 0 and withdraws the endpoint.
    client.shutdown("drain")
    daemon.wait(timeout=60)
    assert daemon.returncode == 0, daemon.returncode
    assert not os.path.exists(os.path.join(state_dir, "endpoint.json"))
    log("clean drain exit ok")
    print("serve-smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

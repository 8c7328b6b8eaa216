"""One workload in one fresh process: set up, signal ready, measure, check.

``run.py`` launches this script with ``--setup-only`` to measure set-up:
the process prints ``READY``, tears down (stopping the daemon and
waiting for it) and exits, and its CPU seconds are the set-up time.
Without the flag it prints ``READY``, runs the timed phase, replays a
seeded sample of requests through the output oracle, and prints one
``RESULT {json}`` line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter, thread_time
from typing import Dict, List, Sequence, Tuple

from repro.bench.suite import resolve_benchmark

import library
import served
from hostspeed import Speed
from workloads import SLO_S, WORKLOADS, passes, warmup

#: Requests per workload replayed through the oracle after timing.
ORACLE_SAMPLE = 3
#: Passes drawn up front; the time limit ends the loop long before.
MAX_PASSES = 400
#: Served jobs after which the daemon's peak RSS is read: it grows with
#: the jobs served, and a faster host serves more in the same time.
#: Shorter runs read it when the daemon has stopped.
RSS_JOBS = 96
#: Half-width, in quantile, of the rank band a latency quantile averages.
BAND = 0.05


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile, averaged over the values ranked within
    ``BAND`` of it.

    The requests of a mixed workload fall into clusters, one per circuit
    or per fresh or repeated seed.  With equal-sized clusters a plain
    median lands in the gap between two of them and jumps with noise;
    averaging the neighbouring ranks keeps it steady.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    low = max(0, math.floor((q - BAND) * last))
    high = min(last, math.ceil((q + BAND) * last))
    return statistics.fmean(ordered[low:high + 1])


def _timing(runs: Sequence[Dict], pass_list: Sequence[tuple]) -> Dict[str, tuple]:
    """The gated times, in reference seconds, and their raw twins.

    A pass is ``(trials, seconds, reference seconds)``; a request's
    ``scaled`` time is in reference seconds (see ``hostspeed``).
    """
    scaled = [run["scaled"] for run in runs]
    return {
        "trials_per_s": (
            _median([trials / reference for trials, _, reference in pass_list]),
            "trials/s",
        ),
        "trials_per_s_aggregate": (
            sum(trials for trials, _, _ in pass_list)
            / sum(reference for _, _, reference in pass_list),
            "trials/s",
        ),
        "trials_per_s_raw": (
            _median([trials / took for trials, took, _ in pass_list]), "trials/s"
        ),
        "request_p50_s": (_quantile(scaled, 0.5), "s"),
        "request_p90_s": (_quantile(scaled, 0.9), "s"),
        "request_p50_raw_s": (_quantile([run["time"] for run in runs], 0.5), "s"),
        "host.speed_factor": (
            _median([took / reference for _, took, reference in pass_list]), "ratio"
        ),
        "requests": (len(runs), "count"),
    }


class Checks:
    """Oracle verdicts; each failing request counts once in ``failed``."""

    def __init__(self) -> None:
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            self.messages.append(message)


def _counts_ok(checks: Checks, run: Dict, what: str) -> None:
    total = sum(run["counts"].values())
    trials = run["request"].trials
    checks.expect(total == trials, f"{what}: counts sum to {total}, not {trials}")


def _oracle_sample(runs: Sequence[Dict], seed: int) -> List[Dict]:
    rng = random.Random(f"oracle/{seed}")
    return rng.sample(list(runs), min(ORACLE_SAMPLE, len(runs)))


def run_library(
    workload, circuits, request_passes, args, checks
) -> Tuple[Dict, List]:
    def send_plain(request) -> Dict:
        return library.plain(request, *circuits[request.circuit])

    def send_traced(request) -> Dict:
        run = library.traced(request, *circuits[request.circuit])
        del run["sim"]
        return run

    senders = {"plain": send_plain}
    if args.trace:
        senders["traced"] = send_traced
    # Library times are CPU times: a request runs on this thread alone,
    # and its wall time also holds whatever the host ran instead.
    loop = library.closed_loop(
        request_passes, senders, args.seconds,
        Speed(workload.probe, thread_time), in_request=True,
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain_runs = loop["plain"]
    for run in plain_runs + loop.get("traced", []):
        _counts_ok(checks, run, f"request {run['slot']}")
    twins = {run["slot"]: run for run in plain_runs}
    for run in loop.get("traced", []):
        checks.expect(
            run["counts"] == twins[run["slot"]]["counts"],
            f"traced request {run['slot']} counts differ from untraced",
        )
    sample = _oracle_sample(plain_runs, args.seed)
    for run in sample:
        request = run["request"]
        circuit, model = circuits[request.circuit]
        reference = library.plain(
            request, circuit, model, backend="statevector-interpreted"
        )
        checks.expect(
            reference["counts"] == run["counts"] and reference["ops"] == run["ops"],
            f"request {run['slot']} differs from the interpreted backend",
        )

    metrics = _timing(plain_runs, loop["plain_passes"])
    metrics.update({
        "peak_rss_mb": (rss_mb, "MB"),
        "service.exec_s_mean": (
            statistics.fmean(run["exec"] for run in plain_runs), "s"
        ),
        "service.wait_s_mean": (
            statistics.fmean(run["latency"] - run["exec"] for run in plain_runs), "s"
        ),
        "service.utilization": (
            sum(run["exec"] for run in plain_runs)
            / sum(run["latency"] for run in plain_runs),
            "ratio",
        ),
        "shared.ops_saved_frac": (
            sum(run["ops_shared"] for run in plain_runs)
            / sum(run["ops"] + run["ops_shared"] for run in plain_runs),
            "ratio",
        ),
        "journal.bytes_per_trial": (0.0, "B"),
    })
    if args.trace:
        kernels = []
        for run in sample:
            request = run["request"]
            circuit, model = circuits[request.circuit]
            counted = library.kernel_counts(request, circuit, model)
            checks.expect(
                counted["counts"] == run["counts"] and counted["ops"] == run["ops"],
                f"recorded replay of request {run['slot']} differs",
            )
            kernels.append(counted)
        metrics.update(library.stage_metrics(loop["traced"], kernels))
        traced_rate = _timing(loop["traced"], loop["traced_passes"])["trials_per_s"][0]
        metrics["trace.overhead_frac"] = (
            metrics["trials_per_s"][0] / traced_rate - 1.0, "ratio"
        )
    return metrics, loop["plain_passes"]


def run_served(
    workload, circuits, daemon, request_passes, args, checks
) -> Tuple[Dict, List]:
    client = daemon.client
    labels = itertools.count()
    rss_mb: List[float] = []

    def send(request) -> Dict:
        index = next(labels)
        record = served.send(client, request, f"perfbench-{index}")
        if index + 1 == RSS_JOBS:
            rss_mb.append(daemon.peak_rss_mb())
        return record

    before = served.scrape(client)
    # A job's time is its wall time, and the host is sampled between
    # jobs: the job runs in the daemon, not here.
    loop = library.closed_loop(
        request_passes, {"plain": send}, args.seconds,
        Speed(workload.probe, perf_counter), in_request=False,
    )
    after = served.scrape(client)
    records = loop["plain"]
    done = [r for r in records if r.get("state") == "done"]
    for record in records:
        if record.get("state") != "done":
            checks.expect(False, f"job {record['request']} ended {record.get('state')}")
    for record in done:
        record["counts"] = record["result"]["counts"]
        _counts_ok(checks, record, f"job {record['job_id']}")
    journal_bytes = 0
    for record in done:
        path = os.path.join(daemon.job_dir(record["job_id"]), "run.journal")
        if os.path.exists(path):
            journal_bytes += os.path.getsize(path)
    daemon.stop()
    rss_mb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)

    latencies = [r["time"] for r in done]
    exec_sum = after["repro_serve_job_seconds_sum"] - before["repro_serve_job_seconds_sum"]
    exec_count = after["repro_serve_job_seconds_count"] - before["repro_serve_job_seconds_count"]
    exec_mean = exec_sum / exec_count
    hits, misses = (
        after[f'repro_serve_shared{{stat="{stat}"}}']
        - before[f'repro_serve_shared{{stat="{stat}"}}']
        for stat in ("hits", "misses")
    )
    ops_shared = sum(r["result"]["ops_shared"] for r in done)
    ops_applied = sum(r["result"]["ops_applied"] for r in done)
    metrics = _timing(done, loop["plain_passes"])
    metrics.update({
        "requests": (len(records), "count"),
        "peak_rss_mb": (rss_mb[0], "MB"),
        "slo_met_frac": (
            sum(1 for value in latencies if value <= SLO_S) / len(records),
            "ratio",
        ),
        "serve.submit_rtt_p50_s": (
            _median([r["rtt"] for r in records if "rtt" in r]), "s"
        ),
        "service.exec_s_mean": (exec_mean, "s"),
        "service.wait_s_mean": (statistics.fmean(latencies) - exec_mean, "s"),
        "service.utilization": (exec_sum / sum(latencies), "ratio"),
        "shared.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "shared.ops_saved_frac": (ops_shared / (ops_applied + ops_shared), "ratio"),
        "journal.bytes_per_trial": (
            journal_bytes / sum(r["request"].trials for r in done), "B"
        ),
    })

    # Oracle: every sampled job equals an isolated run with its seed, and
    # the executed plus shared operations add up to the isolated count.
    sample = _oracle_sample(done, args.seed)
    isolated, traced, kernels = [], [], []
    for record in sample:
        request = record["request"]
        circuit, model = circuits[request.circuit]
        alone = library.plain(request, circuit, model)
        result = record["result"]
        checks.expect(
            alone["counts"] == result["counts"]
            and alone["ops"] == result["ops_applied"] + result["ops_shared"],
            f"job {record['job_id']} differs from an isolated run",
        )
        isolated.append(alone)
        if args.trace:
            # The daemon runs untraced; its jobs' stage split is measured
            # by replaying the sample in this process.
            replay = library.traced(request, circuit, model)
            checks.expect(
                replay["counts"] == result["counts"],
                f"traced replay of job {record['job_id']} differs",
            )
            traced.append(replay)
            kernels.append(library.kernel_counts(request, circuit, model))
    if args.trace:
        metrics.update(library.stage_metrics(traced, kernels))
        metrics["trace.overhead_frac"] = (
            _median([r["time"] for r in traced])
            / _median([r["time"] for r in isolated]) - 1.0,
            "ratio",
        )
    return metrics, loop["plain_passes"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    circuits = {name: resolve_benchmark(name) for name in workload.circuits}
    request_passes = passes(workload, args.seed, args.scale, MAX_PASSES)
    checks = Checks()
    daemon = None
    state_dir = None
    try:
        if workload.served:
            state_dir = tempfile.mkdtemp(prefix="serve-state-")
            daemon = served.Daemon(state_dir)
            for index, request in enumerate(warmup(workload, args.seed)):
                accepted = daemon.client.submit(
                    served.job_spec(request, f"warmup-{index}")
                )
                daemon.client.wait(accepted["job_id"])
        else:
            for request in warmup(workload, args.seed):
                circuit, model = circuits[request.circuit]
                library.plain(request, circuit, model)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if workload.served:
            metrics, pass_list = run_served(
                workload, circuits, daemon, request_passes, args, checks
            )
            attempted = int(metrics["requests"][0])
        else:
            metrics, pass_list = run_library(
                workload, circuits, request_passes, args, checks
            )
            attempted = int(metrics["requests"][0]) * (2 if args.trace else 1)
        metrics["failed_frac"] = (checks.failed / attempted, "ratio")
        result = {
            "attempted": attempted,
            "failed": checks.failed,
            "checks": checks.messages,
            "passes": pass_list,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        if daemon is not None:
            daemon.stop()
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

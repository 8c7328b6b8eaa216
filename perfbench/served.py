"""The served workload: a real ``repro serve`` daemon and one client.

The client submits a job, waits for its result, and only then submits
the next, so one process at a time is busy: the host's two CPUs are not
both loaded, and a job's time is its own, not the queue's.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from time import perf_counter
from typing import Dict

from repro.serve import ServeClient, ServeError

__all__ = ["Daemon", "job_spec", "scrape", "send"]

_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})? (\S+)")


def job_spec(request, label: str) -> Dict:
    return {
        "circuit": {"benchmark": request.circuit},
        "noise": "ibm_yorktown",
        "trials": request.trials,
        "seed": request.seed,
        "label": label,
    }


class Daemon:
    """``python -m repro serve`` with default settings on ``state_dir``."""

    def __init__(self, state_dir: str, start_timeout: float = 60.0) -> None:
        self.state_dir = state_dir
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", state_dir],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self.client = self._connect(start_timeout)
        except BaseException:
            self.kill()
            raise

    def _connect(self, timeout: float) -> ServeClient:
        """Wait until the endpoint is published and ``ping`` answers."""
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited at start with code {self.process.returncode}"
                )
            try:
                client = ServeClient.from_state_dir(self.state_dir)
                if client.ping().get("pong"):
                    return client
            except (OSError, ValueError, KeyError, ServeError):
                pass  # not bound yet
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not answer ping in {timeout}s")
            time.sleep(0.01)

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.state_dir, "jobs", job_id)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set so far (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the daemon's /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the backlog, then wait for the process to exit."""
        if self.process.poll() is None:
            try:
                self.client.shutdown("drain")
            except (OSError, ServeError):
                pass  # already going away; wait() below decides
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def scrape(client: ServeClient) -> Dict[str, float]:
    """The OpenMetrics samples, keyed ``name{labels}`` (labels summed away
    for the job-seconds histogram's sum and count)."""
    samples: Dict[str, float] = {}
    for line in client.metrics().splitlines():
        match = _SAMPLE.match(line)
        if not match:
            continue
        name, labels, value = match.groups()
        if name in ("repro_serve_job_seconds_sum", "repro_serve_job_seconds_count"):
            samples[name] = samples.get(name, 0.0) + float(value)
        else:
            samples[name + (labels or "")] = float(value)
    return samples


def send(client: ServeClient, request, label: str) -> Dict:
    """Submit one job and wait for its result.

    Returns the job's ``time`` from submission to result, the submit
    round trip, the terminal ``state`` (``refused`` when admission
    rejected it) and the server's result payload.
    """
    record: Dict = {"request": request}
    sent = perf_counter()
    try:
        accepted = client.submit(job_spec(request, label))
        record["rtt"] = perf_counter() - sent
        record["job_id"] = accepted["job_id"]
        response = client.wait(accepted["job_id"])
        record["state"] = response.get("state")
        record["result"] = response.get("result")
    except (OSError, ServeError) as exc:
        record["state"] = "failed" if "job_id" in record else "refused"
        record["error"] = str(exc)
    record["time"] = perf_counter() - sent
    return record

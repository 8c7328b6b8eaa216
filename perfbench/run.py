#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer performance of the noisy simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --seed 1                    # every workload
    python3 perfbench/run.py --seed 1 --traced           # per-layer split
    python3 perfbench/run.py --workload qft14-dense --seed 1 --seconds 15 \\
        --trace 0 --json out.json

Each workload runs in fresh processes (see ``worker.py``).  Three
launches set up and exit; ``setup_s`` is the median of their CPU
seconds, the daemon's included, in reference seconds (see
``hostspeed.py``).  A fourth launch sets up again and runs the timed
phase.  One ``workload metric value unit`` line is printed per metric,
and the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its
``per_layer`` metrics with ``--trace 1``.  The exit code is 0 only if
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_LAUNCH_S, children_cpu, reference_launch  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up-only launches per workload, before the launch that measures;
#: the median of their CPU times, in reference seconds, is ``setup_s``.
LAUNCHES = 3
#: Every launch of one workload must end within this many seconds.
DEADLINE_S = 170.0
#: Thread-count variables of the BLAS and OpenMP runtimes numpy may use.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_benchmark() -> Dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env(tmp: str) -> Dict[str, str]:
    """Source tree first on the path, one BLAS thread, scratch in ``tmp``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env.setdefault(name, "1")
    env["TMPDIR"] = tmp
    return env


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(env: Dict[str, str]) -> Dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {name: env.get(name) for name in BLAS_ENV},
    }


def _kill(process: subprocess.Popen) -> None:
    """Stop a worker and anything it started (it leads its own session)."""
    if process.poll() is None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait()


def run_workload(name: str, args, env: Dict[str, str]) -> Dict:
    common = [
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    # Set-up time is an end-to-end metric; traced runs launch once.
    launches = 1 if args.trace else LAUNCHES + 1
    setups: List[float] = []
    references: List[float] = []
    result_line = None
    processes: List[subprocess.Popen] = []
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        for process in processes:
            _kill(process)

    timer = threading.Timer(DEADLINE_S, expire)
    timer.start()
    try:
        for launch in range(launches):
            setup_only = launch < launches - 1
            if setup_only and not references:
                references.append(reference_launch(env))
            cpu_before = children_cpu()
            process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py")]
                + common + (["--setup-only"] if setup_only else []),
                stdout=subprocess.PIPE,
                env=env,
                cwd=ROOT,
                text=True,
                start_new_session=True,
            )
            processes.append(process)
            ready = False
            for line in process.stdout:
                if line.strip() == "READY":
                    ready = True
                elif line.startswith("RESULT "):
                    result_line = line[len("RESULT "):]
            process.wait()
            if expired.is_set():
                raise BenchError(f"{name}: ran past the {DEADLINE_S:.0f}s deadline")
            if process.returncode != 0 or not ready:
                raise BenchError(f"{name}: worker exited with code {process.returncode}")
            if setup_only:
                setups.append(children_cpu() - cpu_before)
                references.append(reference_launch(env))
    finally:
        timer.cancel()
        for process in processes:
            _kill(process)
    if result_line is None:
        raise BenchError(f"{name}: worker printed no result")
    result = json.loads(result_line)
    if setups:
        # Each launch is divided by the mean of the reference launches
        # just before and after it, over their nominal CPU time.
        scaled = [
            cpu * 2 * REFERENCE_LAUNCH_S / (before + after)
            for cpu, before, after in zip(setups, references, references[1:])
        ]
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        result["metrics"]["setup_raw_s"] = {
            "value": statistics.median(setups), "unit": "s"
        }
    result["setup_launches_s"] = setups
    result["reference_launches_s"] = references
    return result


def select(result: Dict, wanted: List[Dict], workload: str) -> Dict:
    """The metrics ``BENCHMARK.json`` names, with their declared units."""
    chosen = {}
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if measured is None:
            raise BenchError(f"{workload}: metric {spec['name']} was not measured")
        if measured["unit"] != spec["unit"]:
            raise BenchError(
                f"{workload}: {spec['name']} measured in {measured['unit']}, "
                f"BENCHMARK.json says {spec['unit']}"
            )
        chosen[spec["name"]] = measured
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS),
        help="one workload (default: all four in turn)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        help="measured seconds per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke shrinks every request for a quick self-test",
    )
    parser.add_argument("--json", help="write the full result document here")
    args = parser.parse_args(argv)

    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError(f"no source tree at {os.path.join(ROOT, 'src', 'repro')}")
        benchmark = load_benchmark()
        if args.seconds is None:
            args.seconds = float(benchmark["run_seconds"])
        wanted = benchmark["per_layer" if args.trace else "end_to_end"]
        names = [args.workload] if args.workload else list(WORKLOADS)
        scratch = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
        env = child_env(tmp)
        try:
            results = {name: run_workload(name, args, env) for name in names}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(scratch)
            except OSError:
                pass  # another run still uses it
        selected = {name: select(results[name], wanted, name) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for name in names:
        required = selected[name]
        extras = sorted(set(results[name]["metrics"]) - set(required))
        for metric in list(required) + extras:
            measured = results[name]["metrics"][metric]
            print(f"{name} {metric} {measured['value']!r} {measured['unit']}")
        for message in results[name]["checks"]:
            print(f"{name} CHECK FAILED: {message}")

    correct = all(results[name]["failed"] == 0 for name in names)
    if args.json:
        document = {
            "machine": machine_block(env),
            "config": {
                "scale": args.scale,
                "seconds": args.seconds,
                "trace": args.trace,
                "workloads": names,
            },
            "run": {"seed": args.seed, "git_commit": git_commit()},
            "workloads": results,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    if args.workload:
        metrics = selected[args.workload]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name in names
            for metric, value in selected[name].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(results[name]["attempted"] for name in names),
        "failed": sum(results[name]["failed"] for name in names),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke runs of the whole benchmark at ``--scale smoke``."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("table1-device", "qft14-dense", "bv14-clifford", "serve-family")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _printed(stdout):
    """``(workload, metric) -> (value, unit)`` from the metric lines."""
    lines = {}
    for line in stdout.splitlines()[:-1]:
        workload, metric, value, unit = line.split()
        lines[(workload, metric)] = (float(value), unit)
    return lines


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    out = tmp_path / "result.json"
    done = _run(["--scale", "smoke", "--seconds", "1", "--seed", "5", "--json", str(out)])
    assert done.returncode == 0, done.stderr
    printed = _printed(done.stdout)
    for workload in WORKLOADS:
        for metric in _benchmark()["end_to_end"]:
            value, unit = printed[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert value > 0
        assert printed[(workload, "failed_frac")][0] == 0.0
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    document = json.loads(out.read_text())
    assert document["machine"]["nproc"] >= 1
    assert document["config"]["scale"] == "smoke"
    assert document["run"]["seed"] == 5


def test_traced_smoke_prints_every_per_layer_metric():
    wanted = _benchmark()["per_layer"]
    for workload in ("qft14-dense", "serve-family"):
        done = _run([
            "--workload", workload, "--scale", "smoke", "--seconds", "1",
            "--seed", "6", "--trace", "1",
        ])
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.splitlines()[-1])
        assert last["correct"] is True
        assert sorted(last["metrics"]) == sorted(m["name"] for m in wanted)
        for metric in wanted:
            assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        ["--workload", "qft14-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""

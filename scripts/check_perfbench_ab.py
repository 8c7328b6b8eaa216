#!/usr/bin/env python
"""Validate a committed perfbench A/B document (schema ``perfbench-ab/1``).

Usage::

    python scripts/check_perfbench_ab.py PATH WORKLOAD MIN_RATIO

Checks that both sides hold at least ten runs, that every run reports
``correct`` with no failed request on any workload, and that the median
``trials_per_s`` of ``WORKLOAD`` on the change side is at least
``MIN_RATIO`` times the parent side's.  Exits 0 when all of that holds;
a failed assertion exits 1 with the offending values.
"""

import json
import statistics
import sys


def check(path: str, workload: str, min_ratio: float) -> float:
    payload = json.load(open(path))
    assert payload["schema"] == "perfbench-ab/1", payload.get("schema")
    sides = {side: payload[side]["runs"] for side in ("parent", "change")}
    assert len(sides["parent"]) == len(sides["change"]) >= 10
    for side, runs in sides.items():
        for run in runs:
            result = run["result"]
            assert result["correct"] is True and result["failed"] == 0, (side, result)
            for name, entry in run["document"]["workloads"].items():
                assert entry["failed"] == 0, (side, name, entry["checks"])

    def median(side: str) -> float:
        return statistics.median(
            run["document"]["workloads"][workload]["metrics"]["trials_per_s"]["value"]
            for run in sides[side]
        )

    ratio = median("change") / median("parent")
    assert ratio >= min_ratio, ratio
    return ratio


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path, workload, min_ratio = argv[0], argv[1], float(argv[2])
    ratio = check(path, workload, min_ratio)
    print(f"{path} ok: {workload} trials_per_s change/parent {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

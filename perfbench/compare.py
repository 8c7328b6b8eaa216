#!/usr/bin/env python3
"""Compare perfbench results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--json`` documents of at least ten untraced
runs.  The i-th files of the two directories, in name order, form a
pair; run the pairs alternating which side goes first.  For every
workload and every ``end_to_end`` metric of ``BENCHMARK.json``, plus
``failed_frac``, it prints each side's median and quartiles, the share
of pairs the change won (ties count for neither) and a verdict:

``improved``
    the change won at least nine tenths of the pairs and the medians
    differ by more than the parent's interquartile range;
``unresolved``
    either side's interquartile range, as a share of its median, is
    wider than the bound, and not every change run beats every parent
    run;
``regressed``
    the change's median is worse than the parent's by more than the
    bound;
``no worse``
    otherwise.

For ``failed_frac`` any failure the parent did not have is a regression.

Result sets whose ``machine`` or ``config`` blocks differ are refused
(exit 2).  The exit code is 1 if any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


class Refused(ValueError):
    """The two result sets cannot be compared."""


def load_results(directory: str) -> List[Dict]:
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    documents = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def check_comparable(parent: Sequence[Dict], change: Sequence[Dict]) -> None:
    """Refuse pairs too few, or machine or config blocks that differ."""
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        raise Refused(f"need at least {MIN_PAIRS} pairs, got {pairs}")
    reference = parent[0]
    for document in list(parent) + list(change):
        for block in ("machine", "config"):
            if document.get(block) != reference.get(block):
                raise Refused(
                    f"{block} blocks differ: {document.get(block)} "
                    f"vs {reference.get(block)}"
                )
        if document["config"].get("trace"):
            raise Refused("traced runs measure per-layer numbers, not end-to-end")


def _relative(amount: float, base: float) -> float:
    if base:
        return amount / abs(base)
    return float("inf") if amount > 0 else 0.0


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, Dict[str, float]]:
    """The verdict for one workload and metric, with the numbers behind it."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(
        1 for p, c in zip(parent[:pairs], change[:pairs]) if sign * (c - p) > 0
    )
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_median, c_q3 = statistics.quantiles(change, n=4)
    spread = max(
        _relative(p_q3 - p_q1, p_median), _relative(c_q3 - c_q1, c_median)
    )
    worse_by = _relative(sign * (p_median - c_median), p_median)
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    numbers = {
        "parent_median": p_median,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "change_median": c_median,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "win_share": wins / pairs,
        "spread": spread,
        "worse_by": worse_by,
    }
    if wins >= WIN_SHARE * pairs and abs(c_median - p_median) > p_q3 - p_q1:
        return "improved", numbers
    if spread > bound and not every_better:
        return "unresolved", numbers
    if worse_by > bound:
        return "regressed", numbers
    return "no worse", numbers


def compare(parent: Sequence[Dict], change: Sequence[Dict], benchmark: Dict) -> List[Dict]:
    check_comparable(parent, change)
    pairs = min(len(parent), len(change))
    parent, change = parent[:pairs], change[:pairs]
    metrics = list(benchmark["end_to_end"]) + [
        {"name": "failed_frac", "better": "lower", "bound": 0.0}
    ]
    rows = []
    for workload in parent[0]["config"]["workloads"]:
        for metric in metrics:
            name = metric["name"]

            def values(documents):
                return [
                    d["workloads"][workload]["metrics"][name]["value"]
                    for d in documents
                ]

            before, after = values(parent), values(change)
            outcome, numbers = verdict(
                before, after, metric["better"], metric["bound"]
            )
            if name == "failed_frac":
                # Any failure the parent did not have is a regression,
                # even one that leaves the median at zero.
                outcome = "regressed" if sum(after) > sum(before) else "no worse"
            rows.append(
                dict(numbers, workload=workload, metric=name, verdict=outcome,
                     bound=metric["bound"])
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    try:
        rows = compare(
            load_results(args.parent_dir), load_results(args.change_dir), benchmark
        )
    except Refused as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print("workload metric parent_median [q1 q3] change_median [q1 q3] wins verdict")
    for row in rows:
        print(
            f"{row['workload']} {row['metric']} "
            f"{row['parent_median']:.5g} [{row['parent_q1']:.5g} {row['parent_q3']:.5g}] "
            f"{row['change_median']:.5g} [{row['change_q1']:.5g} {row['change_q3']:.5g}] "
            f"{row['win_share']:.2f} {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

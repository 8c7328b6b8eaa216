import pytest

from compare import Refused, check_comparable, compare, verdict

BENCHMARK = {
    "end_to_end": [
        {"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.1},
        {"name": "request_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]
}


def test_nine_of_ten_wins_and_median_gap_is_improved():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [110.0 + i * 0.1 for i in range(9)] + [99.0]
    outcome, numbers = verdict(parent, change, "higher", 0.1)
    assert numbers["win_share"] == pytest.approx(0.9)
    assert outcome == "improved"


def test_eight_of_ten_wins_is_not_improved():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [110.0 + i * 0.1 for i in range(8)] + [99.0, 99.5]
    outcome, numbers = verdict(parent, change, "higher", 0.1)
    assert numbers["win_share"] == pytest.approx(0.8)
    assert outcome == "no worse"


def test_gap_inside_parent_iqr_is_not_improved():
    parent = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]
    change = [value + 0.5 for value in parent]
    outcome, numbers = verdict(parent, change, "higher", 0.1)
    assert numbers["win_share"] == 1.0
    assert outcome == "no worse"


def test_spread_wider_than_bound_is_unresolved():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [value * 0.95 for value in parent]
    outcome, numbers = verdict(parent, change, "higher", 0.1)
    assert numbers["spread"] > 0.1
    assert outcome == "unresolved"


def test_worse_by_more_than_bound_is_regressed():
    parent = [1.0 + i * 0.001 for i in range(10)]
    change = [1.2 + i * 0.001 for i in range(10)]
    outcome, numbers = verdict(parent, change, "lower", 0.1)
    assert numbers["worse_by"] == pytest.approx(0.2 / 1.0045)
    assert outcome == "regressed"


def test_small_slowdown_within_bound_is_no_worse():
    parent = [1.0 + i * 0.001 for i in range(10)]
    change = [1.05 + i * 0.001 for i in range(10)]
    assert verdict(parent, change, "lower", 0.1)[0] == "no worse"


def _document(rate, latency, machine="m", scale="full", failed=0.0):
    return {
        "machine": {"cpu_model": machine},
        "config": {"scale": scale, "seconds": 15, "trace": 0, "workloads": ["w"]},
        "run": {"seed": 1},
        "workloads": {
            "w": {
                "metrics": {
                    "trials_per_s": {"value": rate, "unit": "trials/s"},
                    "request_p50_s": {"value": latency, "unit": "s"},
                    "failed_frac": {"value": failed, "unit": "ratio"},
                }
            }
        },
    }


def test_compare_rows_per_workload_and_metric():
    parent = [_document(100.0 + i, 1.0) for i in range(10)]
    change = [_document(130.0 + i, 1.0) for i in range(10)]
    rows = {row["metric"]: row["verdict"] for row in compare(parent, change, BENCHMARK)}
    assert rows == {
        "trials_per_s": "improved",
        "request_p50_s": "no worse",
        "failed_frac": "no worse",
    }


def test_one_failed_run_regresses_failed_frac():
    parent = [_document(100.0, 1.0) for _ in range(10)]
    change = [_document(100.0, 1.0) for _ in range(9)]
    change.append(_document(100.0, 1.0, failed=0.01))
    rows = {row["metric"]: row["verdict"] for row in compare(parent, change, BENCHMARK)}
    assert rows["failed_frac"] == "regressed"
    assert rows["trials_per_s"] == "no worse"


def test_refuses_different_machines_configs_and_few_pairs():
    parent = [_document(100.0, 1.0) for _ in range(10)]
    with pytest.raises(Refused):
        check_comparable(parent, parent[:9])
    with pytest.raises(Refused):
        check_comparable(parent, [_document(100.0, 1.0, machine="other")] * 10)
    with pytest.raises(Refused):
        check_comparable(parent, [_document(100.0, 1.0, scale="smoke")] * 10)
    check_comparable(parent, parent)

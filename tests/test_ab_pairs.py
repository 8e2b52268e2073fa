"""The claim, bound and move rules of `tools/ab_pairs.py` on fixed numbers,
and the workloads it runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT = [1.00, 1.10, 0.90, 1.05, 0.95, 1.00, 1.20, 0.80, 1.00, 1.00]


def test_quartiles_interpolate_between_ranks():
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_nine_wins_and_a_gap_beyond_the_parent_iqr_make_a_claim():
    # parent quartiles 0.9625 / 1.0 / 1.0375: IQR 0.075
    change = [p - 0.2 for p in PARENT]
    change[3] = 1.30  # one loss
    verdict = ab_pairs.summarize(PARENT, change, "lower", 0.25)
    assert verdict["parent"] == pytest.approx((0.9625, 1.0, 1.0375))
    assert verdict["wins"] == 9
    assert verdict["claim"] and not verdict["over_bound"]


def test_fewer_than_ten_pairs_make_no_claim():
    change = [p - 0.2 for p in PARENT]
    assert ab_pairs.summarize(PARENT, change, "lower", 0.25)["claim"]
    for n in (1, ab_pairs.MIN_PAIRS - 1):
        verdict = ab_pairs.summarize(PARENT[:n], change[:n], "lower", 0.25)
        assert verdict["wins"] == n
        assert not verdict["claim"]


def test_eight_wins_make_no_claim():
    change = [p - 0.2 for p in PARENT]
    change[3] = change[5] = 1.30
    verdict = ab_pairs.summarize(PARENT, change, "lower", 0.25)
    assert verdict["wins"] == 8
    assert not verdict["claim"]


def test_a_gap_within_the_parent_iqr_makes_no_claim():
    change = [p - 0.05 for p in PARENT]  # wins every pair, moves the median by 0.05 < 0.075
    verdict = ab_pairs.summarize(PARENT, change, "lower", 0.25)
    assert verdict["wins"] == 10
    assert not verdict["claim"]


def test_ties_count_for_neither_side():
    verdict = ab_pairs.summarize(PARENT, list(PARENT), "lower", 0.25)
    assert verdict["wins"] == 0
    assert not verdict["claim"] and not verdict["over_bound"]


def test_direction_follows_better():
    # higher is better: the same numbers as a 0.2 gain are now a 0.2 loss
    change = [p - 0.2 for p in PARENT]
    verdict = ab_pairs.summarize(PARENT, change, "higher", 0.25)
    assert verdict["wins"] == 0 and not verdict["claim"]
    assert not verdict["over_bound"]  # 20% worse, inside a 25% bound
    assert ab_pairs.summarize(PARENT, change, "higher", 0.1)["over_bound"]


def test_a_move_worse_than_the_bound_is_flagged():
    change = [p * 1.3 for p in PARENT]
    assert ab_pairs.summarize(PARENT, change, "lower", 0.25)["over_bound"]
    assert not ab_pairs.summarize(PARENT, change, "lower", 0.35)["over_bound"]


def test_a_constant_value_that_changes_is_marked_moved():
    # the last digits of a deterministic metric: far inside any relative bound
    parent, change = [0.025245189047471396] * 10, [0.0252451890474714] * 10
    verdict = ab_pairs.summarize(parent, change, "lower", 0.1)
    assert verdict["moved"] and not verdict["over_bound"] and not verdict["claim"]
    assert not ab_pairs.summarize(parent, list(parent), "lower", 0.1)["moved"]
    # a metric that varies from pair to pair on either side is judged by the
    # other flags alone
    assert not ab_pairs.summarize(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["moved"]
    assert not ab_pairs.summarize(PARENT, [1.0] * 10, "lower", 0.25)["moved"]
    assert not ab_pairs.summarize([1.0] * 10, PARENT, "lower", 0.25)["moved"]


def test_unpaired_or_unknown_input_is_rejected():
    with pytest.raises(ValueError):
        ab_pairs.summarize(PARENT, PARENT[:-1], "lower", 0.25)
    with pytest.raises(ValueError):
        ab_pairs.summarize(PARENT, PARENT, "faster", 0.25)


def test_without_a_workload_every_benchmark_workload_runs_in_order():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == ["narrow_k1", "wide_k1"]
    assert ab_pairs.workload_names(bench, None) == names
    assert ab_pairs.workload_names(bench, "wide_k1") == ["wide_k1"]
    # a harness workload that BENCHMARK.json does not list can still be named
    assert ab_pairs.workload_names(bench, "narrow_k25") == ["narrow_k25"]

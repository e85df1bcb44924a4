"""The statistics of ``tools/bench_pairs.py``, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
CHANGE = [110, 111, 109, 110, 112, 108, 110, 99, 109, 110]  # loses pair 7


def test_median_and_inclusive_iqr():
    assert bench_pairs.median_iqr([1, 2, 3, 4, 5]) == (3, 2)
    assert bench_pairs.median_iqr([4, 1, 3, 2]) == (2.5, 1.5)
    assert bench_pairs.median_iqr([7.0]) == (7.0, 0.0)
    median, iqr = bench_pairs.median_iqr(PARENT)
    assert median == 100 and iqr == pytest.approx(1.5)  # 100.75 - 99.25


def test_claim_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    c = bench_pairs.claim(PARENT, CHANGE, "higher")
    assert (c["pairs"], c["change_wins"], c["met"]) == (10, 9, True)
    assert c["ratio_of_medians"] == 1.1 and c["median_difference"] == 10
    assert c["parent_iqr"] == 1.5 and c["per_pair_ratio"][7] == 0.9802
    eight = CHANGE[:6] + [100] + CHANGE[7:]  # pair 6 ties
    assert bench_pairs.claim(PARENT, eight, "higher")["change_wins"] == 8
    assert not bench_pairs.claim(PARENT, eight, "higher")["met"]
    close = [p + 1.2 for p in PARENT]  # every pair won, gap 1.2 < IQR 1.5
    assert bench_pairs.claim(PARENT, close, "higher")["change_wins"] == 10
    assert not bench_pairs.claim(PARENT, close, "higher")["met"]
    assert bench_pairs.claim(CHANGE, PARENT, "lower")["met"]


def test_compare_bounds_wins_and_resolution():
    m = bench_pairs.compare(PARENT, CHANGE, "higher", 0.2)
    assert m["parent"]["median"] == 100 and m["change"]["median"] == 110
    assert m["change_vs_parent"] == 0.1
    assert m["change_better_in_pairs"] == "9/10"
    assert m["within_bound"] and m["resolved"]
    flat = [10.0] * 4
    assert bench_pairs.compare(flat, [11.9] * 4, "lower", 0.2)["within_bound"]
    assert not bench_pairs.compare(flat, [12.1] * 4, "lower",
                                   0.2)["within_bound"]
    assert bench_pairs.compare(flat, [8.1] * 4, "higher", 0.2)["within_bound"]
    assert not bench_pairs.compare(flat, [7.9] * 4, "higher",
                                   0.2)["within_bound"]
    wide = [1, 2, 3, 4, 5]  # IQR / median = 2/3, past a 0.25 bound
    assert not bench_pairs.compare(wide, [2, 3, 4, 5, 6], "lower",
                                   0.25)["resolved"]
    # every change run below every parent run: resolved despite the spread
    assert bench_pairs.compare(wide, [0.1, 0.2, 0.3, 0.4, 0.5], "lower",
                               0.25)["resolved"]

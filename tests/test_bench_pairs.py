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


def _side(ops: float, digest: str = "d") -> dict:
    metrics = {"ops_per_s": ops, "latency_p50_ms": 1000 / ops}
    return {"results_digest": digest, "attempted": 10, "failed": 0,
            "correct": True,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_report_claims_every_workload_with_its_held_out_pair():
    bench = {"run_seconds": 1,
             "workloads": [{"name": "fast"}, {"name": "slow-cli"}],
             "end_to_end": [{"name": "ops_per_s", "better": "higher",
                             "bound": 0.2},
                            {"name": "latency_p50_ms", "better": "lower",
                             "bound": 0.2}]}
    runs = {"fast": [{"parent": _side(p), "change": _side(p)}
                     for p in PARENT],
            "slow-cli": [{"parent": _side(p), "change": _side(c)}
                         for p, c in zip(PARENT, CHANGE)]}
    held = {"fast": {"parent": _side(100), "change": _side(99)},
            "slow-cli": {"parent": _side(100), "change": _side(112, "e")}}
    traced = {w: {"parent": _side(5), "change": _side(6)} for w in runs}
    lines = {"parent": {"a.py": 10, "b.py": 5}, "change": {"a.py": 8,
                                                            "b.py": 5}}
    out = bench_pairs.report(bench, "abc", runs, held, traced, 411, lines)
    assert set(out["claim"]) == {"fast", "slow-cli"}
    fast, cli = out["claim"]["fast"], out["claim"]["slow-cli"]
    assert (fast["metric"], fast["change_wins"], fast["met"]) == \
        ("ops_per_s", 0, False)
    assert (cli["change_wins"], cli["met"]) == (9, True)
    assert fast["held_out"] == {"seed": 411, "parent": 100, "change": 99,
                                "ratio": 0.99, "change_better": False,
                                "digests_match": True}
    assert cli["held_out"]["change_better"]
    assert not cli["held_out"]["digests_match"]
    assert out["method"]["tool"] == "tools/bench_pairs.py --parent abc " \
                                    "--held-out 411"
    assert out["traced_fast_401"]["per_layer"]["ops_per_s"] == \
        {"parent": 5, "change": 6}
    assert "traced_slow_cli_401" in out
    assert out["end_to_end"]["slow-cli"]["metrics"]["ops_per_s"][
        "change_better_in_pairs"] == "9/10"
    # without a held-out seed, no claim carries one
    assert out["code_lines"] == {
        "counter": "tools/code_lines.py src/hdmcg",
        "parent": {"a.py": 10, "b.py": 5, "total": 15},
        "change": {"a.py": 8, "b.py": 5, "total": 13}, "total_change": -2}
    bare = bench_pairs.report(bench, "abc", runs, {}, traced, None, lines)
    assert not any("held_out" in c for c in bare["claim"].values())
    assert bare["method"]["tool"] == "tools/bench_pairs.py --parent abc"


def test_module_lines_count_each_module_of_the_package():
    lines = bench_pairs.module_lines(ROOT)
    assert sorted(lines) == sorted(
        path.name for path in (ROOT / "src" / "hdmcg").glob("*.py"))
    assert all(n > 0 for n in lines.values())

"""Alternated benchmark pairs: a parent commit against the working tree.

    python tools/bench_pairs.py --parent REV [--held-out SEED] [--out FILE]

The parent is built with ``git archive REV`` into a temporary directory,
which is removed afterwards.  For each seed 401-410, each workload of
``BENCHMARK.json`` runs the unchanged ``perfbench/run.py`` for its
``run_seconds`` once on the parent and once on the working tree, and the
side that runs first alternates from pair to pair.  The result is printed
(and written to ``--out``) in the form of the committed ``BENCH_*.json``
files: per-pair values, medians, interquartile ranges (inclusive
quartiles), win counts and the bound of each end-to-end metric in
``BENCHMARK.json``, and the metrics left unresolved; the claim test on
``ops_per_s`` of every workload, each checked again on the held-out seed;
one traced run of every workload at seed 401 on each side; and the code
lines of ``src/hdmcg`` on each side, per module and in total, by the rule
of ``tools/code_lines.py``.  Runs go one at a time, since ``run.py`` pins
itself to one core.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9  # a claim needs the change to read better in 9 of 10 pairs
SEEDS = range(401, 411)
TRACE_SEED = 401
CLAIM_METRIC = "ops_per_s"


def module_lines(tree: Path) -> dict[str, int]:
    """The code lines of each module of ``src/hdmcg`` in ``tree``, by file
    name."""
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    return {path.name: n for path, n
            in code_lines.counts(tree / "src" / "hdmcg").items()}


def median_iqr(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range, with inclusive quartiles."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def better(change: float, parent: float, direction: str) -> bool:
    return change > parent if direction == "higher" else change < parent


def compare(parent: list[float], change: list[float], direction: str,
            bound: float) -> dict:
    """Both sides' medians, IQRs and runs (in pair order), the change's
    relative move, its wins over the pairs, and whether its median stays
    within ``bound`` of the parent's.  The metric is resolved when neither
    side's IQR over its median exceeds the bound, or when every run of the
    change reads better than every run of the parent."""
    (pm, pi), (cm, ci) = median_iqr(parent), median_iqr(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    worse = (pm - cm if direction == "higher" else cm - pm)
    spread = max(pi / pm if pm else 0.0, ci / cm if cm else 0.0)
    apart = all(better(c, p, direction) for c in change for p in parent)
    return {"better": direction, "bound": bound,
            "parent": {"median": round(pm, 4), "iqr": round(pi, 4),
                       "runs": [round(x, 4) for x in parent]},
            "change": {"median": round(cm, 4), "iqr": round(ci, 4),
                       "runs": [round(x, 4) for x in change]},
            "change_vs_parent": round(cm / pm - 1, 4) if pm else None,
            "change_better_in_pairs": f"{wins}/{len(parent)}",
            "within_bound": worse <= bound * abs(pm),
            "resolved": spread <= bound or apart}


def claim(parent: list[float], change: list[float], direction: str) -> dict:
    """The gain test: the change reads better in at least WIN_SHARE of the
    pairs, and its median is better by more than the parent's IQR."""
    (pm, pi), (cm, _) = median_iqr(parent), median_iqr(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    gain = cm - pm if direction == "higher" else pm - cm
    ratios = [c / p for p, c in zip(parent, change)]
    return {"pairs": len(parent), "change_wins": wins,
            "ratio_of_medians": round(cm / pm, 4),
            "median_difference": round(cm - pm, 4),
            "parent_iqr": round(pi, 4),
            "per_pair_ratio": [round(r, 4) for r in ratios],
            "median_of_pair_ratios": round(statistics.median(ratios), 4),
            "met": wins >= WIN_SHARE * len(parent) and gain > pi}


def run(tree: Path, workload: str, seed: int, seconds: float,
        trace: int = 0) -> dict:
    """One ``perfbench/run.py`` process from the root of ``tree``: its info
    object and its result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=tree, env=env, capture_output=True, text=True,
        check=True, timeout=10 * seconds + 600)
    info, result = (json.loads(x) for x in out.stdout.splitlines()[-2:])
    shutil.rmtree(tree / ".bench_work", ignore_errors=True)
    return {**info["info"], **result}


def pair(trees: dict, index: int, *args) -> dict:
    """Both sides of one pair, the parent first on even pair indices."""
    order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
    return {side: run(trees[side], *args) for side in order}


def digest_row(p: dict) -> dict:
    row = {side: {k: p[side][k] for k in ("results_digest", "attempted",
                                          "failed", "correct")}
           for side in ("parent", "change")}
    row["digests_match"] = (p["parent"]["results_digest"]
                            == p["change"]["results_digest"])
    return row


def held_out(p: dict, seed: int, direction: str) -> dict:
    """The claim metric of one more pair, on a seed the claim did not see."""
    parent, change = (p[s]["metrics"][CLAIM_METRIC]["value"]
                      for s in ("parent", "change"))
    return {"seed": seed, "parent": round(parent, 4),
            "change": round(change, 4), "ratio": round(change / parent, 4),
            "change_better": better(change, parent, direction),
            "digests_match": digest_row(p)["digests_match"]}


def values(pairs: list[dict], side: str, metric: str) -> list[float]:
    return [p[side]["metrics"][metric]["value"] for p in pairs]


def report(bench: dict, rev: str, runs: dict, held: dict, traced: dict,
           held_seed: int | None, lines: dict) -> dict:
    """The ``BENCH_*.json`` object from the measured runs: ``runs`` maps each
    workload to its pairs in seed order, ``held`` each workload to its
    held-out pair (empty without one), ``traced`` each workload to its
    traced run on each side, and ``lines`` each side to its code lines per
    module (see ``module_lines``)."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = f"{SEEDS[0]}-{SEEDS[-1]}"
    out = {"what": "end-to-end metrics of perfbench/run.py, the parent "
                   "commit against the change, in alternated pairs",
           "host": {"python": platform.python_version(),
                    "machine": f"{platform.system()} {platform.machine()}",
                    "nproc": os.cpu_count()},
           "parent": {"commit": rev},
           "change": {"commit": "the commit that adds this file"},
           "method": {
               "command": "python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {seconds} --trace 0",
               "tool": f"tools/bench_pairs.py --parent {rev}"
                       + (f" --held-out {held_seed}" if held else ""),
               "order": f"per seed {seeds}, the workloads {workloads} in "
                        "turn, then the held-out seed the same way; the "
                        "parent runs first on even pair indices",
               "statistics": "median and IQR (inclusive quartiles); runs in "
                             "seed order; resolved is false when either "
                             "side's IQR / median exceeds the bound, unless "
                             "every change run reads better than every "
                             "parent run"}}
    end_to_end = {}
    for w in workloads:
        ps = runs[w]
        rows = {str(s): digest_row(p) for s, p in zip(SEEDS, ps)}
        end_to_end[w] = {
            "seeds": seeds,
            "per_seed": rows,
            "metrics": {name: compare(values(ps, "parent", name),
                                      values(ps, "change", name),
                                      m["better"], m["bound"])
                        for name, m in bounds.items()},
            "digests_match_per_seed": all(r["digests_match"]
                                          for r in rows.values()),
            "correct": all(p[s]["correct"] for p in ps
                           for s in ("parent", "change"))}
    direction = bounds[CLAIM_METRIC]["better"]
    out["claim"] = {}
    for w in workloads:
        ps = runs[w]
        out["claim"][w] = {"metric": CLAIM_METRIC,
                           **claim(values(ps, "parent", CLAIM_METRIC),
                                   values(ps, "change", CLAIM_METRIC),
                                   direction)}
        if w in held:
            out["claim"][w]["held_out"] = held_out(held[w], held_seed,
                                                   direction)
    totals = {side: sum(lines[side].values()) for side in lines}
    out["code_lines"] = {
        "counter": "tools/code_lines.py src/hdmcg",
        **{side: {**lines[side], "total": totals[side]} for side in lines},
        "total_change": totals["change"] - totals["parent"]}
    out["unresolved"] = [f"{w}:{name}" for w, e in end_to_end.items()
                         for name, m in e["metrics"].items()
                         if not m["resolved"]]
    out["end_to_end"] = end_to_end
    for w, t in traced.items():
        out[f"traced_{w.replace('-', '_')}_{TRACE_SEED}"] = {
            "results_digest": {s: t[s]["results_digest"] for s in t},
            "per_layer": {k: {s: round(t[s]["metrics"][k]["value"], 4)
                              for s in ("parent", "change")}
                          for k in sorted(t["parent"]["metrics"])}}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--held-out", type=int, help="one more seed for the claim")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive,
                       check=True)
        trees = {"parent": tmp, "change": ROOT}
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        index = 0
        for seed in SEEDS:
            for w in workloads:
                runs[w].append(pair(trees, index, w, seed, seconds))
                index += 1
        held = {}
        if args.held_out is not None:
            for w in workloads:
                held[w] = pair(trees, index, w, args.held_out, seconds)
                index += 1
        traced = {w: {side: run(trees[side], w, TRACE_SEED, seconds, 1)
                      for side in ("parent", "change")} for w in workloads}
        lines = {side: module_lines(tree) for side, tree in trees.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    text = json.dumps(report(bench, rev, runs, held, traced, args.held_out,
                             lines), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

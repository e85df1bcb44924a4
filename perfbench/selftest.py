"""Smoke test of the benchmark itself, at tiny sizes (about 30 seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that no operation fails on the two in-process workloads, that each
traced workload reaches the layers it exercises, that traced spans nest
inside their parents, and that two traced runs with one seed give the
same call counts and results digest.  It is not part
of the repository's test suite, so that suite's run time does not grow.
"""

import json
import subprocess
import sys
from pathlib import Path

from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
# layers each workload must reach, so that a wrapper bound too early or a
# missed namespace shows as a zero count
CALLED = {
    "cocycle-sweep": (
        "linalg.intmatrix_new", "linalg.matmul", "linalg.snf",
        "linalg.kernel_basis", "linalg.exact_signature",
        "symplectic.is_member", "symplectic.sp_inverse", "cocycles.meyer_tau",
        "cocycles.class_init", "cocycles.surface_two_cycle",
        "cocycles.signature_of_class", "cocycles.chi2_of_class"),
    "invariant-queries": (
        "linalg.snf", "linalg.cokernel_presentation", "linalg.column_basis",
        "linalg.solve_exact", "abgroups.quotient_with_projection",
        "abgroups.subgroup_iso", "abgroups.direct_sum", "cohomology.h1",
        "cohomology.fox_derivative", "cohomology.coinvariants",
        "spheres.theta_data", "spheres.boundary_of_plumbing",
        "mcg.full_report", "mcg.reproduce_table3"),
    "cli-cold": (
        "symplectic.theta_index", "cocycles.signature_of_class",
        "cocycles.chi2_of_class", "mcg.reproduce_table3",
        "verify.run_suites"),
}


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info["info"], result


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for w in spec["workloads"]:
            name = w["name"]
            info, result = run(name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} {kind}: metric names or units differ: "
                   f"{sorted(set(got) ^ set(want))}")
            expect(result["correct"], f"{name}: wrong answer "
                   f"({info['first_failure']})")
            if name != "cli-cold":
                expect(result["failed"] == 0, f"{name}: error_rate "
                       f"{info['error_rate']} ({info['first_failure']})")
            if trace:
                idle = [k for k in CALLED[name]
                        if not result["metrics"][f"{k}.calls_per_op"]["value"]]
                expect(not idle, f"{name}: layers never called: {idle}")
                tracer = Tracer()
                path = ROOT / ".bench_work" / f"spans-{name}-{SEED}.jsonl"
                with open(path, encoding="utf-8") as fh:
                    tracer.spans = [json.loads(line) for line in fh]
                expect(tracer.spans, f"{name}: no spans recorded")
                bad = tracer.nesting_errors()
                expect(not bad, f"{name}: {len(bad)} spans outside their parent")
            print(f"ok  {name} trace={trace}  {len(got)} metrics", flush=True)

    first = run("invariant-queries", 1)
    second = run("invariant-queries", 1)
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith("calls_per_op")} for _, r in (first, second)]
    expect(counts[0] == counts[1], "calls_per_op differ between traced runs")
    expect(first[0]["results_digest"] == second[0]["results_digest"],
           "results_digest differs between traced runs")
    print("ok  traced runs repeat: calls_per_op and results_digest")


if __name__ == "__main__":
    main()

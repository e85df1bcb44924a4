"""hdmcg benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload cocycle-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
measured untraced for ``--seconds`` seconds of operation time.  With
``--trace 1`` it carries the per-layer metrics of a fixed number of
rounds, so that call counts repeat exactly for one seed.  The line before
it is an ``info`` object: host speed, Python version, nproc, commit,
results digest, unscaled timings, and the 99th percentile where a run
has at least 1000 operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from workloads import HOST_LOOP_REF_S, WORKLOADS, host_loop_s

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
GROUP_S = 0.025  # operation time between two host-speed samples


def load_workload(name, seed):
    """The workload object, with ``src/`` of this checkout on sys.path."""
    sys.path.insert(0, str(ROOT / "src"))
    return WORKLOADS[name](str(ROOT), seed)


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def timed_call(fn):
    t0 = time.perf_counter()
    try:
        result, raised = fn(), False
    except Exception as exc:  # an operation failure, counted by its check
        result, raised = exc, True
    return result, raised, time.perf_counter() - t0


class Meter:
    """Times operations and rescales them to reference host speed.

    On a shared machine the speed of a core steps by up to 2x within
    seconds, with the same code running.  The workload's host-speed
    sample is taken between groups of about GROUP_S of operation time,
    and every operation of a group is scaled by the workload's reference
    time over the mean of the samples on either side of it.  Raw times
    are kept as well.
    """

    def __init__(self, wl):
        self.sample, self.ref_s = wl.speed_sample, wl.speed_ref_s
        # arrays, so that the benchmark's own memory barely grows with the
        # number of operations and peak_rss_mib stays the program's
        self.raw, self.scaled = array("d"), array("d")
        self.samples = [self.sample()]
        self._group = 0.0

    def time(self, fn):
        result, raised, dt = timed_call(fn)
        self.add(dt)
        return result, raised

    def add(self, seconds):
        self.raw.append(seconds)
        self._group += seconds
        if self._group >= GROUP_S:
            self.flush()

    def flush(self):
        if len(self.scaled) == len(self.raw):
            return
        self.samples.append(self.sample())
        scale = 2 * self.ref_s / (self.samples[-2] + self.samples[-1])
        self.scaled.extend(x * scale for x in self.raw[len(self.scaled):])
        self._group = 0.0


def setup_seconds(name, seed):
    """Median, over fresh processes, of process start to end of set-up,
    scaled by each probe's own sample of the host-speed loop."""
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"), name,
             str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            took = time.perf_counter() - t0
            calib = proc.stdout.read()
        if proc.returncode or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        times.append(took * HOST_LOOP_REF_S / float(calib))
    return statistics.median(times)


class Tally:
    """Statuses and the results digest of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_failure = None
        self.digest = hashlib.sha256()

    def record(self, op, result, raised, digest):
        status, answer = op.check(result, raised)
        self.attempted += 1
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            if self.first_failure is None:
                self.first_failure = f"{op.kind}: {status}: {answer}"[:500]
        if digest:
            line = json.dumps([op.kind, answer], sort_keys=True, default=str)
            self.digest.update(line.encode() + b"\n")


def percentiles_ms(seconds):
    q = statistics.quantiles([x * 1000.0 for x in seconds], n=100,
                             method="inclusive")
    return q[49], q[89], q[98]


def measure(wl, seconds):
    """Untraced rounds until ``seconds`` of operation time have passed."""
    tally, meter = Tally(), Meter(wl)
    rates, raw_rates, host = [], [], []
    rounds = 0
    while rounds < wl.trace_rounds or sum(meter.raw) < seconds:
        host.append(host_loop_s())
        start = len(meter.raw)
        for op in wl.make_round():
            result, raised = meter.time(op.fn)
            tally.record(op, result, raised, rounds < wl.trace_rounds)
        meter.flush()
        n = len(meter.raw) - start
        rates.append(n / sum(meter.scaled[start:]))
        raw_rates.append(n / sum(meter.raw[start:]))
        rounds += 1
    p50, p90, p99 = percentiles_ms(meter.scaled)
    metrics = {
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "fraction"),
    }
    raw = percentiles_ms(meter.raw)
    info = {"rounds": rounds,
            "latency_p99_ms": p99 if tally.attempted >= 1000 else None,
            "unscaled": {"ops_per_s": statistics.median(raw_rates),
                         "latency_p50_ms": raw[0], "latency_p90_ms": raw[1]},
            "host.calib_ms": statistics.median(host) * 1000.0,
            "host.calib_spread": max(host) / min(host)}
    return tally, metrics, info


def trace(wl):
    """``wl.trace_rounds`` rounds, each run untraced and traced on the
    same inputs."""
    from layers import Tracer

    tracer, tally = Tracer(), Tally()
    plain, traced, host = Meter(wl), Meter(wl), []
    for r in range(wl.trace_rounds):
        host.append(host_loop_s())
        ops = wl.make_round()
        if r % 2:  # alternate the order, so that host drift cancels
            for op in ops:
                plain.time(op.fn)
        done = []
        wl.begin_trace(tracer)
        for op in ops:
            tracer.op_id = tally.attempted + len(done)
            done.append((op, *traced.time(op.traced_fn)))
            wl.collect(tracer, tracer.op_id)
        wl.end_trace(tracer)
        traced.flush()
        if not r % 2:
            for op in ops:
                plain.time(op.fn)
        plain.flush()
        for op, result, raised in done:
            tally.record(op, result, raised, True)
    metrics = tracer.metrics(tally.attempted, int(sum(traced.raw) * 1e9))
    metrics.update(wl.cli_metrics())
    metrics["trace.overhead_frac"] = sum(traced.scaled) / sum(plain.scaled) - 1
    metrics["host.calib_ms"] = statistics.median(host) * 1000.0
    return tally, metrics, tracer


# unit by metric name, or else by its last part
UNITS = {
    "calls_per_op": "calls/op", "self_frac": "fraction",
    "nonzero_frac": "fraction", "hit_frac": "fraction", "mean_dim": "rows",
    "max_entry_bits": "bits", "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms", "cli.main_ms": "ms",
    "trace.overhead_frac": "fraction", "host.calib_ms": "ms",
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hdmcg" / "__init__.py").is_file():
        print(f"no hdmcg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = load_workload(args.workload, args.seed)
    import hdmcg

    if not Path(hdmcg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hdmcg imported from {hdmcg.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    # one core for this process and its children, so that the host-speed
    # loop samples the core the operations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    wl.setup()
    info = {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit()}
    if args.trace:
        tally, metrics, tracer = trace(wl)
        out = {k: {"value": v, "unit": UNITS.get(k) or UNITS[k.rsplit(".", 1)[1]]}
               for k, v in sorted(metrics.items())}
        work = ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        tracer.write_spans(work / f"spans-{args.workload}-{args.seed}.jsonl")
        info["spans"] = len(tracer.spans)
    else:
        tally, metrics, extra = measure(wl, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        rss_kib = getattr(wl, "peak_rss_kib", 0) or \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (rss_kib / 1024.0, "MiB")
        out = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
        info.update(extra)
    info.update(results_digest=tally.digest.hexdigest(),
                error_rate=tally.failed / tally.attempted,
                first_failure=tally.first_failure)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

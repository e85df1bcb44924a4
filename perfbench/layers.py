"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds each wrapper in every ``hdmcg.*`` namespace that holds the
original, because ``from .linalg import snf`` binds the name at import.
Each call records a span (name, start, end, parent span, operation id)
in memory.  ``IntMatrix`` construction and matmul only bump counters.
A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function, metric name)
TRACED = (
    ("hdmcg.linalg", "snf", "linalg.snf"),
    ("hdmcg.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("hdmcg.linalg", "exact_signature", "linalg.exact_signature"),
    ("hdmcg.linalg", "cokernel_presentation", "linalg.cokernel_presentation"),
    ("hdmcg.linalg", "column_basis", "linalg.column_basis"),
    ("hdmcg.linalg", "solve_exact", "linalg.solve_exact"),
    ("hdmcg.symplectic", "is_member", "symplectic.is_member"),
    ("hdmcg.symplectic", "sp_inverse", "symplectic.sp_inverse"),
    ("hdmcg.symplectic", "theta_index", "symplectic.theta_index"),
    ("hdmcg.cocycles", "meyer_tau", "cocycles.meyer_tau"),
    ("hdmcg.cocycles", "surface_two_cycle", "cocycles.surface_two_cycle"),
    ("hdmcg.cocycles", "signature_of_class", "cocycles.signature_of_class"),
    ("hdmcg.cocycles", "chi2_of_class", "cocycles.chi2_of_class"),
    ("hdmcg.abgroups", "quotient_with_projection",
     "abgroups.quotient_with_projection"),
    ("hdmcg.abgroups", "subgroup_iso", "abgroups.subgroup_iso"),
    ("hdmcg.abgroups", "direct_sum", "abgroups.direct_sum"),
    ("hdmcg.cohomology", "h1", "cohomology.h1"),
    ("hdmcg.cohomology", "fox_derivative", "cohomology.fox_derivative"),
    ("hdmcg.cohomology", "coinvariants", "cohomology.coinvariants"),
    ("hdmcg.spheres", "theta_data", "spheres.theta_data"),
    ("hdmcg.spheres", "boundary_of_plumbing", "spheres.boundary_of_plumbing"),
    ("hdmcg.mcg", "full_report", "mcg.full_report"),
    ("hdmcg.mcg", "reproduce_table3", "mcg.reproduce_table3"),
    ("hdmcg.verify", "run_suites", "verify.run_suites"),
)
CLASS_INIT = "cocycles.class_init"
COUNTED = ("linalg.intmatrix_new", "linalg.matmul")
SPAN_NAMES = tuple(name for _, _, name in TRACED) + (CLASS_INIT,)


def _max_bits(res):
    return max((abs(x).bit_length() for m in (res.U, res.D, res.V)
                for row in m.data for x in row), default=0)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, op_id, excluded_ns]
        self.counts = dict.fromkeys(COUNTED, 0)
        self.op_id = 0
        self.tau_nonzero = 0
        self.sig_dims = 0
        self.snf_max_bits = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------
    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0, parent, self.op_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
                # keep the bookkeeping out of the caller's self time
                if parent >= 0:
                    spans[parent][5] += clock() - rec[2]
            return result
        return wrapper

    def _after_tau(self, args, result):
        if result:
            self.tau_nonzero += 1

    def _after_signature(self, args, result):
        self.sig_dims += len(args[0].data if hasattr(args[0], "data") else args[0])

    def _after_snf(self, args, result):
        self.snf_max_bits = max(self.snf_max_bits, _max_bits(result))

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hdmcg"
                                   or mod_name.startswith("hdmcg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from hdmcg import cocycles, linalg, mcg

        after = {"cocycles.meyer_tau": self._after_tau,
                 "linalg.exact_signature": self._after_signature,
                 "linalg.snf": self._after_snf}
        for mod_name, fn_name, name in TRACED:
            original = getattr(importlib.import_module(mod_name), fn_name)
            self._rebind(original, self._span(name, original, after.get(name)))
        for cls in (cocycles.SurfaceClass, cocycles.AffineSurfaceClass):
            self._patch(cls, "__post_init__",
                        self._span(CLASS_INIT, cls.__post_init__))
        counts = self.counts
        init, mul = linalg.IntMatrix.__init__, linalg.IntMatrix.__matmul__

        def counted_init(obj, *args, **kwargs):
            counts["linalg.intmatrix_new"] += 1
            init(obj, *args, **kwargs)

        def counted_matmul(a, b):
            counts["linalg.matmul"] += 1
            return mul(a, b)

        self._patch(linalg.IntMatrix, "__init__", counted_init)
        self._patch(linalg.IntMatrix, "__matmul__", counted_matmul)
        self._cache_start = mcg.coinvariants_closed.cache_info()

    def uninstall(self):
        from hdmcg import mcg

        info = mcg.coinvariants_closed.cache_info()
        self.cache_hits += info.hits - self._cache_start.hits
        self.cache_misses += info.misses - self._cache_start.misses
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def state(self):
        """Everything needed to merge this tracer into another one."""
        return {"spans": self.spans, "counts": self.counts,
                "tau_nonzero": self.tau_nonzero, "sig_dims": self.sig_dims,
                "snf_max_bits": self.snf_max_bits,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses}

    def merge(self, state, op_id):
        """Append a child process's spans, re-tagged with ``op_id``."""
        base = len(self.spans)
        for name, start, end, parent, _, excluded in state["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1,
                               op_id, excluded])
        for k, v in state["counts"].items():
            self.counts[k] += v
        self.tau_nonzero += state["tau_nonzero"]
        self.sig_dims += state["sig_dims"]
        self.snf_max_bits = max(self.snf_max_bits, state["snf_max_bits"])
        self.cache_hits += state["cache_hits"]
        self.cache_misses += state["cache_misses"]

    def nesting_errors(self):
        """Spans that are not contained in their parent span."""
        bad = []
        for i, (name, start, end, parent, op, _) in enumerate(self.spans):
            if end < start:
                bad.append(i)
            elif parent >= 0:
                p = self.spans[parent]
                if not (parent < i and p[1] <= start and end <= p[2]
                        and p[4] == op):
                    bad.append(i)
        return bad

    def metrics(self, ops, wall_ns):
        """Per-layer metrics: calls per operation and self-time fractions."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _, excluded) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i] - excluded
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_frac"] = self_ns[name] / wall_ns if wall_ns else 0.0
        for name in COUNTED:
            out[f"{name}.calls_per_op"] = self.counts[name] / ops
        n_tau = calls["cocycles.meyer_tau"]
        out["cocycles.meyer_tau.nonzero_frac"] = (
            self.tau_nonzero / n_tau if n_tau else 0.0)
        n_sig = calls["linalg.exact_signature"]
        out["linalg.exact_signature.mean_dim"] = (
            self.sig_dims / n_sig if n_sig else 0.0)
        out["linalg.snf.max_entry_bits"] = self.snf_max_bits
        lookups = self.cache_hits + self.cache_misses
        out["mcg.coinvariants_closed.hit_frac"] = (
            self.cache_hits / lookups if lookups else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

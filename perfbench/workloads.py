"""The benchmark's three workloads.

Each workload yields rounds: a fixed schedule of operation kinds and
sizes whose inputs are drawn from the seeded generator, shuffled.  A run
always ends on a round boundary, so every run measures the same mix.
An operation is an ``Op``: ``fn`` is the timed call into the program,
``check`` judges its result against answers that do not come from the
code under test and returns ``(status, answer)``.  Status is "ok",
"wrong", or "traceback" (a malformed input that was not refused cleanly).
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from math import gcd

import gen
import reference as ref


class Op:
    __slots__ = ("kind", "fn", "check", "traced_fn")

    def __init__(self, kind, fn, check, traced_fn=None):
        self.kind, self.fn, self.check = kind, fn, check
        self.traced_fn = traced_fn or fn


def _group(x):
    return (x.rank, tuple(x.torsion))


def _value(predicate):
    """A check for a call that must return a value satisfying ``predicate``,
    which returns ``(ok, answer)``."""
    def check(result, raised):
        if raised:
            return "wrong", f"raised {type(result).__name__}: {result}"
        ok, answer = predicate(result)
        return ("ok" if ok else "wrong"), answer
    return check


def _refusal(result, raised):
    """A check for a call that must raise a ValueError with a message."""
    if raised and isinstance(result, ValueError) and str(result):
        return "ok", type(result).__name__
    return "wrong", repr(result)


HOST_LOOP = 60  # 6x6 integer matrix products
HOST_LOOP_REF_S = 0.002  # time of the host-speed loop at reference speed
_HOST_M = [[(3 * i + j) % 5 - 2 for j in range(6)] for i in range(6)]
_HOST_COLS = list(zip(*_HOST_M))


def host_loop_s():
    """A fixed pure-Python loop of small integer matrix products, the kind
    of work the package does: the host's speed as this process sees it."""
    t0 = time.perf_counter()
    m = _HOST_M
    for _ in range(HOST_LOOP):
        m = [[sum(x * y for x, y in zip(row, col)) % 7 for col in _HOST_COLS]
             for row in m]
    return time.perf_counter() - t0


class Workload:
    """Rounds of operations; tracing defaults to the in-process tracer.

    ``speed_sample`` measures the host's current speed for the kind of
    work the workload does, and ``speed_ref_s`` is its reference value;
    run.py scales operation times by their ratio.
    """

    trace_rounds = 1
    speed_ref_s = HOST_LOOP_REF_S

    def speed_sample(self):
        return host_loop_s()

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)

    def begin_trace(self, tracer):
        tracer.install()

    def end_trace(self, tracer):
        tracer.uninstall()

    def collect(self, tracer, op_id):
        """Fold what the traced operation ``op_id`` left outside the tracer."""

    def cli_metrics(self):
        return {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
                "cli.main_ms": 0.0}

    def warm_up(self, ops):
        """Run each operation once, to fill caches and finish lazy set-up.

        Outcomes are not judged here: the measured rounds run the same
        kinds of operation and their checks report any failure.
        """
        for op in ops:
            try:
                op.fn()
            except Exception:  # judged in the measured rounds
                pass


class CocycleSweep(Workload):
    """Meyer cocycle triples, surface-class signatures, affine chi^2."""

    name = "cocycle-sweep"
    trace_rounds = 2

    def setup(self):
        import hdmcg.cocycles
        import hdmcg.linalg

        self.C, self.M = hdmcg.cocycles, hdmcg.linalg.IntMatrix
        self.words = {(fam, g): gen.WordSource(fam, g)
                      for fam in ("Sp", "SpQ") for g in (2, 3, 4)}
        warm = random.Random(-1)
        self.warm_up([self._triple(warm, 2), self._norm(warm, 2),
                      self._class(warm, "SpQ", 2, 2), self._conj(warm, 2, 1),
                      self._affine(warm, 2), self._torus()])

    def make_round(self):
        rng = self.rng
        ops = []
        for g in (2, 3, 4):
            ops += [self._triple(rng, g) for _ in range(15)]
            ops += [self._norm(rng, g) for _ in range(2)]
        for fam in ("Sp", "SpQ"):
            for g in (2, 3):
                ops += [self._class(rng, fam, g, h) for h in (1, 2, 4, 8, 16)]
        ops += [self._conj(rng, g, h) for g in (2, 3) for h in (1, 2)]
        ops += [self._affine(rng, h) for h in (1, 2, 3, 4)]
        ops.append(self._torus())
        rng.shuffle(ops)
        return ops

    def _triple(self, rng, g):
        w = self.words[("Sp", g)]
        a, b, c = w.word(rng), w.word(rng), w.word(rng)
        ab, bc = gen.matmul(a, b), gen.matmul(b, c)
        C, M = self.C, self.M

        def fn():
            ma, mb, mc = M(a), M(b), M(c)
            return (C.meyer_tau(mb, mc, g), C.meyer_tau(M(ab), mc, g),
                    C.meyer_tau(ma, M(bc), g), C.meyer_tau(ma, mb, g))
        return Op(f"triple-g{g}", fn,
                  _value(lambda t: (t[0] - t[1] + t[2] - t[3] == 0, t)))

    def _norm(self, rng, g):
        a = self.words[("Sp", g)].word(rng)
        ainv, ident = gen.sp_inverse(a, g), gen.identity(2 * g)
        C, M = self.C, self.M

        def fn():
            ma, mi = M(a), M(ident)
            return (C.meyer_tau(mi, ma, g), C.meyer_tau(ma, mi, g),
                    C.meyer_tau(ma, M(ainv), g))
        return Op(f"norm-g{g}", fn, _value(lambda t: (t == (0, 0, 0), t)))

    def _class(self, rng, fam, g, h):
        pairs = gen.surface_pairs(rng, self.words[(fam, g)], h)
        C, M = self.C, self.M

        def fn():
            cls = C.SurfaceClass(g, tuple((M(a), M(b)) for a, b in pairs))
            return C.signature_of_class(cls)
        # 0 by construction (see gen.surface_pairs), so in 4Z and, for
        # theta-group classes, in 8Z
        return Op(f"class-{fam}-g{g}-h{h}", fn, _value(lambda s: (s == 0, s)))

    def _conj(self, rng, g, h):
        w = self.words[("Sp", g)]
        pairs = gen.surface_pairs(rng, w, h)
        p = w.word(rng)
        C, M = self.C, self.M

        def fn():
            cls = C.SurfaceClass(g, tuple((M(a), M(b)) for a, b in pairs))
            return (C.signature_of_class(cls),
                    C.signature_of_class(cls.conjugated(M(p))))
        return Op(f"conj-g{g}-h{h}", fn,
                  _value(lambda s: (s[0] == s[1] == 0, s)))

    def _affine(self, rng, h, g=2):
        pairs, trans, expected = gen.affine_class(rng, self.words[("Sp", g)], h)
        t = rng.choice((2, 3, -2))
        C, M = self.C, self.M

        def fn():
            cls = C.AffineSurfaceClass(
                g, tuple((M(a), M(b)) for a, b in pairs),
                tuple((tuple(v), tuple(w)) for v, w in trans))
            return (C.chi2_of_class(cls),
                    C.chi2_of_class(cls.scaled_translations(t)))
        return Op(f"affine-h{h}", fn, _value(
            lambda c: (c[0] in (expected, -expected) and c[1] == t * t * c[0],
                       c)))

    def _torus(self, g=2):
        ident = gen.identity(2 * g)
        e1 = tuple(1 if i == 0 else 0 for i in range(2 * g))
        f1 = tuple(1 if i == g else 0 for i in range(2 * g))
        C, M = self.C, self.M

        def fn():
            cls = C.AffineSurfaceClass(g, ((M(ident), M(ident)),), ((e1, f1),))
            return C.chi2_of_class(cls)
        return Op("torus", fn, _value(lambda c: (abs(c) == 2, c)))


class InvariantQueries(Workload):
    """Reports, H^1, coinvariants, sphere data and table 3: the lattice path."""

    name = "invariant-queries"
    trace_rounds = 10

    def setup(self):
        import hdmcg.abgroups
        import hdmcg.cohomology
        import hdmcg.linalg
        import hdmcg.mcg
        import hdmcg.spheres

        self.FinAbGroup = hdmcg.abgroups.FinAbGroup
        self.M = hdmcg.linalg.IntMatrix
        self.mcg, self.coh = hdmcg.mcg, hdmcg.cohomology
        self.sph = hdmcg.spheres
        self.gens = {(fam, g): gen.generators(fam, g)
                     for fam in gen.FAMILIES for g in (1, 2, 3, 4)}
        # one full round fills the coinvariants_closed cache
        self.warm_up(self._round(random.Random(-1)))

    def make_round(self):
        return self._round(self.rng)

    def _round(self, rng):
        ops = [self._report(g, n, sqo)
               for g in range(1, 9) for n in (3, 5, 7, 9)
               for sqo in (None, rng.choice((2, 4, 8)))]
        ops += [self._h1(name) for name in ref.APPENDIX]
        ops += [self._coinv(fam, g, m) for fam in gen.FAMILIES
                for g in (1, 2, 3, 4) for m in (0, 2, 4)]
        ops += [self._theta(rng, n) for n in (3, 5, 7, 9)]
        ops.append(self._table3())
        ops += [self._refuse(rng.randint(1, 4), 11),
                self._refuse(rng.randint(1, 4), rng.choice((4, 6, 8, 10))),
                self._refuse(rng.choice((0, -1, -3)), rng.choice((3, 5, 7, 9)))]
        rng.shuffle(ops)
        return ops

    def _report(self, g, n, sqo):
        mcg = self.mcg

        def fn():
            return mcg.full_report(mcg.MCGParams(g, n, sigma_q_order=sqo))

        def ok(rep):
            d = rep.splittings
            got = (d["ext4"].value, d["ext3"].value, d["kreck1"].value,
                   d["kreck2"].value, rep.haut.splits.value)
            good = (_group(rep.h1_mcg) == ref.h1_mcg(g, n)
                    and _group(rep.h1_torelli) == ref.h1_torelli(g, n)
                    and _group(rep.h1_half_mcg) == ref.h1_half_mcg(g, n)
                    and _group(rep.extension.d2_image) == ref.d2_image(g, n)
                    and got == ref.splittings(g, n)
                    and rep.provenance_flags == ())
            return good, rep.to_json_dict()
        return Op("full_report", fn, _value(ok))

    def _h1(self, name):
        ngens, relators, actions, modulus, expected = ref.APPENDIX[name]
        orders = ref.FREE_PRODUCT_ORDERS.get(name)
        coh, M = self.coh, self.M

        def fn():
            mats = tuple(M(a) for a in actions)
            got = coh.h1(coh.Presentation(ngens, relators),
                         coh.GModule(2, modulus, mats))
            oracle = (coh.h1_free_product_of_cyclics(orders, mats, modulus)
                      if orders else None)
            return got, oracle

        def ok(res):
            got, oracle = res
            good = ((expected is None or _group(got) == expected)
                    and (oracle is None or oracle == got))
            return good, _group(got)
        return Op(f"h1-{name}", fn, _value(ok))

    def _coinv(self, fam, g, m):
        gens = self.gens[(fam, g)]
        coh, M = self.coh, self.M
        want = ref.coinvariants(fam, g, m)

        def fn():
            return coh.coinvariants([M(a) for a in gens], modulus=m)
        return Op("coinvariants", fn,
                  _value(lambda x: (_group(x) == want, _group(x))))

    def _theta(self, rng, n):
        sph = self.sph
        k = rng.randint(-3, 3)
        if n % 4 == 1:
            good_inv = sph.AlmostClosedInvariants(8 * k)
            bad_inv = sph.AlmostClosedInvariants(8 * k + 4)
        else:  # n = 3, 7: (chi2 - sgn) / 8 * Sigma_Q
            s = rng.randint(-5, 5)
            good_inv = sph.AlmostClosedInvariants(s, s + 8 * k)
            bad_inv = sph.AlmostClosedInvariants(s, s + 8 * k + 3)

        def fn():
            data = sph.theta_data(n)
            el = sph.boundary_of_plumbing(good_inv, n, data)
            try:
                sph.boundary_of_plumbing(bad_inv, n, data)
                refused = False
            except ValueError:
                refused = True
            return data, el, refused, sph.minimal_signature(n)

        def ok(res):
            data, el, refused, minsig = res
            rank, tors = _group(data.theta)
            gen_el = data.sigma_p if n % 4 == 1 else data.sigma_q
            want = tuple((k * c) % d for c, d in zip(gen_el.coords, tors))
            good = ((rank, tors) == ref.THETA[n]
                    and _order(data.sigma_p.coords, tors)
                    == ref.BP_ORDER[2 * n + 2]
                    and el.coords == want and refused
                    and minsig == ref.MIN_SIGNATURE[n])
            return good, [list(el.coords), minsig]
        return Op("theta", fn, _value(ok))

    def _table3(self):
        mcg, F = self.mcg, self.FinAbGroup

        def ok(res):
            rendered, good, mismatches = res
            lines = rendered.splitlines()[1:]
            rows = [(kind, g) for kind in ("T", "Gamma") for g in range(5)]
            want = {"T": ref.h1_torelli, "Gamma": ref.h1_mcg}
            good = good and not mismatches and len(lines) == len(rows)
            for line, (kind, g) in zip(lines, rows):
                cells = re.split(r"\s{2,}", line[14:].strip())
                expect = [F(*want[kind](g, n)).describe() for n in (3, 5, 7, 9)]
                good = good and line.startswith(f"H1({kind}), g={g}") \
                    and cells == expect
            return good, rendered
        return Op("table3", lambda: mcg.reproduce_table3(), _value(ok))

    def _refuse(self, g, n):
        mcg = self.mcg

        def fn():
            return mcg.full_report(mcg.MCGParams(g, n))
        return Op("refuse", fn, _refusal)


def _order(coords, torsion):
    """Order of an element of a finite group in invariant-factor form."""
    k = 1
    for c, d in zip(coords, torsion):
        o = d // gcd(d, c)
        k = k * o // gcd(k, o)
    return k


class CliCold(Workload):
    """One fresh ``python -m hdmcg.cli`` process per operation.

    Host speed is sampled as the start of a bare interpreter, which pays
    the same process start, exec and page faults as an operation.
    """

    name = "cli-cold"
    trace_rounds = 1
    speed_ref_s = 0.040

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.work = os.path.join(root, ".bench_work")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_rss_kib = 0
        self.child_states, self.import_ms, self.main_ms = [], [], []

    def begin_trace(self, tracer):
        pass

    def end_trace(self, tracer):
        pass

    def collect(self, tracer, op_id):
        if not self.child_states:  # the child failed before writing its dump
            return
        state = self.child_states.pop()
        self.import_ms.append(state.pop("import_ms"))
        self.main_ms.append(state.pop("main_ms"))
        tracer.merge(state, op_id)

    def speed_sample(self):
        t0 = time.perf_counter()
        if self._spawn([sys.executable, "-c", "pass"])[0]:
            raise RuntimeError("bare interpreter start failed")
        return time.perf_counter() - t0

    def cli_metrics(self):
        bare = [self.speed_sample() * 1000.0 for _ in range(5)]
        return {"cli.interpreter_ms": statistics.median(bare),
                "cli.import_ms": statistics.median(self.import_ms),
                "cli.main_ms": statistics.median(self.main_ms)}

    def setup(self):
        os.makedirs(self.work, exist_ok=True)
        rng = random.Random(self.seed)
        self.sig_files = []
        for i, (fam, g, h) in enumerate((("Sp", 2, 1), ("SpQ", 2, 2),
                                         ("Sp", 3, 1), ("SpQ", 3, 2))):
            pairs = gen.surface_pairs(rng, gen.WordSource(fam, g), h)
            self.sig_files.append(self._write(f"class{i}.json", {
                "g": g, "h": h, "pairs": [[a, b] for a, b in pairs]}))
        self.chi2_files = []
        for h in (1, 2):
            pairs, trans, expected = gen.affine_class(
                rng, gen.WordSource("Sp", 2), h)
            path = self._write(f"affine{h}.json", {
                "g": 2, "h": h, "pairs": [[a, b] for a, b in pairs],
                "translations": [[v, w] for v, w in trans]})
            self.chi2_files.append((path, expected))
        self.no_pairs = self._write("no_pairs.json", {"g": 2, "h": 1})
        self.top_list = self._write("top_list.json", [{"g": 2, "h": 1}])
        self.warm_up([self._abel(rng, "mcg")])

    def _write(self, name, obj):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _spawn(self, cmd):
        """Run one child; returns (exit code, stdout, stderr)."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode(),
                    err.read().decode())

    def _op(self, kind, argv, check):
        plain = [sys.executable, "-m", "hdmcg.cli", *argv]
        dump = os.path.join(self.work, "trace.json")
        traced = [sys.executable,
                  os.path.join(self.root, "perfbench", "cli_child.py"),
                  dump, *argv]

        def traced_fn():
            if os.path.exists(dump):
                os.remove(dump)
            res = self._spawn(traced)
            with open(dump, encoding="utf-8") as fh:
                self.child_states.append(json.load(fh))
            return res
        return Op(kind, lambda: self._spawn(plain), check, traced_fn)

    def make_round(self):
        rng = self.rng
        ops = [self._abel(rng, grp) for grp in ("mcg", "torelli", "halfmcg", "gg")]
        ops += [self._splits(rng), self._theta(rng), self._table3(),
                self._boundary(rng), self._boundary_invalid(rng),
                self._signature(rng), self._chi2(rng)]
        ops += [self._op(f"verify-{suite}", ["verify", "--suite", suite],
                         _cli(_verified))
                for suite in ("tables", "appendix", "spheres")]
        ops += [self._op("malformed-file",
                         [rng.choice(("signature", "chi2")), "--file", path],
                         _cli_refusal(malformed=True))
                for path in (self.no_pairs, self.top_list)]
        ops.append(self._op("malformed-genus",
                            ["abelianization", "--g", str(-rng.randint(1, 5)),
                             "--n", str(rng.choice((5, 9))),
                             "--group", "torelli"],
                            _cli_refusal(malformed=True)))
        rng.shuffle(ops)
        return ops

    def _abel(self, rng, group):
        g, n = rng.randint(1, 4), rng.choice((3, 5, 7, 9))
        want = {"mcg": ref.h1_mcg, "torelli": ref.h1_torelli,
                "halfmcg": ref.h1_half_mcg, "gg": ref.table2}[group](g, n)
        argv = ["abelianization", "--g", str(g), "--n", str(n),
                "--group", group, "--format", "json"]
        return self._op(f"abelianization-{group}", argv,
                        _cli(lambda out: _jgroup(json.loads(out)) == want))

    def _splits(self, rng):
        g, n = rng.choice(sorted(ref.SPLIT_SPOTS))
        want = ref.SPLIT_SPOTS[(g, n)]
        return self._op("splits", ["splits", "--g", str(g), "--n", str(n)],
                        _cli(lambda out: _splits(out) == want))

    def _theta(self, rng):
        n = rng.choice((3, 5, 7, 9))
        return self._op("theta", ["theta", "--n", str(n), "--format", "json"],
                        _cli(lambda out: _jgroup(json.loads(out)["theta"])
                             == ref.THETA[n]))

    def _table3(self):
        return self._op("table3", ["table3", "--format", "json"],
                        _cli(lambda out: json.loads(out)
                             == {"ok": True, "mismatches": []}))

    def _boundary(self, rng):
        n, sgn, chi2, label = rng.choice(ref.BOUNDARY_VALID)
        return self._op("boundary", _boundary_argv(n, sgn, chi2),
                        _cli(lambda out: out.strip() == label))

    def _boundary_invalid(self, rng):
        return self._op("boundary-invalid",
                        _boundary_argv(*rng.choice(ref.BOUNDARY_INVALID)),
                        _cli_refusal(malformed=False))

    def _signature(self, rng):
        argv = ["signature", "--file", rng.choice(self.sig_files),
                "--format", "json"]
        return self._op("signature", argv,
                        _cli(lambda out: json.loads(out) == {"signature": 0}))

    def _chi2(self, rng):
        path, expected = rng.choice(self.chi2_files)
        return self._op("chi2", ["chi2", "--file", path, "--format", "json"],
                        _cli(lambda out: json.loads(out)["chi2"]
                             in (expected, -expected)))


def _boundary_argv(n, sgn, chi2):
    argv = ["boundary", "--n", str(n), "--sgn", str(sgn)]
    return argv + ([] if chi2 is None else ["--chi2", str(chi2)])


def _jgroup(d):
    return (d["rank"], tuple(d["torsion"]))


def _splits(out):
    values = {line.split(":")[0]: line.split()[1]
              for line in out.strip().splitlines()}
    return tuple(values.get(k) for k in ("ext4", "ext3", "kreck1", "kreck2"))


def _verified(out):
    lines = out.strip().splitlines()
    return (lines[-1] == "verify: all checks passed"
            and not any(line.startswith("[FAIL]") for line in lines))


def _cli(predicate):
    """Exit code 0, no stderr, and stdout satisfying ``predicate``."""
    def check(result, raised):
        if raised:
            return "wrong", repr(result)
        code, out, err = result
        try:
            good = code == 0 and not err and predicate(out)
        except (ValueError, KeyError, IndexError, TypeError):
            good = False
        return ("ok" if good else "wrong"), [code, out]
    return check


def _cli_refusal(malformed):
    """A one-line error on stderr, exit code 1 or 2, and no traceback.

    A malformed input that ends in a traceback counts as a failed
    operation but not as a wrong answer; any other miss is wrong.
    """
    def check(result, raised):
        if raised:
            return "wrong", repr(result)
        code, out, err = result
        lines = err.strip().splitlines()
        if code in (1, 2) and not out and len(lines) == 1 \
                and "Traceback" not in err:
            return "ok", [code]
        if malformed and code != 0 and "Traceback" in err:
            return "traceback", [code, lines[-1] if lines else ""]
        return "wrong", [code, out, err]
    return check


WORKLOADS = {w.name: w for w in (CocycleSweep, InvariantQueries, CliCold)}


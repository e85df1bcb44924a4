"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they go.
The randomized checks are seeded and use the full quantified counts, with
the stated wall-clock budgets asserted.
"""

import random
import time
from fractions import Fraction

from hdmcg.abgroups import FinAbGroup, direct_sum
from hdmcg.cocycles import (SurfaceClass, chi2_of_class,
                            random_affine_class, random_surface_class,
                            random_symplectic, signature_of_class, meyer_tau)
from hdmcg.cohomology import coinvariants, h1
from hdmcg.linalg import IntMatrix
from hdmcg.mcg import (coinvariants_closed, h1_Gg, haut_report,
                       reproduce_table3, s_pi_n_so, splitting_decisions)
from hdmcg.spheres import (AlmostClosedInvariants, bernoulli,
                           boundary_of_plumbing, bp_order, theta_data)
from hdmcg.symplectic import GroupFamily, standard_generators, theta_index
from hdmcg.verify import (PSP2_PRESENTATION, PSP2Q_PRESENTATION,
                          SP2_PRESENTATION, SP2Q_PRESENTATION, sp2_module,
                          sp2q_module)
from hdmcg.cohomology import abelianization


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_01_table3():
    t0 = time.monotonic()
    _, ok, mismatches = reproduce_table3()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(1, ok, f"16 cells x 2 tables, {elapsed:.2f}s")
    assert ok, mismatches + [f"elapsed {elapsed:.2f}s"]


def test_criterion_02_tables_1_and_2():
    t1 = {0: FinAbGroup(0, (2, 2)), 1: FinAbGroup.cyclic(2),
          2: FinAbGroup.cyclic(2), 3: FinAbGroup.free(1),
          4: FinAbGroup.cyclic(2), 5: FinAbGroup.trivial(),
          6: FinAbGroup.cyclic(2), 7: FinAbGroup.free(1)}
    ok = all(s_pi_n_so(n) == t1[n % 8] for n in range(8, 16)) \
        and all(s_pi_n_so(n) == t1[n % 8] for n in (3, 4, 5, 7)) \
        and s_pi_n_so(6).is_trivial
    rows = {(1, 3): FinAbGroup.cyclic(12), (2, 3): FinAbGroup.cyclic(2),
            (3, 3): FinAbGroup.trivial(), (1, 7): FinAbGroup.cyclic(12),
            (2, 7): FinAbGroup.cyclic(2), (5, 7): FinAbGroup.trivial(),
            (1, 5): FinAbGroup(1, (4,)), (2, 5): FinAbGroup(0, (2, 4)),
            (3, 5): FinAbGroup.cyclic(4), (1, 9): FinAbGroup(1, (4,)),
            (2, 9): FinAbGroup(0, (2, 4)), (4, 9): FinAbGroup.cyclic(4)}
    ok = ok and all(h1_Gg(g, n) == v for (g, n), v in rows.items())
    # small-genus values recomputed from presentations through the SNF engine
    ok = ok and abelianization(SP2_PRESENTATION) == FinAbGroup.cyclic(12)
    ok = ok and abelianization(SP2Q_PRESENTATION) == FinAbGroup(1, (4,))
    _report(2, ok)
    assert ok


def test_criterion_03_coinvariants():
    t0 = time.monotonic()
    mism = []
    for g in (1, 2, 3):
        for n in (3, 5, 7, 8, 9, 11, 13, 14):
            closed = coinvariants_closed(g, n)
            module = s_pi_n_so(n)
            if n % 2 == 0:
                fam = GroupFamily.OGG
            elif n in (3, 7):
                fam = GroupFamily.SP
            else:
                fam = GroupFamily.SPQ
            gens = standard_generators(fam, g)
            parts = [coinvariants(gens, modulus=0)] * module.rank \
                + [coinvariants(gens, modulus=d) for d in module.torsion]
            matrix_value = direct_sum(parts) if parts else FinAbGroup.trivial()
            if matrix_value != closed:
                mism.append((g, n, closed.describe(), matrix_value.describe()))
    elapsed = time.monotonic() - t0
    ok = not mism and elapsed < 10.0
    _report(3, ok, f"24 cases, {elapsed:.2f}s")
    assert ok, mism


def test_criterion_04_theta_index():
    ok = all(theta_index(g) == 2 ** (2 * g - 1) + 2 ** (g - 1)
             for g in range(1, 6))
    ok = ok and theta_index(2) == 10
    _report(4, ok, "enumeration over F_2^{2g}, g <= 5")
    assert ok


def test_criterion_05_appendix_cohomology():
    got = {
        "H1(theta group; Z^2)": h1(SP2Q_PRESENTATION, sp2q_module()),
        "H1(symplectic group; Z^2)": h1(SP2_PRESENTATION, sp2_module()),
        "H1(projective symplectic; F_2^2)": h1(PSP2_PRESENTATION, sp2_module(2)),
        "H1(projective theta; F_2^2)": h1(PSP2Q_PRESENTATION, sp2q_module(2)),
    }
    # PSp_2(Z) = Z/2 * Z/3 acts on F_2^2 through SL_2(F_2) = S_3.  The free
    # product sequence 0 -> M^G -> M^{Z/2} + M^{Z/3} -> M -> H^1(G) -> 0 has
    # M^G = 0, M^{Z/2} = F_2, M^{Z/3} = 0, so H^1 = F_2^2 / F_2 = Z/2; by
    # enumeration |Z^1| = 8, |B^1| = 4.  The value 0 belongs to the finite
    # quotient Sp_2(F_2) = S_3 (|Z^1| = |B^1| = 4), not to PSp_2(Z).
    stated = {
        "H1(theta group; Z^2)": FinAbGroup.cyclic(2),
        "H1(symplectic group; Z^2)": FinAbGroup.trivial(),
        "H1(projective symplectic; F_2^2)": FinAbGroup.cyclic(2),
        "H1(projective theta; F_2^2)": FinAbGroup(0, (2, 2)),
    }
    mism = [f"{k}: computed {got[k].describe()}, stated {stated[k].describe()}"
            for k in stated if got[k] != stated[k]]
    _report(5, not mism, "; ".join(mism))
    assert not mism, mism


def test_criterion_06_bp_orders_and_bernoulli():
    ok = (bp_order(8), bp_order(12), bp_order(16), bp_order(20)) \
        == (28, 992, 8128, 261632)

    def is_prime(p):
        return p >= 2 and all(p % q for q in range(2, p))

    for k in range(1, 13):
        den = 1
        for p in range(2, 2 * k + 2):
            if is_prime(p) and (2 * k) % (p - 1) == 0:
                den *= p
        ok = ok and bernoulli(k).denominator == den
    ok = ok and bernoulli(1) == Fraction(1, 6)
    _report(6, ok)
    assert ok


def test_criterion_07_boundary_formula():
    ok = True
    details = []
    # the two plumbings and the projective planes, in both exceptional
    # dimensions and one n = 1 mod 4 dimension
    d3, d7, d5 = theta_data(3), theta_data(7), theta_data(5)
    checks = [
        (AlmostClosedInvariants(8, 0), 3, d3, d3.sigma_p),
        (AlmostClosedInvariants(0, 8), 3, d3, d3.sigma_q),
        (AlmostClosedInvariants(1, 1), 3, d3, d3.theta.zero()),
        (AlmostClosedInvariants(8, 0), 7, d7, d7.sigma_p),
        (AlmostClosedInvariants(0, 8), 7, d7, d7.sigma_q),
        (AlmostClosedInvariants(1, 1), 7, d7, d7.theta.zero()),
        (AlmostClosedInvariants(8, None), 5, d5, d5.sigma_p),
        (AlmostClosedInvariants(0, None), 5, d5, d5.theta.zero()),
    ]
    for inv, n, data, want in checks:
        got = boundary_of_plumbing(inv, n, data)
        if got != want:
            ok = False
            details.append(f"(sgn={inv.sgn}, chi2={inv.chi2}, n={n})")
    for inv, n in [(AlmostClosedInvariants(4, None), 5),
                   (AlmostClosedInvariants(0, 1), 3),
                   (AlmostClosedInvariants(8, 0), 5),
                   (AlmostClosedInvariants(3, None), 9)]:
        try:
            boundary_of_plumbing(inv, n)
            ok = False
            details.append(f"unrejected (sgn={inv.sgn}, chi2={inv.chi2}, n={n})")
        except ValueError:
            pass
    _report(7, ok, "; ".join(details))
    assert ok, details


def test_criterion_08_cocycle_properties():
    t0 = time.monotonic()
    rng = random.Random(0)
    failures = []
    for g in (2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        ident = IntMatrix.identity(2 * g)
        for i in range(1000):
            a = random_symplectic(g, rng, gens, max_length=6)
            b = random_symplectic(g, rng, gens, max_length=6)
            c = random_symplectic(g, rng, gens, max_length=6)
            if (meyer_tau(b, c, g) - meyer_tau(a @ b, c, g)
                    + meyer_tau(a, b @ c, g) - meyer_tau(a, b, g)) != 0:
                failures.append(f"cocycle identity g={g} trial {i}")
                break
            if i < 150 and (meyer_tau(ident, a, g) or meyer_tau(a, ident, g)):
                failures.append(f"normalization g={g}")
                break
    gens2 = standard_generators(GroupFamily.SP, 2)
    qgens2 = standard_generators(GroupFamily.SPQ, 2)
    num_q = 0
    for i in range(200):
        use_q = i % 5 < 2
        cls = random_surface_class(2, rng.choice([1, 2, 3]), rng,
                                   qgens2 if use_q else gens2)
        s = signature_of_class(cls)
        if s % 4:
            failures.append(f"class {i}: signature {s} not in 4Z")
            break
        if cls.all_in_theta_group():
            num_q += 1
            if s % 8:
                failures.append(f"theta class {i}: signature {s} not in 8Z")
                break
    if num_q < 50:
        failures.append(f"only {num_q} theta-group classes sampled")
    for i in range(50):
        cls = random_surface_class(2, 2, rng, gens2)
        p = random_symplectic(2, rng, gens2)
        if signature_of_class(cls) != signature_of_class(cls.conjugated(p)):
            failures.append(f"conjugation invariance broken at {i}")
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(8, not failures,
            f"2000 triples + 200 classes + 50 conjugations, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_09_chi2():
    rng = random.Random(1)
    ident = IntMatrix.identity(2)
    torus = SurfaceClass(1, ((ident, ident),), (((1, 0), (0, 1)),))
    ok = abs(chi2_of_class(torus)) == 2
    gens = standard_generators(GroupFamily.SP, 2)
    for i in range(100):
        cls = random_affine_class(2, rng.choice([1, 2, 3]), rng, gens)
        base = chi2_of_class(cls)
        t = rng.choice([2, 3, -2, 5])
        if chi2_of_class(cls.scaled_translations(t)) != t * t * base:
            ok = False
            break
    _report(9, ok, "torus value +-2 and quadratic scaling on 100 classes")
    assert ok


def test_criterion_10_splitting_matrix():
    # twelve spot checks covering every clause, incl. the (1, 7) unknown
    expected = {
        (1, 5): ("yes", "yes", "yes", "yes", "yes"),
        (2, 5): ("yes", "no", "no", "yes", "yes"),
        (3, 9): ("yes", "no", "no", "yes", "yes"),
        (1, 9): ("yes", "yes", "yes", "yes", "yes"),
        (1, 3): ("yes", "no", "no", "no", "yes"),
        (2, 3): ("no", "no", "no", "no", "no"),
        (1, 7): ("yes", "no", "unknown", "no", "yes"),
        (2, 7): ("no", "no", "no", "no", "no"),
        (3, 7): ("no", "no", "no", "no", "no"),
        (1, 11): ("yes", "no", "yes", "no", "yes"),
        (2, 11): ("yes", "no", "no", "no", "yes"),
        (4, 13): ("yes", "no", "no", "yes", "yes"),
    }
    bad = []
    for (g, n), want in expected.items():
        d = splitting_decisions(g, n)
        got = (d["ext4"].value, d["ext3"].value, d["kreck1"].value,
               d["kreck2"].value, haut_report(g, n).splits.value)
        if got != want:
            bad.append(f"(g={g}, n={n}): got {got}, want {want}")
    ok = not bad and len(expected) == 12
    _report(10, ok, "; ".join(bad))
    assert ok, bad

"""Embedded verification suites behind the ``verify`` CLI verb.

Each check returns (name, ok, detail).  The randomized cocycle checks are
driven by an explicit seed so failures are reproducible.  Counts here are
sized for an interactive run; the pytest acceptance suite runs the full
quantified versions.  A suite imports the ``mcg``, ``symplectic`` and
``cocycles`` names it uses itself, so ``verify --suite spheres`` never
loads the cocycle path.
"""

from __future__ import annotations

from fractions import Fraction

from . import reference as ref
from .abgroups import FinAbGroup, element_order
from .cases import divided
from .cohomology import Presentation, GModule, abelianization, h1, \
    h1_free_product_of_cyclics
from .linalg import IntMatrix
from .spheres import (AlmostClosedInvariants, bernoulli, boundary_of_plumbing,
                      bp_order, describe_theta_element, minimal_signature,
                      omega_tau, theta_data)

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


# the four matrices of the small presentations
_S = IntMatrix([[0, -1], [1, 0]])
_T = IntMatrix([[0, -1], [1, 1]])
_R = IntMatrix([[1, 2], [0, 1]])

SP2_PRESENTATION = Presentation(2, ((1, 1, 1, 1), (1, 1, -2, -2, -2)))
SP2Q_PRESENTATION = Presentation(2, ((1, 1, 1, 1), (1, 1, 2, -1, -1, -2)))
PSP2_PRESENTATION = Presentation(2, ((1, 1), (2, 2, 2)))
PSP2Q_PRESENTATION = Presentation(2, ((1, 1),))


def sp2_module(modulus: int = 0) -> GModule:
    return GModule(2, modulus, (_S, _T))


def sp2q_module(modulus: int = 0) -> GModule:
    return GModule(2, modulus, (_S, _R))


def suite_tables() -> list[Check]:
    from .mcg import h1_Gg, reproduce_table3, s_pi_n_so, splitting_decisions

    checks: list[Check] = []
    ok = all(s_pi_n_so(n) == v for n, v in ref.TABLE1.items())
    checks.append(_check("table1-lookup", ok, "residues 3..15 incl. n=6"))

    ok = all(h1_Gg(g, n) == v for (g, n), v in ref.TABLE2.items())
    checks.append(_check("table2-lookup", ok, ""))

    a1 = abelianization(SP2_PRESENTATION)
    a2 = abelianization(SP2Q_PRESENTATION)
    checks.append(_check(
        "table2-presentations",
        a1 == ref.TABLE2[1, 3] and a2 == ref.TABLE2[1, 5],
        f"got {a1.describe()} and {a2.describe()}"))

    _, ok, mismatches = reproduce_table3()
    checks.append(_check("table3-reproduction", ok, "; ".join(mismatches)))

    bad = []
    for (g, n), want in ref.SPLITTING.items():
        d = splitting_decisions(g, n)
        got = (d["ext4"].value, d["ext3"].value, d["kreck1"].value,
               d["kreck2"].value)
        if got != want:
            bad.append(f"(g={g}, n={n}): {got}")
    checks.append(_check("splitting-decision-matrix", not bad, "; ".join(bad)))
    return checks


def suite_appendix() -> list[Check]:
    from .mcg import coinvariants_closed
    from .symplectic import theta_index

    checks: list[Check] = []
    bad = []
    for g in (1, 2, 3):
        for n in (3, 5, 7, 8, 9, 11, 13, 14):
            try:
                coinvariants_closed(g, n)
            except RuntimeError as exc:
                bad.append(str(exc))
    checks.append(_check("coinvariants-closed-vs-generators", not bad,
                         "; ".join(bad) or "24 cases cross-checked"))

    ok = all(theta_index(g) == 2 ** (2 * g - 1) + 2 ** (g - 1)
             for g in range(1, 6)) and theta_index(2) == 10
    checks.append(_check("theta-characteristic-count", ok, "g <= 5, g=2 gives 10"))

    got_q = h1(SP2Q_PRESENTATION, sp2q_module())
    got_sp = h1(SP2_PRESENTATION, sp2_module())
    checks.append(_check(
        "h1-integral-coefficients",
        got_q == FinAbGroup.cyclic(2) and got_sp == FinAbGroup.trivial(),
        f"theta group: {got_q.describe()}, symplectic group: {got_sp.describe()}"))

    got_pq = h1(PSP2Q_PRESENTATION, sp2q_module(2))
    oracle_pq = h1_free_product_of_cyclics((2, 0), (_S, _R), 2)
    checks.append(_check(
        "h1-projective-theta",
        got_pq == FinAbGroup(0, (2, 2)) and oracle_pq == got_pq,
        f"got {got_pq.describe()}"))

    got_p = h1(PSP2_PRESENTATION, sp2_module(2))
    oracle_p = h1_free_product_of_cyclics((2, 3), (_S, _T), 2)
    checks.append(_check(
        "h1-projective-symplectic-crosscheck",
        got_p == FinAbGroup.cyclic(2) and oracle_p == got_p,
        f"got {got_p.describe()}, free-product route "
        f"{oracle_p.describe()}; 0 is the value for Sp_2(F_2), not PSp_2(Z)"))
    return checks


def suite_spheres() -> list[Check]:
    checks: list[Check] = []

    def primes_dividing(two_k):
        out = []
        for p in range(2, two_k + 2):
            if all(p % q for q in range(2, p)) and two_k % (p - 1) == 0:
                out.append(p)
        return out

    ok = bernoulli(1) == Fraction(1, 6) and bernoulli(5) == Fraction(5, 66)
    for k in range(1, 13):
        den = 1
        for p in primes_dividing(2 * k):
            den *= p
        ok = ok and bernoulli(k).denominator == den
    checks.append(_check("bernoulli-von-staudt-clausen", ok, "k <= 12"))

    ok = all(bp_order(d) == v for d, v in ref.BP_ORDER.items())
    checks.append(_check("bp-orders", ok, ""))

    bad = []
    for n, want in ref.THETA.items():
        data = theta_data(n)
        if data.theta != want:
            bad.append(f"theta({n}) = {data.theta.describe()}")
        if element_order(data.sigma_p) != bp_order(2 * n + 2):
            bad.append(f"Sigma_P order wrong at n={n}")
        if n in (3, 7) and data.sigma_q != -data.sigma_p:
            bad.append(f"Sigma_Q placement wrong at n={n}")
        if n % 4 == 1 and not data.sigma_q.is_zero:
            bad.append(f"Sigma_Q should vanish at n={n}")
    checks.append(_check("theta-assembly", not bad, "; ".join(bad)))

    ok = all(omega_tau(n) == v for n, v in ref.OMEGA.items())
    checks.append(_check("omega-tau", ok, ""))

    ok = all(minimal_signature(n) == v for n, v in ref.MIN_SIGNATURE.items())
    checks.append(_check("minimal-signature", ok, ""))

    bad = []
    cases = [
        (AlmostClosedInvariants(8, 0), 7, "Sigma_P"),
        (AlmostClosedInvariants(0, 8), 7, "Sigma_Q"),
        (AlmostClosedInvariants(1, 1), 3, "0"),
        (AlmostClosedInvariants(8, None), 5, "Sigma_P"),
        (AlmostClosedInvariants(0, 8), 3, "Sigma_Q"),
    ]
    for inv, n, want in cases:
        data = theta_data(n)
        el = boundary_of_plumbing(inv, n, data)
        name = describe_theta_element(el, data)
        if name != want:
            bad.append(f"(sgn={inv.sgn}, chi2={inv.chi2}, n={n}) -> {name}")
    for inv, n in [(AlmostClosedInvariants(4, None), 5),
                   (AlmostClosedInvariants(0, 1), 3),
                   (AlmostClosedInvariants(3, 0), 7)]:
        try:
            boundary_of_plumbing(inv, n)
            bad.append(f"(sgn={inv.sgn}, chi2={inv.chi2}, n={n}) not rejected")
        except ValueError:
            pass
    checks.append(_check("plumbing-boundaries", not bad, "; ".join(bad)))
    return checks


def suite_cocycles(seed: int = 0) -> list[Check]:
    import random

    from .cocycles import (SurfaceClass, beta_is_symmetric_on_kernel,
                           chi2_of_class, divided_eval, meyer_tau,
                           random_affine_class, random_surface_class,
                           random_symplectic, signature_of_class, sp_power,
                           surface_two_cycle)
    from .symplectic import GroupFamily, sp_inverse, standard_generators

    rng = random.Random(seed)
    checks: list[Check] = []

    # normalization and the cocycle identity, in two genera
    bad = []
    for g in (2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        ident = IntMatrix.identity(2 * g)
        for _ in range(250):
            a = random_symplectic(g, rng, gens)
            b = random_symplectic(g, rng, gens)
            c = random_symplectic(g, rng, gens)
            if meyer_tau(ident, a, g) or meyer_tau(a, ident, g):
                bad.append(f"normalization fails at g={g}")
                break
            if meyer_tau(a, sp_inverse(a, g), g):
                bad.append(f"tau(A, A^-1) != 0 at g={g}")
                break
            if (meyer_tau(b, c, g) - meyer_tau(a @ b, c, g)
                    + meyer_tau(a, b @ c, g) - meyer_tau(a, b, g)):
                bad.append(f"cocycle identity fails at g={g}")
                break
    checks.append(_check("meyer-cocycle-identity", not bad, "; ".join(bad)))

    g = 2
    gens = standard_generators(GroupFamily.SP, g)
    ok = all(beta_is_symmetric_on_kernel(random_symplectic(g, rng, gens),
                                         random_symplectic(g, rng, gens), g)
             for _ in range(30))
    checks.append(_check("meyer-form-symmetric", ok, "convention self-check"))

    bad = []
    qgens = standard_generators(GroupFamily.SPQ, g)
    for _ in range(60):
        cls = random_surface_class(g, rng.choice([1, 2, 3]), rng, gens)
        s = signature_of_class(cls)
        if s % 4:
            bad.append(f"signature {s} not divisible by 4")
            break
        qcls = random_surface_class(g, 2, rng, qgens)
        try:
            divided("sgn/8", signature_of_class(qcls), None)
        except ValueError as exc:
            bad.append(f"theta-group {exc}")
            break
    checks.append(_check("class-signature-divisibility", not bad, "; ".join(bad)))

    bad = []
    for _ in range(12):
        cls = random_surface_class(g, 2, rng, gens)
        p = random_symplectic(g, rng, gens)
        if signature_of_class(cls) != signature_of_class(cls.conjugated(p)):
            bad.append("conjugation changes the signature")
            break
    checks.append(_check("class-signature-conjugation", not bad, "; ".join(bad)))

    # the Maslov route of signature_of_class against Meyer's tau summed
    # over the 2-cycle, which checks beta's symmetry on all of each V
    bad = []
    two = random.Random(seed)
    for g2 in (2, 3):
        for fam in (GroupFamily.SP, GroupFamily.SPQ):
            fgens = standard_generators(fam, g2)
            for _ in range(8):
                cls = random_surface_class(g2, two.choice([1, 2, 3]), two,
                                           fgens)
                t = cls.table
                meyer = sum(c * meyer_tau(t[i], t[j], g2)
                            for i, j, c in surface_two_cycle(cls))
                if signature_of_class(cls) != meyer:
                    bad.append(f"Maslov and Meyer routes differ at g={g2}")
                    break
    checks.append(_check("class-signature-two-routes", not bad,
                         "; ".join(bad)))

    # torus class with commuting holonomies
    bad = []
    for _ in range(10):
        a = random_symplectic(g, rng, gens)
        b = sp_power(a, rng.choice([-2, -1, 0, 1, 2]), g)
        if signature_of_class(SurfaceClass(g, ((a, b),))):
            bad.append("commuting torus class has nonzero signature")
            break
    checks.append(_check("torus-classes-vanish", not bad, "; ".join(bad)))

    # chi^2: the torus generator evaluates to +-2 and scales quadratically
    n2 = 2 * g
    e1 = tuple(1 if i == 0 else 0 for i in range(n2))
    f1 = tuple(1 if i == g else 0 for i in range(n2))
    ident = IntMatrix.identity(n2)
    torus = SurfaceClass(g, ((ident, ident),), ((e1, f1),))
    val = chi2_of_class(torus)
    checks.append(_check("chi2-torus-generator", abs(val) == 2, f"value {val}"))

    bad = []
    for _ in range(40):
        cls = random_affine_class(g, rng.choice([1, 2, 3]), rng, gens)
        base = chi2_of_class(cls)
        t = rng.choice([2, 3, -2])
        if chi2_of_class(cls.scaled_translations(t)) != t * t * base:
            bad.append("quadratic scaling fails")
            break
    checks.append(_check("chi2-quadratic-scaling", not bad, "; ".join(bad)))

    half = divided_eval("chi2/2", torus)
    ok = abs(half) == 1
    bad = [] if ok else [f"chi2/2 torus value {half}"]
    for _ in range(15):
        cls = random_affine_class(1, 2, rng, standard_generators(
            GroupFamily.SP, 1)).scaled_translations(2)
        try:
            divided_eval("(chi2-sgn)/8", cls)
        except ValueError as exc:
            bad.append(str(exc))
            break
    checks.append(_check("divided-classes", not bad, "; ".join(bad)))
    return checks


SUITES = {
    "tables": lambda seed: suite_tables(),
    "appendix": lambda seed: suite_appendix(),
    "spheres": lambda seed: suite_spheres(),
    "cocycles": lambda seed: suite_cocycles(seed),
}


def run_suites(names, seed: int = 0) -> list[Check]:
    out: list[Check] = []
    for name in names:
        out.extend(SUITES[name](seed))
    return out

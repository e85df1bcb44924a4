import random
import re
from itertools import product
from pathlib import Path

import pytest

from hdmcg.abgroups import FinAbGroup
from hdmcg.cohomology import (GModule, Presentation, abelianization,
                              coinvariants, fox_derivative, h1, h1_by_lattice,
                              h1_free_product_of_cyclics, invariants)
import hdmcg.linalg
from hdmcg.cocycles import load_class_file, random_surface_class
from hdmcg.linalg import (IntMatrix, cokernel_presentation, column_basis,
                          hstack, kernel_basis, solve_exact, vstack)
from hdmcg.symplectic import GroupFamily, standard_generators
from hdmcg.verify import (PSP2_PRESENTATION, PSP2Q_PRESENTATION,
                          SP2_PRESENTATION, SP2Q_PRESENTATION, sp2_module,
                          sp2q_module, _R, _S, _T)

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(2, ((3,),))
    with pytest.raises(ValueError):
        Presentation(2, ((0,),))
    p = Presentation(2, ())
    assert abelianization(p) == FinAbGroup.free(2)


def test_fox_derivative_basics():
    m = GModule(2, 0, (_S, _T))
    ident, zero = IntMatrix.identity(2), IntMatrix.zeros(2, 2)
    assert fox_derivative((1,), m) == (hstack(ident, zero), _S)
    assert fox_derivative((1, 1), m) == (hstack(ident + _S, zero), _S @ _S)
    # d(x^-1)/dx = -rho(x^-1)
    t_inv = m.action(-2)
    assert fox_derivative((-2,), m) == (hstack(zero, -t_inv), t_inv)
    # commutator with trivial action differentiates to zero
    triv = GModule(2, 0, (ident, ident))
    assert fox_derivative((1, 2, -1, -2), triv) == (IntMatrix.zeros(2, 4),
                                                    ident)
    assert fox_derivative((), m) == (IntMatrix.zeros(2, 4), ident)


def per_generator_fox(word, generator_index, module):
    """dw/dx_i alone, by its own walk over the word: the per-generator
    route, kept here as the oracle for the one-walk Fox row."""
    d = module.dimension
    total = IntMatrix.zeros(d, d)
    prefix = IntMatrix.identity(d)
    for letter in word:
        if letter == generator_index:
            total = total + prefix
        elif letter == -generator_index:
            total = total - module.reduce(prefix @ module.action(letter))
        prefix = module.reduce(prefix @ module.action(letter))
    return module.reduce(total)


def random_module(rng, modulus):
    """A module of dimension 1-3 on 1-3 generators, each action L D U with
    L, U unitriangular and D a diagonal of signs, so invertible over Z."""
    k, d = rng.randint(1, 3), rng.randint(1, 3)

    def unitriangular(lower):
        return IntMatrix([[1 if i == j else rng.randint(-2, 2)
                           if (i > j) == lower else 0
                           for j in range(d)] for i in range(d)])

    return GModule(d, modulus, [
        unitriangular(True)
        @ IntMatrix.diagonal([rng.choice((1, -1)) for _ in range(d)])
        @ unitriangular(False) for _ in range(k)])


def test_fox_row_matches_the_per_generator_walk():
    rng = random.Random(20)
    inverse_letters = empty_words = 0
    for modulus in (0, 2, 3, 4):
        for case in range(100):
            module = random_module(rng, modulus)
            k = len(module.actions)
            word = () if case % 10 == 0 else tuple(
                rng.choice((1, -1)) * rng.randint(1, k)
                for _ in range(rng.randint(1, 8)))
            inverse_letters += sum(1 for x in word if x < 0)
            empty_words += not word
            row, action = fox_derivative(word, module)
            assert row == hstack(*[per_generator_fox(word, i, module)
                                   for i in range(1, k + 1)])
            walked = IntMatrix.identity(module.dimension)
            for letter in word:
                walked = module.reduce(walked @ module.action(letter))
            assert action == walked, (modulus, word)
    assert empty_words == 40 and inverse_letters > 500


def test_abelianization_examples():
    assert abelianization(SP2_PRESENTATION) == FinAbGroup.cyclic(12)
    assert abelianization(SP2Q_PRESENTATION) == FinAbGroup(1, (4,))
    assert abelianization(Presentation(2, ())) == FinAbGroup.free(2)


def test_module_checks_relators():
    bad = GModule(2, 0, (_T, _R))  # T does not have order 4
    with pytest.raises(ValueError, match=re.escape(
            "action does not satisfy the relator (1, 1, 1, 1)")):
        h1(SP2Q_PRESENTATION, bad)
    # x^4 = 1 holds, but x^2 = diag(-1, -1, 1) does not commute with y
    x = IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    y = IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match=re.escape(
            "action does not satisfy the relator (1, 1, 2, -1, -1, -2)")):
        h1(SP2Q_PRESENTATION, GModule(3, 0, (x, y)))
    with pytest.raises(ValueError, match="one action matrix per generator"):
        h1(SP2Q_PRESENTATION, GModule(2, 0, (_S,)))


def test_every_relator_holds_over_z_mod_one():
    """Over Z/1 every matrix is 0, the identity included, so the empty
    relator holds as well as (1, -1), and H^1 is trivial."""
    module = GModule(1, 1, (IntMatrix([[1]]),))
    for relators in (((),), ((1, -1),)):
        assert h1(Presentation(1, relators), module) == FinAbGroup.trivial()
    assert fox_derivative((), module) == (IntMatrix.zeros(1, 1),
                                          IntMatrix.zeros(1, 1))
    # over Z and Z/m with m > 1 the empty word still acts as the identity
    for modulus in (0, 2, 5):
        module = GModule(1, modulus, (IntMatrix([[1]]),))
        assert fox_derivative((), module)[1] == IntMatrix.identity(1)
        assert h1(Presentation(1, ((),)), module) == \
            (FinAbGroup.free(1) if modulus == 0 else FinAbGroup.cyclic(modulus))


def test_module_rejects_singular_actions():
    with pytest.raises(ValueError):
        GModule(2, 0, (IntMatrix([[2, 0], [0, 1]]),))  # det 2, no Z-inverse
    with pytest.raises(ValueError):
        GModule(2, 2, (IntMatrix([[1, 1], [1, 1]]),))  # singular mod 2
    GModule(2, 3, (IntMatrix([[2, 0], [0, 1]]),))  # fine mod 3


def test_h1_free_group():
    p = Presentation(1, ())
    m = GModule(2, 0, (IntMatrix.identity(2),))
    assert h1(p, m) == FinAbGroup.free(2)


def surface_relator(h):
    """a1 b1 a1^-1 b1^-1 ... ah bh ah^-1 bh^-1 on generators 1..2h."""
    return tuple(x for j in range(1, 2 * h, 2) for x in (j, j + 1, -j, -j - 1))


def test_h1_of_surface_groups_has_the_euler_characteristic_rank():
    """Over Q, dim H^1 = -chi(Sigma_h) dim M + dim H^0 + dim H^2, and
    H^2 = H_0 has the dimension of the invariants by duality, as the
    module is symplectic: rank = 2g(2h - 2) + 2 rank(invariants)."""
    rng = random.Random(21)
    for g in (1, 2):
        for family in (GroupFamily.SP, GroupFamily.SPQ):
            gens = standard_generators(family, g)
            for _ in range(8):
                h = rng.randint(1, 3)
                cls = random_surface_class(g, h, rng, gens)
                holonomies = [x for pair in cls.pairs for x in pair]
                got = h1(Presentation(2 * h, (surface_relator(h),)),
                         GModule(2 * g, 0, holonomies))
                assert got.rank == 2 * g * (2 * h - 2) \
                    + 2 * invariants(holonomies).rank, (g, h)
        for h in (1, 2, 3):
            trivial = [IntMatrix.identity(2 * g)] * (2 * h)
            got = h1(Presentation(2 * h, (surface_relator(h),)),
                     GModule(2 * g, 0, trivial))
            assert got == FinAbGroup.free(4 * g * h)


def _surface_module(cls):
    """The surface group of a class and its holonomy module over Z."""
    return (Presentation(2 * cls.h, (surface_relator(cls.h),)),
            GModule(2 * cls.g, 0, [x for pair in cls.pairs for x in pair]))


def test_h1_over_z_equals_the_lattice_route():
    """The rank-and-cokernel answer over Z against the subquotient
    Z^1/B^1, on the Sp_2(Z) presentations, random surface classes, some
    with torsion, and a cyclic group acting by a matrix of finite order."""
    cases = [(SP2_PRESENTATION, sp2_module()),
             (SP2Q_PRESENTATION, sp2q_module()),
             (Presentation(1, ((1,) * 4,)), GModule(2, 0, (_S,))),
             (Presentation(1, ((1,) * 6,)), GModule(2, 0, (_T,)))]
    rng = random.Random(33)
    for g in (1, 2):
        for family in (GroupFamily.SP, GroupFamily.SPQ):
            gens = standard_generators(family, g)
            for _ in range(4):
                cases.append(_surface_module(
                    random_surface_class(g, rng.randint(1, 3), rng, gens)))
    answers = []
    for pres, module in cases:
        answers.append(h1(pres, module))
        assert answers[-1] == h1_by_lattice(pres, module), pres
    assert any(group.torsion for group in answers)


@pytest.mark.parametrize("name, rank", [("nonzero.json", 472),
                                        ("theta_nonzero.json", 996)])
def test_h1_over_z_of_the_committed_classes(name, rank):
    """H^1 of the surface group (h = 60 and h = 84) with coefficients in
    Z^4 and Z^6 through the holonomies is free: Z^472 and Z^996.  The
    lattice route, a Smith form of a 480 x 480 system, checks the first."""
    pres, module = _surface_module(load_class_file(str(EXAMPLES / name)))
    assert h1(pres, module) == FinAbGroup.free(rank)
    if rank == 472:
        assert h1_by_lattice(pres, module) == FinAbGroup.free(rank)


def test_h1_integral_values():
    assert h1(SP2Q_PRESENTATION, sp2q_module()) == FinAbGroup.cyclic(2)
    assert h1(SP2_PRESENTATION, sp2_module()) == FinAbGroup.trivial()


def test_h1_mod_two_values():
    assert h1(PSP2Q_PRESENTATION, sp2q_module(2)) == FinAbGroup(0, (2, 2))
    assert h1(PSP2_PRESENTATION, sp2_module(2)) == FinAbGroup.cyclic(2)


def brute_force_h1_f2(relators, actions):
    """Crossed homomorphisms on two generators over F_2^2 by enumeration."""
    def act(mat, v):
        return tuple(sum(a * b for a, b in zip(row, v)) % 2 for row in mat.data)

    def inv2(mat):
        # all our F_2 action matrices are involutions or satisfy A^3 = 1;
        # find the inverse by search over powers
        p = mat
        for _ in range(6):
            if (p @ mat).mod(2) == IntMatrix.identity(2).mod(2):
                return (p).mod(2)
            p = (p @ mat).mod(2)
        raise AssertionError("no inverse found")

    vecs = list(product((0, 1), repeat=2))
    cocycles = []
    for u1 in vecs:
        for u2 in vecs:
            vals = {1: u1, 2: u2}

            def u_of_word(word):
                total = (0, 0)
                prefix = IntMatrix.identity(2)
                for letter in word:
                    base = actions[abs(letter) - 1].mod(2)
                    if letter > 0:
                        contrib = vals[letter]
                        step = base
                    else:
                        step = inv2(base)
                        contrib = tuple((-x) % 2 for x in act(step, vals[-letter]))
                    total = tuple((t + c) % 2
                                  for t, c in zip(total, act(prefix, contrib)))
                    prefix = (prefix @ step).mod(2)
                return total

            if all(u_of_word(w) == (0, 0) for w in relators):
                cocycles.append((u1, u2))
    principals = set()
    for m in vecs:
        principals.add(tuple(
            tuple((x - y) % 2 for x, y in zip(act(a.mod(2), m), m))
            for a in actions))
    return len(cocycles), len(principals)


def test_h1_mod_two_against_enumeration():
    for pres, mod in ((PSP2_PRESENTATION, sp2_module(2)),
                      (PSP2Q_PRESENTATION, sp2q_module(2))):
        z, b = brute_force_h1_f2(pres.relators, mod.actions)
        computed = h1(pres, mod)
        assert computed.order() == z // b


def test_h1_cyclic_against_norm_oracle():
    # <a | a^k> with H^1 = ker(N)/im(a - 1), N the norm sum, over Z/m
    rng = random.Random(0)
    cases = 0
    while cases < 25:
        m = rng.choice([2, 3, 4])
        dim = rng.randint(1, 4)
        mat = IntMatrix([[rng.randint(0, m - 1) for _ in range(dim)]
                         for _ in range(dim)])
        k = rng.randint(1, 6)
        power = IntMatrix.identity(dim)
        for _ in range(k):
            power = (power @ mat).mod(m)
        if power != IntMatrix.identity(dim).mod(m):
            continue
        try:
            module = GModule(dim, m, (mat,))
        except ValueError:
            continue
        cases += 1
        pres = Presentation(1, ((1,) * k,))
        computed = h1(pres, module)
        # enumeration oracle over (Z/m)^dim
        vecs = list(product(range(m), repeat=dim))
        norm = IntMatrix.zeros(dim, dim)
        p = IntMatrix.identity(dim)
        for _ in range(k):
            norm = (norm + p).mod(m)
            p = (p @ mat).mod(m)
        z = sum(1 for v in vecs
                if all(x % m == 0 for x in norm.mult_vec(v)))
        ident = IntMatrix.identity(dim)
        b = len({tuple(x % m for x in (mat - ident).mult_vec(v))
                 for v in vecs})
        assert computed.order() == z // b


def test_h1_torsion_killed_by_central_minus_one():
    # -1 acts through the square of S; all torsion must be 2-torsion
    for pres, mod in ((SP2_PRESENTATION, sp2_module()),
                      (SP2Q_PRESENTATION, sp2q_module())):
        g = h1(pres, mod)
        assert all(d == 2 for d in g.torsion)


def test_free_product_oracle_matches_fox():
    assert h1_free_product_of_cyclics((2, 3), (_S, _T), 2) \
        == h1(PSP2_PRESENTATION, sp2_module(2))
    assert h1_free_product_of_cyclics((2, 0), (_S, _R), 2) \
        == h1(PSP2Q_PRESENTATION, sp2q_module(2))


def test_coinvariants_examples():
    spq1 = standard_generators(GroupFamily.SPQ, 1)
    assert coinvariants(spq1) == FinAbGroup.cyclic(2)
    spq2 = standard_generators(GroupFamily.SPQ, 2)
    assert coinvariants(spq2).is_trivial
    sp1 = standard_generators(GroupFamily.SP, 1)
    assert coinvariants(sp1).is_trivial
    ogg1 = standard_generators(GroupFamily.OGG, 1)
    assert coinvariants(ogg1, modulus=2) == FinAbGroup.cyclic(2)


def test_coinvariants_insensitive_to_order_and_products():
    rng = random.Random(1)
    gens = standard_generators(GroupFamily.SPQ, 2)
    base = coinvariants(gens)
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        extra = shuffled[0] @ shuffled[rng.randrange(len(shuffled))]
        assert coinvariants(shuffled + [extra]) == base


def test_invariants_examples():
    ident = IntMatrix.identity(4)
    assert invariants([ident]) == FinAbGroup.free(4)
    assert invariants([ident], modulus=3) == FinAbGroup(0, (3, 3, 3, 3))
    spq1 = standard_generators(GroupFamily.SPQ, 1)
    assert invariants(spq1).is_trivial
    assert invariants(spq1, modulus=2) == FinAbGroup.cyclic(2)


def test_mismatched_generator_sizes_rejected():
    with pytest.raises(ValueError):
        coinvariants([IntMatrix.identity(2), IntMatrix.identity(4)])


def test_h1_reuses_the_module_inverses(monkeypatch):
    """The module keeps the inverses its constructor computes, so the word
    walks of ``h1`` run no SNF for negative letters: over Z, ``h1`` of each
    Sp_2(Z) presentation takes 2 SNFs (the cokernel of the principal map
    and the rank of the Fox rows), none of them for an inverse."""
    snf = hdmcg.linalg.snf
    calls = []

    def counted(m):
        calls.append(m)
        return snf(m)

    for pres, module, want in ((SP2_PRESENTATION, sp2_module(), 1),
                               (SP2Q_PRESENTATION, sp2q_module(), 2)):
        monkeypatch.setattr(hdmcg.linalg, "snf", counted)
        calls.clear()
        got = h1(pres, module)
        monkeypatch.setattr(hdmcg.linalg, "snf", snf)
        assert got == FinAbGroup.cyclic(want) and len(calls) == 2
        for k, a in enumerate(module.actions, start=1):
            assert module.action(-k) @ a == IntMatrix.identity(2)


def test_h1_and_coinvariants_build_no_public_matrices(monkeypatch):
    """With the module and the generators built beforehand, ``h1`` and
    ``coinvariants`` build every matrix through the trusted ``_of``: none
    of them reaches the coercing public constructor."""
    psp2, sp2 = sp2_module(2), sp2_module()
    ogg = [standard_generators(GroupFamily.OGG, g) for g in (1, 2, 3)]
    calls = []
    init = IntMatrix.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counted)
    assert h1(PSP2_PRESENTATION, psp2) == FinAbGroup.cyclic(2)
    assert h1(SP2_PRESENTATION, sp2).is_trivial
    assert [coinvariants(gens, modulus=4) for gens in ogg] == [
        FinAbGroup.cyclic(2), FinAbGroup.trivial(), FinAbGroup.trivial()]
    assert calls == []


def test_invariants_equal_the_solve_and_cokernel_route():
    """Over Z and Z/m, ``invariants`` equals the cokernel of the solve
    against a column basis of the kernel, also where the kernel over Z is
    not 0."""
    free_ranks = []
    for family in GroupFamily:
        for g in (1, 2, 3):
            gens = standard_generators(family, g)[:2]  # leaves fixed vectors
            ident = IntMatrix.identity(2 * g)
            for modulus in (0, 2, 3):
                k = kernel_basis(vstack(*[x - ident for x in gens]), modulus)
                bottom = ident.scaled(modulus) if modulus \
                    else IntMatrix.zeros(2 * g, 0)
                want = cokernel_presentation(
                    solve_exact(column_basis(k), bottom))[0]
                got = invariants(gens, modulus)
                assert got == want, (family, g, modulus)
                if modulus == 0:
                    free_ranks.append(got.rank)
    assert max(free_ranks) > 0  # the kernel over Z is not always 0


_REFUSED_MODULI = [(-2, "modulus must be 0 (= Z) or positive"),
                   (-3, "modulus must be 0 (= Z) or positive"),
                   (True, "the modulus must be an integer, got True"),
                   (2.0, "the modulus must be an integer, got 2.0")]


@pytest.mark.parametrize("modulus, message", _REFUSED_MODULI,
                         ids=["-2", "-3", "True", "2.0"])
def test_every_coefficient_ring_refuses_the_same_moduli(modulus, message):
    """One rule for the coefficient ring: ``kernel_basis``, ``GModule``,
    ``coinvariants`` and ``inverse_mod`` all refuse a negative modulus and
    one that is not an integer, with the same line."""
    for build in (lambda: kernel_basis(_S, modulus),
                  lambda: GModule(2, modulus, (_S,)),
                  lambda: coinvariants([_S], modulus=modulus),
                  lambda: hdmcg.linalg.inverse_mod(_S, modulus)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_the_positive_moduli_still_answer():
    """``coinvariants`` once answered Z/2 at modulus -2 as here at 2, and
    ``inverse_mod`` gave [[0, -2], [-1, 0]] mod -3 for this inverse."""
    assert coinvariants([_S], modulus=2) == FinAbGroup.cyclic(2)
    assert hdmcg.linalg.inverse_mod(_S, 3) == IntMatrix([[0, 1], [2, 0]])


@pytest.mark.parametrize("orders, actions", [((), ()), ((2, 3), (_S,)),
                                             ((2,), (_S, _T))],
                         ids=["empty", "fewer-actions", "fewer-orders"])
def test_free_product_oracle_refuses_malformed_input(orders, actions):
    """No factor at all, or orders and matrices that do not pair up, is one
    ValueError, not an IndexError or a silently dropped factor."""
    with pytest.raises(ValueError, match="^need one order per action"):
        h1_free_product_of_cyclics(orders, actions, 2)


def test_free_product_oracle_keeps_finite_coefficients():
    for modulus in (0, -2):
        with pytest.raises(ValueError, match="finite coefficients"):
            h1_free_product_of_cyclics((2, 3), (_S, _T), modulus)


@pytest.mark.parametrize("orders, message", [
    ((-1,), "a factor's order must be 0 (infinite) or positive"),
    ((1,), "a factor of order 1 needs its matrix A to satisfy A^1 = I mod 2"),
    ((3,), "a factor of order 3 needs its matrix A to satisfy A^3 = I mod 2"),
    ((2.5,), "the factor orders must hold integers, got (2.5,)"),
    ((True,), "the factor orders must hold integers, got (True,)"),
    (2, "the factor orders must hold integers, got 2"),
], ids=["negative", "order-1", "order-3", "float", "bool", "not-a-list"])
def test_free_product_oracle_checks_its_orders(orders, message):
    """S has order 2 mod 2.  An order of -1 once answered Z/2, an order of
    1 failed with an unrelated "no integral solution", and 2.5 raised
    TypeError."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        h1_free_product_of_cyclics(orders, (_S,), 2)


@pytest.mark.parametrize("actions, message", [
    (([[0, 1], [1, 0]],), "generators must be integer matrices"),
    ((IntMatrix([[1, 2, 3]]),), "generators must be square matrices of "
                                "equal size"),
    (_S, "need one order per action matrix, and at least one"),
], ids=["list", "not-square", "not-a-tuple"])
def test_free_product_oracle_checks_its_matrices(actions, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        h1_free_product_of_cyclics((2,), actions, 2)


def test_free_product_oracle_answers_a_valid_order():
    """S mod 2 swaps the two coordinates, so F_2^2 is the free module of
    Z/2 and H^1 vanishes; over Z/1 every group is 0."""
    assert h1_free_product_of_cyclics((2,), (_S,), 2) == FinAbGroup.trivial()
    assert h1_free_product_of_cyclics((1, 0), (_S, _T), 1) \
        == FinAbGroup.trivial()

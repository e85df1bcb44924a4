import random
from itertools import product

import pytest

from hdmcg.abgroups import FinAbGroup
from hdmcg.cohomology import (GModule, Presentation, abelianization,
                              coinvariants, fox_derivative, h1,
                              h1_free_product_of_cyclics, invariants)
import hdmcg.linalg
from hdmcg.linalg import (IntMatrix, cokernel_presentation, column_basis,
                          kernel_basis, solve_exact, vstack)
from hdmcg.symplectic import GroupFamily, standard_generators
from hdmcg.verify import (PSP2_PRESENTATION, PSP2Q_PRESENTATION,
                          SP2_PRESENTATION, SP2Q_PRESENTATION, sp2_module,
                          sp2q_module, _R, _S, _T)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(2, ((3,),))
    with pytest.raises(ValueError):
        Presentation(2, ((0,),))
    p = Presentation(2, ())
    assert abelianization(p) == FinAbGroup.free(2)


def test_fox_derivative_basics():
    m = GModule(2, 0, (_S, _T))
    ident = IntMatrix.identity(2)
    assert fox_derivative((1,), 1, m) == ident
    assert fox_derivative((1, 1), 1, m) == ident + _S
    # commutator with trivial action differentiates to zero
    triv = GModule(2, 0, (ident, ident))
    assert fox_derivative((1, 2, -1, -2), 1, triv) == IntMatrix.zeros(2, 2)
    assert fox_derivative((1, 2, -1, -2), 2, triv) == IntMatrix.zeros(2, 2)


def test_abelianization_examples():
    assert abelianization(SP2_PRESENTATION) == FinAbGroup.cyclic(12)
    assert abelianization(SP2Q_PRESENTATION) == FinAbGroup(1, (4,))
    assert abelianization(Presentation(2, ())) == FinAbGroup.free(2)


def test_module_checks_relators():
    bad = GModule(2, 0, (_T, _R))  # T does not have order 4
    with pytest.raises(ValueError):
        h1(SP2Q_PRESENTATION, bad)
    with pytest.raises(ValueError):
        h1(SP2Q_PRESENTATION, GModule(2, 0, (_S,)))


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
    Sp_2(Z) presentation takes 4 SNFs, none of them for an inverse."""
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
        assert got == FinAbGroup.cyclic(want) and len(calls) == 4
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


def test_invariants_over_z_skip_the_solve(monkeypatch):
    """A subquotient by 0 is free on the basis: over Z ``invariants`` runs
    two SNFs (kernel and column basis), and every answer equals the one the
    solve-and-cokernel route gives."""
    calls = []
    snf = hdmcg.linalg.snf

    def counted(m):
        calls.append(m)
        return snf(m)

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
                monkeypatch.setattr(hdmcg.linalg, "snf", counted)
                calls.clear()
                got = invariants(gens, modulus)
                monkeypatch.setattr(hdmcg.linalg, "snf", snf)
                assert got == want, (family, g, modulus)
                if modulus == 0:
                    assert len(calls) == 2
                    free_ranks.append(got.rank)
    assert max(free_ranks) > 0  # the kernel over Z is not always 0

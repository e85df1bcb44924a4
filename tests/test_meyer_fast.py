"""The integer Meyer-cocycle path against independent reference routines.

The reference evaluator here is the textbook construction: an integral
kernel basis from the Smith normal form, the Meyer form evaluated entry by
entry, and a signature from a Fraction LDL^T decomposition.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hdmcg.cocycles import (meyer_tau, random_surface_class,
                            random_symplectic, signature_of_class,
                            surface_two_cycle)
from hdmcg.linalg import (IntMatrix, exact_signature, hstack, kernel_basis,
                          rational_kernel, snf)
from hdmcg.symplectic import (GroupFamily, is_member, j_matrix, sp_inverse,
                              standard_generators)


def fraction_signature(rows) -> int:
    """Signature by Fraction LDL^T with symmetric pivoting."""
    a = [[Fraction(x) for x in r] for r in rows]
    sig = 0
    while a:
        p = next((i for i in range(len(a)) if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(len(a))
                         for j in range(i + 1, len(a)) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for r in a:
                r[i] += r[j]
            continue
        piv = a.pop(p)
        d = piv.pop(p)
        sig += 1 if d > 0 else -1
        col = [r.pop(p) for r in a]
        a = [[x - c * y / d for x, y in zip(r, piv)] for r, c in zip(a, col)]
    return sig


def old_sp_inverse(a: IntMatrix, g: int) -> IntMatrix:
    j = j_matrix(g, -1)
    return -j @ a.transpose() @ j


def reference_tau(a: IntMatrix, b: IntMatrix, g: int) -> int:
    n = 2 * g
    ident = IntMatrix.identity(n)
    v = kernel_basis(hstack(old_sp_inverse(a, g) - ident, b - ident))
    jib = j_matrix(g, -1) @ (ident - b)
    cols = v.columns()
    # beta(u1, u2) = (x1 + y1)^T . J(1 - B) . y2
    z = [[u[i] + u[n + i] for i in range(n)] for u in cols]
    w = [jib.mult_vec(u[n:]) for u in cols]
    beta = [[sum(p * q for p, q in zip(zi, wj)) for wj in w] for zi in z]
    k = len(cols)
    return fraction_signature([[beta[i][j] + beta[j][i] for j in range(k)]
                               for i in range(k)])


def test_meyer_matches_reference_evaluator():
    rng = random.Random(2024)
    nonzero = 0
    for i in range(1000):
        g = 1 + i % 4
        fam = (GroupFamily.SP, GroupFamily.SPQ)[(i // 4) % 2]
        gens = standard_generators(fam, g)
        a = random_symplectic(g, rng, gens, max_length=5)
        kind = i % 10
        if kind == 0:
            b = IntMatrix.identity(2 * g)
        elif kind == 1:
            a, b = IntMatrix.identity(2 * g), a
        elif kind == 2:
            b = sp_inverse(a, g)
        else:
            b = random_symplectic(g, rng, gens, max_length=5)
        want = reference_tau(a, b, g)
        assert meyer_tau(a, b, g) == want, (g, a, b)
        nonzero += want != 0
    assert nonzero > 100  # the sample is not all structural zeros


def test_class_signature_matches_reference_sum():
    rng = random.Random(2025)
    for g in (1, 2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        for h in (1, 2, 3):
            cls = random_surface_class(g, h, rng, gens)
            want = sum(c * reference_tau(a, b, g)
                       for a, b, c in surface_two_cycle(cls).terms)
            assert signature_of_class(cls) == want


def symmetric(draw_entry):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, 5))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(draw_entry)
        return m
    return build()


small_ints = st.integers(-6, 6)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=100, deadline=None)
@given(symmetric(small_ints))
def test_signature_matches_fraction_reference_int(m):
    assert exact_signature(m) == fraction_signature(m)
    assert exact_signature(IntMatrix(m, cols=len(m))) == fraction_signature(m)


@settings(max_examples=100, deadline=None)
@given(symmetric(small_fractions))
def test_signature_matches_fraction_reference_fraction(m):
    assert exact_signature(m) == fraction_signature(m)


@settings(max_examples=100, deadline=None)
@given(symmetric(st.one_of(small_ints, small_fractions)),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(-3, 3)), max_size=8))
def test_signature_congruence_and_negation(m, ops):
    n = len(m)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in ops:
        if i < n and j < n and i != j:  # column j += k * column i
            for r in p:
                r[j] += k * r[i]
    moved = [[sum(p[k][i] * m[k][t] * p[t][j]
                  for k in range(n) for t in range(n))
              for j in range(n)] for i in range(n)]
    sig = exact_signature(m)
    assert exact_signature(moved) == sig
    assert exact_signature([[-x for x in r] for r in m]) == -sig


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda r: st.integers(0, 7).flatmap(
    lambda c: st.lists(st.lists(small_ints, min_size=c, max_size=c),
                       min_size=r, max_size=r).map(
        lambda rows: IntMatrix(rows, cols=c)))))
def test_rational_kernel(m):
    k = rational_kernel(m)
    assert k.rows == m.cols
    for v in k.columns():
        assert not any(m.mult_vec(v))
    rank = sum(1 for d in snf(m).diagonal() if d)
    assert k.cols == m.cols - rank
    assert sum(1 for d in snf(k).diagonal() if d) == k.cols  # independent


def test_sp_inverse_is_the_old_formula():
    rng = random.Random(7)
    for g in (1, 2, 3, 4):
        for _ in range(25):
            a = IntMatrix([[rng.randint(-4, 4) for _ in range(2 * g)]
                           for _ in range(2 * g)])
            assert sp_inverse(a, g) == old_sp_inverse(a, g)
    with pytest.raises(ValueError):
        sp_inverse(IntMatrix.identity(3), 2)


def test_is_member_still_rejects():
    for fam in (GroupFamily.SP, GroupFamily.SPQ):
        assert not is_member(fam, IntMatrix.identity(4).scaled(2), 2)
        with pytest.raises(ValueError):
            is_member(fam, IntMatrix.identity(3), 2)

"""The integer Meyer-cocycle path against independent reference routines.

The reference evaluator here is the textbook construction: an integral
kernel basis from the Smith normal form, the Meyer form evaluated entry by
entry, and a signature from a Fraction LDL^T decomposition.
"""

import random
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import matmul

import pytest
from hypothesis import given, settings, strategies as st

from hdmcg.cocycles import (AffineSurfaceClass, _kernel_columns, _meyer_form,
                            _tau, meyer_tau, random_affine_class,
                            random_surface_class, random_symplectic,
                            signature_of_class, surface_two_cycle)
from hdmcg.linalg import (IntMatrix, exact_signature, hstack, kernel_basis,
                          snf)
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


def kashiwara_tau(a: IntMatrix, b: IntMatrix, g: int) -> int:
    """Meyer's tau(A, B) as the Kashiwara index of the graphs of I, A and AB
    in (V + V, omega + -omega): the signature of the symmetric 6g x 6g
    matrix with zero diagonal blocks and off-diagonal blocks
    N_ij = J - A_i^T J A_j, N_ji = N_ij^T (Lion-Vergne; Cappell-Lee-Miller,
    CPAM 47, 1994).  No kernel is formed."""
    n = 2 * g
    j = j_matrix(g, -1)
    mats = (IntMatrix.identity(n), a, a @ b)
    big = [[0] * (3 * n) for _ in range(3 * n)]
    for i, k in ((0, 1), (1, 2), (2, 0)):
        block = j - mats[i].transpose() @ j @ mats[k]
        for r, row in enumerate(block.to_lists()):
            for c, x in enumerate(row):
                big[i * n + r][k * n + c] = big[k * n + c][i * n + r] = x
    return exact_signature(IntMatrix(big, cols=3 * n))


def test_meyer_matches_the_kashiwara_index():
    rng = random.Random(2026)
    nonzero = 0
    for i in range(80):
        g = 1 + i % 4
        fam = (GroupFamily.SP, GroupFamily.SPQ)[(i // 4) % 2]
        gens = standard_generators(fam, g)
        a = random_symplectic(g, rng, gens)
        b = random_symplectic(g, rng, gens)
        want = kashiwara_tau(a, b, g)
        assert _tau(a, b, g) == want, (g, a, b)
        nonzero += want != 0
    assert nonzero >= 20  # the sample is not all structural zeros


def transvection(v, k: int, g: int) -> IntMatrix:
    """T_v^k: x -> x + k omega(v, x) v, with omega(v, x) = v^T J x."""
    vvj = IntMatrix.from_columns([v]) @ IntMatrix([v]) @ j_matrix(g, -1)
    return IntMatrix.identity(2 * g) + vvj.scaled(k)


def block_embedded(m: IntMatrix, h: int, g: int) -> IntMatrix:
    """A genus-h matrix on the coordinates e_1..e_h, f_1..f_h of genus g,
    the identity on the rest."""
    idx = list(range(h)) + list(range(g, g + h))
    rows = IntMatrix.identity(2 * g).to_lists()
    for r, i in enumerate(idx):
        for c, j in enumerate(idx):
            rows[i][j] = m.data[r][c]
    return IntMatrix(rows)


def transvection_pair(rng, g: int):
    """Two words in transvections along fewer than 2g vectors: A - 1 and
    B - 1 both map into the span of those vectors."""
    n = 2 * g
    vecs = [[rng.randint(-1, 1) for _ in range(n)]
            for _ in range(rng.randint(1, n - 1))]
    vecs = [v for v in vecs if any(v)] or [[1] + [0] * (n - 1)]

    def word():
        return reduce(matmul, [transvection(rng.choice(vecs),
                                            rng.choice((-2, -1, 1, 2)), g)
                               for _ in range(rng.randint(1, 5))])
    return word(), word()


def sub_block_pair(rng, g: int):
    """Two words that fix a symplectic sub-block of genus h < g, conjugated
    by one random symplectic matrix."""
    h = rng.randint(1, g - 1)
    gens = standard_generators(GroupFamily.SP, h)
    p = random_symplectic(g, rng, standard_generators(GroupFamily.SP, g))
    pinv = sp_inverse(p, g)
    return tuple(p @ block_embedded(random_symplectic(h, rng, gens), h, g)
                 @ pinv for _ in range(2))


@lru_cache(maxsize=None)
def degenerate_sample() -> tuple:
    """240 seeded Meyer terms (A, B, g) at g = 1..4 with
    rank [A^-1 - 1 | B - 1] < 2g, none of them a skipped term: transvection
    words at every g, alternating with sub-block words at g >= 2."""
    rng = random.Random(2027)
    out = []
    i = 0
    while len(out) < 240:
        g = 1 + i % 4
        i += 1
        pair = transvection_pair if g == 1 or i % 2 else sub_block_pair
        a, b = pair(rng, g)
        if IntMatrix.identity(2 * g) in (a, b) or b == sp_inverse(a, g):
            continue
        assert is_member(GroupFamily.SP, a, g)
        assert is_member(GroupFamily.SP, b, g)
        out.append((a, b, g))
    return tuple(out)


def test_degenerate_meyer_terms():
    """Terms whose form has dimension > 2g, against both oracles."""
    degenerate, nonzero, genera = 0, 0, set()
    for a, b, g in degenerate_sample():
        dim = _meyer_form(sp_inverse(a, g), b, g).rows
        assert dim >= 2 * g
        want = reference_tau(a, b, g)
        assert _tau(a, b, g) == want == kashiwara_tau(a, b, g), (g, a, b)
        if dim > 2 * g:
            degenerate += 1
            genera.add(g)
        nonzero += want != 0
    assert degenerate >= 100 and nonzero >= 20, (degenerate, nonzero)
    assert genera == {1, 2, 3, 4}


def test_class_signature_matches_reference_sum():
    rng = random.Random(2025)
    for g in (1, 2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        for h in (1, 2, 3):
            cls = random_surface_class(g, h, rng, gens)
            want = sum(c * reference_tau(a, b, g)
                       for a, b, c in surface_two_cycle(cls).terms)
            assert signature_of_class(cls) == want


def symmetric(draw_entry, max_n=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(draw_entry)
        return m
    return build()


small_ints = st.integers(-6, 6)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def cleared(m) -> IntMatrix:
    """The rational matrix m times the lcm of its denominators, a positive
    factor that leaves the signature unchanged."""
    den = lcm(*(Fraction(x).denominator for r in m for x in r))
    return IntMatrix([[int(x * den) for x in r] for r in m], cols=len(m))


@settings(max_examples=100, deadline=None)
@given(symmetric(small_ints))
def test_signature_matches_fraction_reference_int(m):
    assert exact_signature(IntMatrix(m, cols=len(m))) == fraction_signature(m)


@settings(max_examples=100, deadline=None)
@given(symmetric(small_fractions))
def test_signature_matches_fraction_reference_fraction(m):
    assert exact_signature(cleared(m)) == fraction_signature(m)


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
    sig = exact_signature(cleared(m))
    assert exact_signature(cleared(moved)) == sig
    assert exact_signature(cleared([[-x for x in r] for r in m])) == -sig


def berkowitz(m) -> list[int]:
    """Coefficients of det(x I - M), leading 1 first, by Berkowitz's
    division-free recursion: M = [[a, R], [C, S]] gives the Toeplitz column
    1, -a, -R C, -R S C, ..., -R S^(n-2) C applied to the polynomial of S."""
    n = len(m)
    if n == 0:
        return [1]
    row, sub = m[0][1:], [r[1:] for r in m[1:]]
    t, v = [1, -m[0][0]], [r[0] for r in m[1:]]
    for _ in range(n - 1):
        t.append(-sum(x * y for x, y in zip(row, v)))
        v = [sum(x * y for x, y in zip(r, v)) for r in sub]
    inner = berkowitz(sub)
    return [sum(t[i - j] * inner[j] for j in range(min(i + 1, n)))
            for i in range(n + 1)]


def descartes_signature(m) -> int:
    """Positive minus negative roots of the characteristic polynomial of a
    symmetric M: all its roots are real, so Descartes' rule counts them
    exactly, as the sign changes of p(x) and of p(-x)."""
    coeffs = berkowitz([list(r) for r in m])
    n = len(coeffs) - 1

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(coeffs) - changes([c * (-1) ** (n - i)
                                      for i, c in enumerate(coeffs)])


def test_berkowitz_is_the_characteristic_polynomial():
    assert berkowitz([[2, 1], [1, 3]]) == [1, -5, 5]
    assert berkowitz([[1, 2, 0], [0, 3, 0], [0, 0, -1]]) == [1, -3, -1, 3]
    assert descartes_signature([[0, 1], [1, 0]]) == 0
    assert descartes_signature([[0, 0], [0, -4]]) == -1


@settings(max_examples=150, deadline=None)
@given(symmetric(small_ints, max_n=8))
def test_signature_matches_the_descartes_oracle(m):
    assert exact_signature(IntMatrix(m, cols=len(m))) == \
        descartes_signature(m)


def test_degenerate_forms_match_the_descartes_oracle():
    for a, b, g in degenerate_sample():
        form = _meyer_form(sp_inverse(a, g), b, g)
        assert exact_signature(form) == descartes_signature(form.data)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda r: st.integers(0, 7).flatmap(
    lambda c: st.lists(st.lists(small_ints, min_size=c, max_size=c),
                       min_size=r, max_size=r).map(
        lambda rows: IntMatrix(rows, cols=c)))))
def test_rational_kernel(m):
    """The elimination behind the Meyer form: a primitive basis of ker(M)
    over Q, left in the caller's row lists."""
    rows = [list(r) for r in m.data]
    cols = _kernel_columns(rows[:], m.cols)
    assert rows == m.to_lists()  # the rows themselves are not changed
    k = IntMatrix.from_columns(cols, rows=m.cols)
    assert k.rows == m.cols
    for v in k.columns():
        assert not any(m.mult_vec(v))
    rank = sum(1 for d in snf(m).diagonal() if d)
    assert k.cols == m.cols - rank
    assert sum(1 for d in snf(k).diagonal() if d) == k.cols  # independent
    assert all(gcd(*v) == 1 for v in k.columns())  # primitive


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


def test_is_member_matches_the_product_definition():
    """The column-pair test against A^T J A == J formed with products, and
    the q test against q(A e_i) computed column by column."""
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for i in range(2400):
        g = 1 + i % 4
        n = 2 * g
        gens = standard_generators((GroupFamily.SP, GroupFamily.SPQ)[i % 3 == 0],
                                   g)
        a = random_symplectic(g, rng, gens, max_length=6)
        if i % 2:  # change one entry
            rows = a.to_lists()
            rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-2, -1, 1))
            a = IntMatrix(rows)
        j = j_matrix(g, -1)
        in_sp = a.transpose() @ j @ a == j
        in_spq = in_sp and all(
            sum(c[k] * c[g + k] for k in range(g)) % 2 == 0
            for c in a.columns())
        assert is_member(GroupFamily.SP, a, g) == in_sp, a
        assert is_member(GroupFamily.SPQ, a, g) == in_spq, a
        seen[in_sp] += 1
        seen[in_spq] += 1
    assert min(seen.values()) > 500  # both outcomes are well represented


def _terms_from_pairs(g, pairs, translations=None):
    """The canonical 2-cycle rebuilt from the pairs alone."""
    n = 2 * g
    if translations is None:
        elements = [(a, b) for a, b in pairs]
        ident = IntMatrix.identity(n)

        def mul(x, y):
            return x @ y

        def inv(x):
            return sp_inverse(x, g)
    else:
        elements = [((v, a), (w, b))
                    for (a, b), (v, w) in zip(pairs, translations)]
        ident = ((0,) * n, IntMatrix.identity(n))

        def mul(x, y):
            return (tuple(p + q for p, q in zip(x[0], x[1].mult_vec(y[0]))),
                    x[1] @ y[1])

        def inv(x):
            ainv = sp_inverse(x[1], g)
            return (tuple(-t for t in ainv.mult_vec(x[0])), ainv)
    letters = []
    for x, y in elements:
        letters += [x, y, inv(x), inv(y)]
    prefix, terms = letters[0], []
    for x in letters[1:]:
        terms.append((prefix, x, 1))
        prefix = mul(prefix, x)
    assert prefix == ident
    terms += [(x, inv(x), -1) for x, _ in elements]
    terms += [(y, inv(y), -1) for _, y in elements]
    terms.append((ident, ident, 1 - 2 * len(elements)))
    return tuple(terms)


def test_two_cycle_terms_come_from_the_pairs():
    rng = random.Random(12)
    for g in (1, 2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        for h in (1, 2, 3, 5):
            cls = random_surface_class(g, h, rng, gens)
            assert surface_two_cycle(cls).terms == _terms_from_pairs(g,
                                                                     cls.pairs)
            aff = random_affine_class(g, h, rng, gens)
            assert surface_two_cycle(aff).terms == _terms_from_pairs(
                g, aff.pairs, aff.translations)
            assert surface_two_cycle(aff.matrix_class()).terms == \
                _terms_from_pairs(g, aff.pairs)


def test_affine_class_keeps_its_validated_matrix_class():
    rng = random.Random(13)
    gens = standard_generators(GroupFamily.SP, 2)
    aff = random_affine_class(2, 3, rng, gens)
    assert aff.matrix_class() is aff.matrix_class()
    assert aff.matrix_class() == type(aff.matrix_class())(2, aff.pairs)
    again = AffineSurfaceClass(2, aff.pairs, aff.translations)
    assert again == aff and hash(again) == hash(aff)


def test_memoised_constants_are_shared_and_checks_still_raise():
    assert IntMatrix.identity(4) is IntMatrix.identity(4)
    assert j_matrix(2, -1) is j_matrix(2, -1)
    assert j_matrix(2, 1) != j_matrix(2, -1)
    for _ in range(2):
        with pytest.raises(ValueError, match="genus"):
            j_matrix(0, -1)
        with pytest.raises(ValueError, match="epsilon"):
            j_matrix(2, 0)

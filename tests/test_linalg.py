import random
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from hdmcg.linalg import (IntMatrix, cokernel_presentation, column_basis,
                          exact_signature, inverse_mod, kernel_basis, snf,
                          solve_exact)


def bareiss_det(m: IntMatrix) -> int:
    # independent integer determinant (fraction-free elimination)
    a = m.to_lists()
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def random_matrix(rng, rows, cols, span=5):
    return IntMatrix([[rng.randint(-span, span) for _ in range(cols)]
                      for _ in range(rows)])


def test_snf_identity():
    m = IntMatrix.identity(3)
    r = snf(m)
    assert r.D == m
    assert r.U @ m @ r.V == r.D


def test_snf_empty_matrices():
    for m in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0),
              IntMatrix.zeros(0, 0)):
        r = snf(m)
        assert r.D.rows == m.rows and r.D.cols == m.cols
        assert r.U @ m @ r.V == r.D
    assert kernel_basis(IntMatrix.zeros(0, 3)) == IntMatrix.identity(3)
    assert IntMatrix.zeros(2, 0) @ IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)


def test_snf_2x2_examples():
    # d1 = gcd of entries, d1*d2 = |det|, checked against the 2x2 minors
    m = IntMatrix([[2, 4], [6, 8]])
    r = snf(m)
    assert r.diagonal() == [2, 4]
    assert abs(bareiss_det(m)) == 2 * 4
    m2 = IntMatrix([[4, 0], [2, -3]])
    assert snf(m2).diagonal() == [1, 12]


def test_snf_random_properties():
    rng = random.Random(0)
    for _ in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = random_matrix(rng, rows, cols)
        r = snf(m)
        assert r.U @ m @ r.V == r.D
        diag = r.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0) or b == 0
        # nonzero entries come first on the diagonal
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            assert not (seen_zero and d)
        if rows:
            assert abs(bareiss_det(r.U)) == 1
        if cols:
            assert abs(bareiss_det(r.V)) == 1


def test_kernel_trivial_cases():
    z = IntMatrix.zeros(2, 2)
    assert kernel_basis(z) == IntMatrix.identity(2)
    k = kernel_basis(IntMatrix([[1, 1]]))
    assert k.cols == 1
    assert k.column(0) in ((1, -1), (-1, 1))


def test_kernel_mod2_exhaustive():
    rng = random.Random(1)
    for _ in range(20):
        m = random_matrix(rng, 4, 6, span=1)
        basis = kernel_basis(m, modulus=2)
        cols = [c for c in basis.columns()]
        spanned = {(0,) * 6}
        for c in cols:
            spanned |= {tuple((a + b) % 2 for a, b in zip(c, v))
                        for v in spanned}
        true_kernel = {x for x in product((0, 1), repeat=6)
                       if all(s % 2 == 0 for s in m.mult_vec(x))}
        assert spanned == true_kernel


@pytest.mark.parametrize("modulus", [2, 3])
def test_kernel_mod_m_is_a_basis_of_the_preimage_lattice(modulus):
    rng = random.Random(10 + modulus)
    for _ in range(15):
        m = random_matrix(rng, 3, 4, span=4)
        basis = kernel_basis(m, modulus)
        assert basis.rows == 4
        for col in basis.columns():
            assert all(x % modulus == 0 for x in m.mult_vec(col))
        # m Z^4 lies in the lattice
        scaled = IntMatrix.identity(4).scaled(modulus)
        assert basis @ solve_exact(basis, scaled) == scaled
        # independent columns, index [Z^4 : L] = m^4 / |ker(M mod m)|
        diag = [d for d in snf(basis).diagonal() if d]
        assert len(diag) == basis.cols == 4
        kernel_size = sum(
            1 for x in product(range(modulus), repeat=4)
            if all(s % modulus == 0 for s in m.mult_vec(x)))
        index = 1
        for d in diag:
            index *= d
        assert index * kernel_size == modulus ** 4


def test_cokernel_examples():
    g, _ = cokernel_presentation(IntMatrix.diagonal([2, 3]))
    assert (g.rank, g.torsion) == (0, (6,))
    g, _ = cokernel_presentation(IntMatrix.zeros(3, 0))
    assert (g.rank, g.torsion) == (3, ())
    g, _ = cokernel_presentation(IntMatrix([[2, 0], [0, 0]]))
    assert (g.rank, g.torsion) == (1, (2,))


def test_cokernel_projection_and_order():
    m = IntMatrix([[2, 1], [0, 2]])
    g, proj = cokernel_presentation(m)
    assert (g.rank, g.torsion) == (0, (4,))
    # relations die under the projection
    for col in m.columns():
        assert all(x % 4 == 0 for x in proj.mult_vec(col))


def test_cokernel_order_matches_det():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = random_matrix(rng, n, n, span=3)
        d = abs(bareiss_det(m))
        if d == 0:
            continue
        g, _ = cokernel_presentation(m)
        assert g.order() == d


def test_signature_examples():
    assert exact_signature(IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) == 0
    assert exact_signature(IntMatrix([[0, 1], [1, 0]])) == 0
    e8 = IntMatrix([
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, 0, 0, -1, 0, 0, 2]])
    assert abs(bareiss_det(e8)) == 1  # unimodular, hence the full rank 8
    assert exact_signature(e8) == 8


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        exact_signature(IntMatrix([[0, 1], [2, 0]]))


def test_signature_congruence_invariance():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, span=4)
        s = a + a.transpose()
        # random unimodular from elementary operations
        p = IntMatrix.identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
                e[i][j] = rng.randint(-2, 2)
                p = p @ IntMatrix(e)
        assert exact_signature(p.transpose() @ s @ p) == exact_signature(s)
        if bareiss_det(s):
            assert exact_signature(s) + exact_signature(-s) == 0


def test_solve_and_column_basis():
    rng = random.Random(4)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = random_matrix(rng, a.cols, 2, span=3)
        b = a @ x
        y = solve_exact(a, b)
        assert a @ y == b
        cb = column_basis(a)
        # every original column is an integral combination of the basis
        assert cb.cols <= a.cols
        # and the basis columns are independent
        assert sum(1 for d in snf(cb).diagonal() if d) == cb.cols
        if cb.cols:
            coeff = solve_exact(cb, a)
            assert cb @ coeff == a


def test_solve_exact_rejects():
    with pytest.raises(ValueError):
        solve_exact(IntMatrix([[2]]), IntMatrix([[1]]))


def test_inverse_mod():
    m = IntMatrix([[1, 1], [0, 1]])
    assert inverse_mod(m) == IntMatrix([[1, -1], [0, 1]])
    m2 = IntMatrix([[1, 2], [3, 4]])  # det -2, invertible mod 5
    inv = inverse_mod(m2, 5)
    assert (m2 @ inv).mod(5) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse_mod(m2)  # not unimodular over Z


def _is_int_rows(m: IntMatrix, rows: int, cols: int) -> bool:
    return (m.rows == rows and m.cols == cols and type(m.data) is tuple
            and len(m.data) == rows
            and all(type(r) is tuple and len(r) == cols
                    and all(type(x) is int for x in r) for r in m.data))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda r: st.integers(0, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                       min_size=r, max_size=r).map(lambda d: (r, c, d)))))
def test_snf_property_and_trusted_matrices(shape):
    rows, cols, data = shape
    m = IntMatrix(data, cols=cols)
    res = snf(m)
    assert res.U @ m @ res.V == res.D
    assert abs(bareiss_det(res.U)) == 1 and abs(bareiss_det(res.V)) == 1
    diag = res.diagonal()
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert all(res.D.data[i][j] == 0 for i in range(rows)
               for j in range(cols) if i != j)
    assert _is_int_rows(res.U, rows, rows)
    assert _is_int_rows(res.D, rows, cols)
    assert _is_int_rows(res.V, cols, cols)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(st.integers(-12, 12), min_size=c, max_size=c),
                       min_size=r, max_size=r))))
def test_snf_diagonal_is_the_determinantal_divisor_chain(data):
    """Oracle: d1 ... dk is the gcd of all k x k minors, for every k."""
    m = IntMatrix(data)
    diag = snf(m).diagonal()
    for k in range(1, len(diag) + 1):
        minors = (bareiss_det(IntMatrix([[data[i][j] for j in cols]
                                         for i in rows]))
                  for rows in combinations(range(m.rows), k)
                  for cols in combinations(range(m.cols), k))
        assert prod(diag[:k]) == gcd(*minors)


def test_from_columns_coerces_and_refuses_ragged_columns():
    m = IntMatrix.from_columns([[1, 2], [3, 4], [5, 6]])
    assert m == IntMatrix([[1, 3, 5], [2, 4, 6]])
    assert _is_int_rows(IntMatrix.from_columns([[True, 2.0]]), 2, 1)
    assert IntMatrix.from_columns([[], []]) == IntMatrix.zeros(0, 2)
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="unequal length"):
            IntMatrix.from_columns(ragged)

import ast
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hdmcg import linalg
from hdmcg.cocycles import load_class_file
from hdmcg.cohomology import GModule, fox_derivative
from hdmcg.linalg import (IntMatrix, cokernel_presentation, column_basis,
                          exact_signature, hstack, inverse_mod, kernel_basis,
                          snf, solve_exact, subquotient)

SRC = Path(__file__).resolve().parents[1] / "src" / "hdmcg"
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


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
    assert next(zip(*k.data)) in ((1, -1), (-1, 1))


def test_kernel_mod2_exhaustive():
    rng = random.Random(1)
    for _ in range(20):
        m = random_matrix(rng, 4, 6, span=1)
        basis = kernel_basis(m, modulus=2)
        cols = list(zip(*basis.data))
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
        for col in zip(*basis.data):
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


def _augmented_route(m, modulus):
    """The lattice {x : M x = 0 mod m} built without reducing mod m: the
    first n coordinates of ker [M | m I] over Z, reduced to a basis."""
    full = kernel_basis(hstack(m, IntMatrix.identity(m.rows).scaled(modulus)))
    return column_basis(IntMatrix(full.data[:m.cols], cols=full.cols))


def _contains(lattice, vectors):
    """Every column of ``vectors`` is an integral combination of the
    columns of ``lattice``."""
    if vectors.cols == 0:
        return True
    try:
        solve_exact(lattice, vectors)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("modulus", [0, 2, 3, 4, 6])
def test_kernel_basis_against_independent_witnesses(monkeypatch, modulus):
    """Seeded M up to 3x4 with entries in [-3, 3]: each column solves
    M x = 0 mod m, the lattice's residues mod m are exactly the brute-force
    solutions in (Z/m)^n (m^n / |det B| of them), the lattice equals the
    augmented route's, and ``kernel_basis`` runs one Smith form."""
    rng = random.Random(100 + modulus)
    calls = []

    def counted(x):
        calls.append(x)
        return snf(x)

    for _ in range(12):
        rows, cols = rng.randint(0, 3), rng.randint(1, 4)
        m = (random_matrix(rng, rows, cols, span=3) if rows
             else IntMatrix.zeros(0, cols))
        calls.clear()
        monkeypatch.setattr(linalg, "snf", counted)
        basis = kernel_basis(m, modulus)
        monkeypatch.undo()
        assert len(calls) == 1, m
        for col in zip(*basis.data):
            assert all((x % modulus if modulus else x) == 0
                       for x in m.mult_vec(col))
        ref = _augmented_route(m, modulus)
        assert _contains(basis, ref) and _contains(ref, basis), m
        if not modulus:
            continue
        solutions = {x for x in product(range(modulus), repeat=cols)
                     if all(s % modulus == 0 for s in m.mult_vec(x))}
        residues = {tuple(x % modulus for x in basis.mult_vec(c))
                    for c in product(range(modulus), repeat=basis.cols)}
        assert residues == solutions, m
        assert basis.cols == cols
        assert len(solutions) * abs(bareiss_det(basis)) == modulus ** cols


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
    for col in zip(*m.data):
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


@pytest.mark.parametrize("modulus", [0, 2, 4, 6])
def test_subquotient_takes_the_kernel_basis_as_it_is(modulus):
    """Oracle for ``subquotient`` on a ``kernel_basis`` result: solving
    against that basis gives the group that solving against a
    ``column_basis`` of it gives, for sublattices spanned by random
    combinations of it (plus m Z^n mod m), and by nothing."""
    rng = random.Random(700 + modulus)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        k = kernel_basis(random_matrix(rng, rows, cols, span=4), modulus)
        combos = random_matrix(rng, k.cols, rng.randint(0, 3), span=6)
        bottoms = [k @ combos, IntMatrix.zeros(cols, 0)]
        if modulus:
            bottoms = [hstack(b, IntMatrix.identity(cols).scaled(modulus))
                       for b in bottoms]
        for bottom in bottoms:
            want = cokernel_presentation(
                solve_exact(column_basis(k), bottom))[0]
            assert subquotient(k, bottom) == want, (k, bottom)


def test_column_basis_has_one_caller():
    """Every other ``subquotient`` caller passes a basis it already holds,
    so ``column_basis`` is called in the package only by
    ``abgroups.subgroup_iso``, whose generators may be dependent."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [(path.stem, fn.name) for call in ast.walk(fn)
                            if isinstance(call, ast.Call)
                            and getattr(call.func, "id", None)
                            == "column_basis"]
    assert callers == [("abgroups", "subgroup_iso")]


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


def test_from_columns_takes_integers_and_refuses_ragged_columns():
    m = IntMatrix.from_columns([[1, 2], [3, 4], [5, 6]])
    assert m == IntMatrix([[1, 3, 5], [2, 4, 6]])
    assert _is_int_rows(IntMatrix.from_columns([[7, -2]]), 2, 1)
    with pytest.raises(ValueError, match="must be an integer, got True"):
        IntMatrix.from_columns([[True, 2.0]])
    assert IntMatrix.from_columns([[], []]) == IntMatrix.zeros(0, 2)
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="unequal length"):
            IntMatrix.from_columns(ragged)


@pytest.mark.parametrize("build, what, bad", [
    (lambda: IntMatrix([], cols=-3), "a column count", None),
    (lambda: IntMatrix([], cols=2.0), "a column count", 2.0),
    (lambda: IntMatrix([[1, 2]], cols=2.0), "a column count", 2.0),
    (lambda: IntMatrix.from_columns([], rows=-2), "a row count", None),
    (lambda: IntMatrix.from_columns([[1]], rows="1"), "a row count", "1"),
    (lambda: IntMatrix.zeros(-1, 3), "a row count", None),
    (lambda: IntMatrix.zeros(3, -1), "a column count", None),
    (lambda: IntMatrix.zeros(True, 3), "a row count", True),
], ids=["cols=-3", "cols=2.0", "cols=2.0 on rows", "rows=-2", "rows='1'",
        "zeros(-1, 3)", "zeros(3, -1)", "zeros(True, 3)"])
def test_matrix_counts_are_integers_at_least_zero(build, what, bad):
    """A negative or non-integer row or column count is one ValueError,
    never a 0 x -3, 0 x 0 or 0 x 3 matrix."""
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == (f"{what} must be >= 0" if bad is None else
                              f"{what} must be an integer, got {bad!r}")


@pytest.mark.parametrize("bad, message", [
    (0, "a modulus must be >= 1"), (-2, "a modulus must be >= 1"),
    (True, "a modulus must be an integer, got True"),
    (2.0, "a modulus must be an integer, got 2.0"),
], ids=["zero", "negative", "bool", "float"])
def test_mod_takes_a_modulus_of_at_least_one(bad, message):
    """0 would divide by zero, a negative m would give entries in (m, 0],
    and True would reduce mod 1: each is one ValueError instead."""
    with pytest.raises(ValueError) as err:
        IntMatrix([[3, -1]]).mod(bad)
    assert str(err.value) == message
    assert IntMatrix([[3, -1]]).mod(2) == IntMatrix([[1, 1]])
    assert IntMatrix([[3, -1]]).mod(1) == IntMatrix([[0, 0]])


def test_from_columns_refuses_a_contradicting_row_count():
    assert IntMatrix.from_columns([[1, 2]], rows=2) == IntMatrix([[1], [2]])
    with pytest.raises(ValueError, match="contradicts column data"):
        IntMatrix.from_columns([[1, 2]], rows=3)


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", Fraction(3, 2), True],
                         ids=repr)
@pytest.mark.parametrize("build", [
    lambda x: IntMatrix([[x, 0], [0, 1]]),
    lambda x: IntMatrix.from_columns([[1, 0], [0, x]]),
    lambda x: IntMatrix.diagonal([1, x]),
], ids=["constructor", "from_columns", "diagonal"])
def test_matrix_builders_refuse_what_is_not_an_integer(build, bad):
    """Each public builder takes an entry by the ``json_int`` rule: 1.5
    is not truncated to the identity (which ``is_member`` would accept),
    nor "2" parsed, nor Fraction(3, 2) cut to 1."""
    with pytest.raises(ValueError) as err:
        build(bad)
    assert str(err.value) == f"a matrix entry must be an integer, got {bad!r}"


def _list_product(left: list[list[int]], right: list[list[int]],
                  cols: int) -> list[list[int]]:
    """Reference product of row lists, one written-out dot product per
    entry; ``cols`` is the column count of ``right``, which may have no
    rows."""
    return [[sum(row[t] * right[t][j] for t in range(len(row)))
             for j in range(cols)] for row in left]


SPARSE_ENTRIES = st.sampled_from((1, -1, 2, -3))


@st.composite
def sparse_vector(draw, k: int) -> list[int]:
    """A length-k vector with 0, 1, 2, k // 2, k // 2 + 1 or k nonzero
    entries (at most k) drawn from 1, -1, 2 and -3."""
    count = min(k, draw(st.sampled_from((0, 1, 2, k // 2, k // 2 + 1, k))))
    vector = [0] * k
    for t in draw(st.permutations(range(k)))[:count]:
        vector[t] = draw(SPARSE_ENTRIES)
    return vector


@st.composite
def product_operands(draw):
    """(r x k row lists, k x m row lists, m) with shapes 0..6; each row of
    the left factor and each column of the right factor is a
    ``sparse_vector``, so a result row combines none, one, a few or all
    of the right factor's rows, and a result column reads a column that
    is zero, sparse or dense."""
    r, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    left = [draw(sparse_vector(k)) for _ in range(r)]
    columns = [draw(sparse_vector(k)) for _ in range(m)]
    right = [[column[t] for column in columns] for t in range(k)]
    return left, right, m


def _check_product(left: list[list[int]], right: list[list[int]], k: int,
                   m: int) -> None:
    a = IntMatrix(left, k)
    b = IntMatrix(right, m)
    before = (a.data, b.data)
    product = a @ b
    assert _is_int_rows(product, len(left), m)
    assert [list(row) for row in product.data] == _list_product(left, right, m)
    assert (a.data, b.data) == before == (
        tuple(map(tuple, left)), tuple(map(tuple, right)))
    assert (a.cols, b.cols) == (k, m)


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_product_matches_the_written_out_dot_products(operands):
    """``@`` against entry-by-entry dot products on row lists: every row of
    the result is a tuple of ints, and both factors, whose rows a sparse
    row of the left factor may hand out as they are, are left as they
    were."""
    left, right, m = operands
    _check_product(left, right, len(right), m)


@pytest.mark.parametrize("r, k, m", [(0, 3, 2), (3, 0, 2), (2, 0, 3),
                                     (3, 2, 0), (0, 0, 0), (2, 4, 1)])
def test_product_of_empty_and_unit_shapes(r, k, m):
    """0 x k, k x 0 and 2 x 0 @ 0 x 3 against the reference, with a left
    factor whose rows each hold one entry 1 and a right factor of units."""
    left = [[int(i % k == t) for t in range(k)] for i in range(r)]
    right = [[int(t == j % k) for j in range(m)] for t in range(k)]
    _check_product(left, right, k, m)


def eager_snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Reference: (U, D, V) from the same elimination as ``snf``, with U
    and V updated next to the matrix on every move rather than replayed
    from a log afterwards."""
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(i, k, q):
        ai, ak = a[i], a[k]
        for t in range(nc):
            ai[t] -= q * ak[t]
        ui, uk = u[i], u[k]
        for t in range(nr):
            ui[t] -= q * uk[t]

    def col_sub(j, k, q):
        for t in range(nr):
            a[t][j] -= q * a[t][k]
        for t in range(nc):
            v[t][j] -= q * v[t][k]

    def col_swap(j, k):
        for t in range(nr):
            a[t][j], a[t][k] = a[t][k], a[t][j]
        for t in range(nc):
            v[t][j], v[t][k] = v[t][k], v[t][j]

    k = 0
    limit = min(nr, nc)
    while k < limit:
        piv = None
        best = None
        for i in range(k, nr):
            row = a[i]
            for j in range(k, nc):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != k:
            a[k], a[i] = a[i], a[k]
            u[k], u[i] = u[i], u[k]
        if j != k:
            col_swap(k, j)
        p = a[k][k]
        dirty = False
        for i in range(k + 1, nr):
            if a[i][k]:
                q = a[i][k] // p
                if q:
                    row_sub(i, k, q)
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, nc):
            if a[k][j]:
                q = a[k][j] // p
                if q:
                    col_sub(j, k, q)
                if a[k][j]:
                    dirty = True
        if dirty:
            continue
        p = a[k][k]
        culprit = None
        for i in range(k + 1, nr):
            row = a[i]
            for j in range(k + 1, nc):
                if row[j] % p:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_sub(k, culprit, -1)
            continue
        k += 1
    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return (IntMatrix(u, cols=nr), IntMatrix(a, cols=nc),
            IntMatrix(v, cols=nc))


def _same_as_eager(m: IntMatrix) -> None:
    """U, D and V of ``snf`` equal the eager reference's, entry for entry,
    as int tuples of the right shapes, whichever transform is read first."""
    ref = eager_snf(m)
    shapes = ((m.rows, m.rows), (m.rows, m.cols), (m.cols, m.cols))
    rank = sum(1 for i in range(min(m.rows, m.cols)) if ref[1].data[i][i])
    for order in ((0, 1, 2), (2, 1, 0)):
        res = snf(m)
        assert res.rank == rank == linalg.rank(m)
        got = {i: getattr(res, "UDV"[i]) for i in order}
        for i, (rows, cols) in enumerate(shapes):
            assert got[i] == ref[i], (m, i)
            assert _is_int_rows(got[i], rows, cols)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda r: st.integers(0, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                       min_size=r, max_size=r).map(lambda d: (r, c, d)))))
def test_replayed_transforms_match_the_eager_reference(shape):
    rows, cols, data = shape
    _same_as_eager(IntMatrix(data, cols=cols))


def test_replayed_transforms_match_on_wide_and_empty_shapes():
    """Coinvariant-shaped n x 7n matrices (n <= 8, entries of g - 1 for a
    few small g) and the empty shapes 0 x k, k x 0 and 0 x 0."""
    rng = random.Random(24)
    for n in range(1, 9):
        for _ in range(3):
            _same_as_eager(random_matrix(rng, n, 7 * n, span=2))
    for k in range(4):
        for m in (IntMatrix.zeros(0, k), IntMatrix.zeros(k, 0)):
            _same_as_eager(m)


def test_replayed_transforms_match_on_the_fox_row_of_a_class():
    """The 4 x 480 Fox row of the surface relator through the holonomies
    of ``examples/nonzero.json`` (g = 2, h = 60), whose kernel is Z^1."""
    cls = load_class_file(str(EXAMPLES / "nonzero.json"))
    relator = [x for j in range(1, 2 * cls.h, 2) for x in (j, j + 1, -j, -j - 1)]
    row, _ = fox_derivative(relator, GModule(
        2 * cls.g, 0, [x for pair in cls.pairs for x in pair]))
    assert (row.rows, row.cols) == (4, 480)
    _same_as_eager(row)


def test_replayed_transforms_match_on_sparse_20_to_40_row_matrices():
    """Sparse matrices with entries 1, -1, 2, -3 and a few wider ones, so
    that row moves leave remainders under a pivot and column moves then
    reach the rows below it."""
    rng = random.Random(33)
    for _ in range(8):
        rows, cols = rng.randint(20, 40), rng.randint(20, 40)
        density = rng.choice((0.08, 0.15, 0.3))
        _same_as_eager(IntMatrix([
            [rng.choice((1, -1, 2, -3, 5, -7)) if rng.random() < density
             else 0 for _ in range(cols)] for _ in range(rows)]))


def _kept_results(monkeypatch):
    """Wrap ``linalg.snf`` so that it keeps every result it returns."""
    kept = []

    def keeping(x):
        kept.append(snf(x))
        return kept[-1]

    monkeypatch.setattr(linalg, "snf", keeping)
    return kept


def test_each_caller_builds_only_the_transform_it_reads(monkeypatch):
    rng = random.Random(7)
    mats = [random_matrix(rng, r, c) for r, c in
            ((3, 5), (5, 3), (4, 4), (2, 14), (0, 3), (3, 0))]
    kept = _kept_results(monkeypatch)
    for m in mats:
        cokernel_presentation(m)
    assert len(kept) == len(mats)
    assert not any("V" in res.__dict__ for res in kept)
    kept.clear()
    for m in mats:
        kernel_basis(m)
        kernel_basis(m, 6)
        column_basis(m)
    assert len(kept) == 3 * len(mats)
    assert not any("U" in res.__dict__ for res in kept)


def test_solve_exact_and_inverse_mod_build_both_transforms(monkeypatch):
    rng = random.Random(8)
    kept = _kept_results(monkeypatch)
    units_mod_10 = 0
    for _ in range(10):
        x = random_matrix(rng, 4, 2)
        a = random_matrix(rng, 3, 4)
        b = a @ x
        assert a @ solve_exact(a, b) == b
        unimodular = snf(random_matrix(rng, 4, 4)).U
        assert inverse_mod(unimodular) @ unimodular == IntMatrix.identity(4)
        s = random_matrix(rng, 3, 3)
        if gcd(bareiss_det(s), 10) == 1:
            units_mod_10 += 1
            assert (inverse_mod(s, 10) @ s).mod(10) == IntMatrix.identity(3)
    assert units_mod_10 and len(kept) == 20 + units_mod_10
    assert all("U" in res.__dict__ and "V" in res.__dict__ for res in kept)

"""Exact linear algebra over Z, Z/m and Q.

Everything runs on Python's arbitrary-precision integers; rationals
appear only where ``exact_signature`` clears the denominators of
``fractions.Fraction`` input.  There is no floating point anywhere in this
package.

One Smith normal form, ``snf``, is the single lattice engine: kernels
over Z and mod m, column bases, exact solving, inverses, subquotients and
cokernel presentations all read their answer off its U, D and V, and
every quotient group the other modules compute goes through it.
Pivoting picks the smallest nonzero entry in absolute value, which keeps
entry growth manageable at the matrix sizes this package deals with (a
few dozen rows at most).  The cocycle path uses ``rational_kernel`` and
``exact_signature`` instead, which need no lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix, stored row-major as nested tuples.

    Instances are hashable so they can serve as group elements in the
    bar-complex chains of :mod:`hdmcg.cocycles`.  The public constructor
    coerces every entry with ``int()`` and checks the row widths; results
    of the package's own operations skip both through ``_of``.
    Immutability is load-bearing: ``identity`` and ``symplectic.j_matrix``
    hand out one shared instance per size, so no operation may ever write
    to ``data``.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        self.data = tuple(tuple(int(x) for x in row) for row in data)
        self.rows = len(self.data)
        if self.rows:
            widths = {len(r) for r in self.data}
            if len(widths) != 1:
                raise ValueError("rows of unequal length")
            self.cols = widths.pop()
            if cols is not None and cols != self.cols:
                raise ValueError("explicit column count contradicts row data")
        else:
            self.cols = 0 if cols is None else int(cols)

    @classmethod
    def _of(cls, data: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """Trusted constructor: ``data`` is already a tuple of int tuples,
        each of length ``cols``."""
        m = object.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @classmethod
    @cache
    def identity(cls, n: int) -> "IntMatrix":
        """The n x n identity, one shared instance per n."""
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n))
                             for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        entries = list(entries)
        r = len(entries) if rows is None else rows
        c = len(entries) if cols is None else cols
        data = [[0] * c for _ in range(r)]
        for i, d in enumerate(entries):
            data[i][i] = d
        return cls(data, cols=c)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]],
                     rows: int | None = None) -> "IntMatrix":
        if not columns:
            if rows is None:
                raise ValueError("row count needed for an empty column list")
            return cls.zeros(rows, 0)
        r = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(r)], cols=len(columns))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntMatrix) and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        if self.cols == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        ot = tuple(zip(*other.data))
        return IntMatrix._of(tuple(tuple(sum(map(mul, row, col)) for col in ot)
                                   for row in self.data), other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(tuple(tuple(a + b for a, b in zip(r1, r2))
                                   for r1, r2 in zip(self.data, other.data)),
                             self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(tuple(tuple(a - b for a, b in zip(r1, r2))
                                   for r1, r2 in zip(self.data, other.data)),
                             self.cols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(-a for a in r) for r in self.data),
                             self.cols)

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * a for a in r] for r in self.data], cols=self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.data)), self.rows)

    def mod(self, m: int) -> "IntMatrix":
        return IntMatrix([[a % m for a in r] for r in self.data], cols=self.cols)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def mult_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.data)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]


def hstack(*mats: IntMatrix) -> IntMatrix:
    mats = [m for m in mats if m.cols or m.rows]
    if not mats:
        return IntMatrix.zeros(0, 0)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    data = tuple(sum((m.data[i] for m in mats), ()) for i in range(rows))
    return IntMatrix._of(data, sum(m.cols for m in mats))


def vstack(*mats: IntMatrix) -> IntMatrix:
    mats = list(mats)
    if not mats:
        return IntMatrix.zeros(0, 0)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    data = [list(r) for m in mats for r in m.data]
    return IntMatrix(data, cols=cols)


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form ``U @ M @ V == D`` with U, V unimodular and the
    diagonal of D a nonnegative divisibility chain d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.D.data[i][i] for i in range(min(self.D.rows, self.D.cols))]


def snf(m: IntMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms, U @ M @ V == D."""
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(i, k, q):
        # row i -= q * row k; left-multiplication, recorded in u
        ai, ak = a[i], a[k]
        for t in range(nc):
            ai[t] -= q * ak[t]
        ui, uk = u[i], u[k]
        for t in range(nr):
            ui[t] -= q * uk[t]

    def col_sub(j, k, q):
        # column j -= q * column k; right-multiplication, recorded in v
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
        # smallest |nonzero| pivot in the trailing block
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
        # enforce d_k | (everything that is left)
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
            row_sub(k, culprit, -1)  # a[k] += a[culprit]
            continue
        k += 1
    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return SNFResult(U=IntMatrix(u, cols=nr), D=IntMatrix(a, cols=nc),
                     V=IntMatrix(v, cols=nc))


def kernel_basis(m: IntMatrix, modulus: int = 0) -> IntMatrix:
    """Lattice basis of {x in Z^n : M x = 0 mod modulus}; modulus 0 means
    M x = 0 over Z.

    Over Z the basis is the last n - rank columns of V in the Smith form,
    and the lattice is saturated (any integral vector in the rational
    kernel is an integral combination of the columns).  For modulus m > 0
    the lattice is the preimage in Z^n of the solutions over Z/m, a
    full-rank lattice containing m Z^n: the first n coordinates of
    ker [M | m I] over Z, reduced to a basis by ``column_basis``.
    """
    if modulus < 0:
        raise ValueError("modulus must be 0 (= Z) or positive")
    if modulus:
        aug = hstack(m, IntMatrix.identity(m.rows).scaled(modulus))
        full = kernel_basis(aug)
        return column_basis(IntMatrix(full.data[:m.cols], cols=full.cols))
    res = snf(m)
    r = sum(1 for d in res.diagonal() if d)
    return IntMatrix._of(tuple(row[r:] for row in res.V.data), m.cols - r)


def rational_kernel(m: IntMatrix) -> IntMatrix:
    """Basis of ker(M) over Q, as primitive integral columns.

    Fraction-free Gauss-Jordan elimination: a pivot d = a[r][c] clears
    column c from every other row i with f = a[i][c] != 0 by
    a[i] <- d a[i] - f a[r], and the new row is divided by its content, so
    entries stay small.  Rows already 0 in the pivot column are left
    alone.  At the end each pivot row r reads d_r e_{p_r} + (entries in
    free columns); with L the lcm of the pivots, each free column f gives
    the kernel vector L e_f - sum_r (L / d_r) a[r][f] e_{p_r}, divided by
    its content, so its free coordinate is positive.  Unlike
    ``kernel_basis`` the columns need not span the integral kernel; they
    span it over Q.
    """
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        d = prow[c]
        for i in range(nr):
            f = a[i][c]
            if f and i != r:
                row = [d * x - f * y for x, y in zip(a[i], prow)]
                content = gcd(*row)
                a[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
    den = lcm(*(a[r][pc] for r, pc in enumerate(pivots)))
    scale = [den // a[r][pc] for r, pc in enumerate(pivots)]
    pivot_set = set(pivots)
    cols = []
    for f in range(nc):
        if f in pivot_set:
            continue
        v = [0] * nc
        v[f] = den
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][f] * scale[r]
        content = gcd(*v)
        cols.append([x // content for x in v])
    return IntMatrix._of(tuple(zip(*cols)) if cols else ((),) * nc, len(cols))


def column_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the column-span lattice of M (columns of the result).

    From U M V = D, M V = U^-1 D: the first rank columns of M V are
    independent and span the same lattice as M, and the rest are zero.
    """
    res = snf(m)
    r = sum(1 for d in res.diagonal() if d)
    return m @ IntMatrix._of(tuple(row[:r] for row in res.V.data), r)


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """One integral solution X of A @ X == B; raises if none exists."""
    res = snf(a)
    diag = res.diagonal()
    r = sum(1 for d in diag if d)
    ub = res.U @ b
    y = [[0] * b.cols for _ in range(a.cols)]
    for i in range(ub.rows):
        for j in range(b.cols):
            val = ub.data[i][j]
            if i < r:
                d = diag[i]
                if val % d:
                    raise ValueError("no integral solution")
                y[i][j] = val // d
            elif val:
                raise ValueError("inconsistent system")
    return res.V @ IntMatrix(y, cols=b.cols)


def inverse_mod(a: IntMatrix, modulus: int = 0) -> IntMatrix:
    """Inverse of a square matrix over Z (modulus 0) or Z/m.

    Over Z the matrix must be unimodular; over Z/m its elementary divisors
    must be units mod m.
    """
    if not a.is_square:
        raise ValueError("only square matrices can be inverted")
    res = snf(a)
    diag = res.diagonal()
    if modulus == 0:
        if any(d != 1 for d in diag):
            raise ValueError("matrix is not invertible over the integers")
        return res.V @ res.U
    inv_diag = []
    for d in diag:
        inv_diag.append(pow(d % modulus, -1, modulus))
    middle = IntMatrix.diagonal(inv_diag)
    return (res.V @ middle @ res.U).mod(modulus)


def cokernel_presentation(m: IntMatrix):
    """Canonical form of Z^rows / column-span(M) plus the projection.

    Returns ``(FinAbGroup, IntMatrix)``.  The projection sends a standard
    basis vector of the ambient Z^rows to its coordinates in the canonical
    form, free coordinates first, then one coordinate per torsion factor
    (in divisibility order).
    """
    from .abgroups import FinAbGroup

    res = snf(m)
    diag = res.diagonal()
    r = sum(1 for d in diag if d)
    free_rows = list(range(r, m.rows))
    torsion_rows = [i for i in range(r) if diag[i] > 1]
    factors = tuple(diag[i] for i in torsion_rows)
    group = FinAbGroup(rank=len(free_rows), torsion=factors)
    proj = IntMatrix([res.U.data[i] for i in free_rows + torsion_rows],
                     cols=m.rows)
    return group, proj


def subquotient(top: IntMatrix, bottom: IntMatrix):
    """The group span(top) / span(bottom), a ``FinAbGroup``.

    The columns of ``bottom`` must lie in the lattice spanned by the
    columns of ``top``.  The coordinates of ``bottom`` in a basis of that
    lattice present the quotient.  When ``bottom`` spans 0 the quotient is
    free on that basis, and no solve or cokernel is needed.
    """
    from .abgroups import FinAbGroup

    basis = column_basis(top)
    if basis.cols == 0 or not any(any(row) for row in bottom.data):
        return FinAbGroup.free(basis.cols)
    return cokernel_presentation(solve_exact(basis, bottom))[0]


def exact_signature(s) -> int:
    """Signature of a symmetric rational matrix by integer congruence moves.

    Accepts an IntMatrix or a nested sequence of ints/Fractions.  Input that
    is not all integers is scaled by the lcm of its denominators, a positive
    factor.  Each step pivots on the nonzero diagonal entry d of least
    absolute value, counts its sign, and replaces the remaining block by
    |d| times its Schur complement, divided by the gcd of its entries; all
    of these are positive rescalings of a congruent matrix, so the
    signature is unchanged and no fractions appear.  When every diagonal
    entry is zero but some a_ij is not, the congruence move "row i += row j,
    column i += column j" makes the diagonal entry a_ii = 2 a_ij nonzero.
    """
    is_int = isinstance(s, IntMatrix)  # entries are ints by construction
    rows = s.data if is_int else [list(r) for r in s]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("signature needs a square matrix")
    if not is_int and not all(isinstance(x, int) for r in rows for x in r):
        rows = [[Fraction(x) for x in r] for r in rows]
        den = lcm(*(x.denominator for r in rows for x in r))
        rows = [[int(x * den) for x in r] for r in rows]
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("signature needs a symmetric matrix")
    a = [list(r) for r in rows]
    sig = 0
    while a:
        m = len(a)
        p = min((i for i in range(m) if a[i][i]), key=lambda i: abs(a[i][i]),
                default=None)
        if p is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m)
                         if a[i][j]), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            continue
        piv = a.pop(p)
        d = piv.pop(p)
        sd = 1 if d > 0 else -1
        sig += sd
        col = [row.pop(p) for row in a]
        a = [[sd * (d * x - c * y) for x, y in zip(row, piv)]
             for row, c in zip(a, col)]
        content = gcd(*(x for row in a for x in row))
        if content > 1:
            a = [[x // content for x in row] for row in a]
    return sig

"""Wall's form (H, lambda, mu) and the three arithmetic automorphism-group
families.

Basis convention throughout the package: (e_1, ..., e_g, f_1, ..., f_g),
so the pairing matrix is the block form [[0, I], [eps*I, 0]] and the
standard quadratic refinement is q(x_1..x_g, y_1..y_g) = sum x_i y_i.
The form has one model here: ``j_matrix`` for the pairing and ``_q2`` for
q mod 2, the two things ``is_member`` tests.  Which family a dimension n
gets (Theorem A) is ``mcg.automorphism_family``'s answer, read off
``cases.hopf``.

The membership verdict and the Sp inverse are each served from one
bounded memo (``MEMO_SIZE`` entries, least recently used first out), so a
caller that meets the same holonomy again, as the letters and conjugates
of a surface class do, pays for it once.  The verdict is keyed on the
family, the row tuple ``a.data`` and g, the inverse on ``a.data`` and g;
both check their arguments on every call, before the lookup.  Full, the
two memos hold the rows of up to 2 * MEMO_SIZE matrices: measured with
``tracemalloc`` on random products of the generators, about 0.26 MiB at
g = 2, 0.54 MiB at g = 4 and 2.9 MiB at g = 12, plus about 32 bytes per
entry of absolute value above 256.
"""

from __future__ import annotations

import enum
from functools import cache, lru_cache
from itertools import product
from operator import mul, neg

from .inputs import json_int
from .linalg import IntMatrix

# entries of each memo: room for the distinct holonomies of an h = 84 class
# and their inverses
MEMO_SIZE = 256


class GroupFamily(enum.Enum):
    SP = "Sp"
    SPQ = "SpQ"
    OGG = "Ogg"


@cache
def j_matrix(g: int, epsilon: int) -> IntMatrix:
    """Block matrix [[0, I_g], [epsilon * I_g, 0]], one shared instance per
    (g, epsilon); invalid arguments raise on every call."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    n = 2 * g
    data = [[0] * n for _ in range(n)]
    for i in range(g):
        data[i][g + i] = 1
        data[g + i][i] = epsilon
    return IntMatrix(data)


def _q2(g: int, x) -> int:
    return sum(x[i] * x[g + i] for i in range(g)) % 2


def _check(a: IntMatrix, g: int) -> None:
    """Refuse a genus that is not an integer >= 1 (by the ``json_int``
    rule, so 1.0 and True are refused) and a matrix that is not a 2g x 2g
    ``IntMatrix``, each with one ValueError."""
    if json_int(g, "genus") < 1:
        raise ValueError("genus must be >= 1")
    n = 2 * g
    if not isinstance(a, IntMatrix) or a.rows != n or a.cols != n:
        raise ValueError(f"matrix must be a {n}x{n} IntMatrix")


def is_member(family: GroupFamily, a: IntMatrix, g: int) -> bool:
    """Defining congruence of the family, with q checked on basis vectors.

    The arguments are checked on every call (see ``_check``); the verdict
    then comes from a memo of ``MEMO_SIZE`` entries keyed on
    (family, a.data, g), so each distinct matrix is tested once while it
    stays among the most recently used.

    For Sp and SpQ the pairing test is A^T J A = J with J = j_matrix(g, -1),
    read off the columns a_i of A: the (i, j) entry of A^T J A is
    omega(a_i, a_j) = a_i . J a_j, where J x = (x_f, -x_e) is a signed half
    swap of the coordinates.  A^T J A is antisymmetric for every A, because
    J is, so its diagonal vanishes and the pairs i < j decide equality:
    omega(a_i, a_j) must be 1 when j = i + g and 0 otherwise.  No inverse
    and no matrix product is formed.
    Checking q on the 2g standard basis vectors suffices for SpQ: when a
    matrix preserves the pairing, q(Ax) - q(x) is linear mod 2 in x.
    """
    _check(a, g)
    return _verdict(family, a.data, g)


@lru_cache(maxsize=MEMO_SIZE)
def _verdict(family: GroupFamily, rows: tuple, g: int) -> bool:
    n = 2 * g
    if family is GroupFamily.OGG:
        j = j_matrix(g, 1)
        a = IntMatrix._of(rows, n)
        return a.transpose() @ j @ a == j
    cols = tuple(zip(*rows))
    jcols = [c[g:] + tuple(map(neg, c[:g])) for c in cols]
    for i in range(n - 1):
        ci = cols[i]
        partner = i + g
        for j in range(i + 1, n):
            if sum(map(mul, ci, jcols[j])) != (j == partner):
                return False
    if family is GroupFamily.SP:
        return True
    # q vanishes on every standard basis vector, so compare against 0
    return all(_q2(g, c) == 0 for c in cols)


def sp_inverse(a: IntMatrix, g: int) -> IntMatrix:
    """Inverse inside Sp_2g(Z): A^{-1} = J^{-1} A^T J.

    For A = [[a, b], [c, d]] in g x g blocks this is the signed block
    transpose [[d^T, -b^T], [-c^T, a^T]].  The arguments are checked on
    every call (see ``_check``), and the inverse then comes from a memo of
    ``MEMO_SIZE`` entries keyed on (a.data, g); the matrix handed out is
    shared, which is safe because an ``IntMatrix`` is immutable.
    """
    _check(a, g)
    return _inverse(a.data, g)


@lru_cache(maxsize=MEMO_SIZE)
def _inverse(rows: tuple, g: int) -> IntMatrix:
    t = tuple(zip(*rows))  # A^T = [[a^T, c^T], [b^T, d^T]]
    top = [r[g:] + tuple(map(neg, r[:g])) for r in t[g:]]
    bottom = [tuple(map(neg, r[g:])) + r[:g] for r in t[:g]]
    return IntMatrix._of(tuple(top + bottom), 2 * g)


def _embed_2x2(m2: list[list[int]], g: int) -> IntMatrix:
    """Put a 2x2 matrix on the (e_1, f_1) coordinates."""
    n = 2 * g
    data = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    data[0][0] = m2[0][0]
    data[0][g] = m2[0][1]
    data[g][0] = m2[1][0]
    data[g][g] = m2[1][1]
    return IntMatrix(data)


def _perm_pair(g: int, i: int) -> IntMatrix:
    """diag(P, P) for the transposition (i, i+1) of the g coordinates."""
    n = 2 * g
    data = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for base in (0, g):
        a, b = base + i, base + i + 1
        data[a][a] = data[b][b] = 0
        data[a][b] = data[b][a] = 1
    return IntMatrix(data)


def _elementary(g: int) -> IntMatrix:
    """block_diag(B, B^{-T}) with B the unipotent adding e_1 to e_2."""
    n = 2 * g
    data = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    data[1][0] = 1
    data[g][g + 1] = -1
    return IntMatrix(data)


def standard_generators(family: GroupFamily, g: int) -> list[IntMatrix]:
    """Generator lists backing the coinvariant computations.

    For g = 1 these generate the full group; for g >= 2 they are the
    specific elements the coinvariant arguments run on (plus enough to
    stay inside the family), not a certified generating set.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if family is GroupFamily.OGG:
        if g == 1:
            return [IntMatrix([[-1, 0], [0, -1]]), IntMatrix([[0, 1], [1, 0]])]
        gens = [_perm_pair(g, i) for i in range(g - 1)]
        gens.append(j_matrix(g, 1))
        gens.append(_elementary(g))
        gens.append(-IntMatrix.identity(2 * g))
        return gens
    r = [[1, 2], [0, 1]]
    s = [[0, 1], [-1, 0]]
    if family is GroupFamily.SPQ:
        if g == 1:
            return [_embed_2x2(r, 1), _embed_2x2(s, 1)]
        gens = [_perm_pair(g, i) for i in range(g - 1)]
        gens.append(-j_matrix(g, -1))
        gens.append(_elementary(g))
        return gens
    # Sp: the theta-group elements plus the unipotent T = [[1,1],[0,1]]
    t = [[1, 1], [0, 1]]
    gens = standard_generators(GroupFamily.SPQ, g)
    gens.append(_embed_2x2(t, g))
    return gens


def theta_index(g: int) -> int:
    """Number of even theta characteristics, counted by enumeration.

    The refinements of the pairing are q_c(x) = q(x) + c.x for c in
    F_2^{2g}.  q vanishes on every basis vector, so q_c(e_i) = c_i and
    q_c(f_i) = c_{g+i}, and the Arf invariant sum q_c(e_i) q_c(f_i) is
    q(c).  The count of Arf-0 refinements is therefore the number of c
    with ``_q2(g, c) == 0``.  The result must match the closed form
    2^(2g-1) + 2^(g-1); a mismatch raises.
    """
    if not 1 <= g <= 6:
        raise ValueError("enumeration bound: 1 <= g <= 6")
    count = sum(1 for c in product((0, 1), repeat=2 * g) if _q2(g, c) == 0)
    expected = 2 ** (2 * g - 1) + 2 ** (g - 1)
    if count != expected:
        raise RuntimeError(f"theta enumeration gave {count}, "
                           f"closed form gives {expected}")
    return count

"""Wall's form (H, lambda, mu) and the three arithmetic automorphism-group
families.

Basis convention throughout the package: (e_1, ..., e_g, f_1, ..., f_g),
so the pairing matrix is the block form [[0, I], [eps*I, 0]] and the
standard quadratic refinement is q(x_1..x_g, y_1..y_g) = sum x_i y_i.
The form has one model here: ``j_matrix`` for the pairing and ``_q2`` for
q mod 2, the two things ``is_member`` tests.  The pairing test forms
A^T J A row by row, each row from the rows of JA that a column of A names
(see ``is_member``), and stops at the first row that differs from J.
Which family a dimension n gets (Theorem A) is
``mcg.automorphism_family``'s answer, read off ``cases.hopf``.

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
from functools import lru_cache
from itertools import product
from operator import neg

from .inputs import json_int, json_int_at_least
from .linalg import IntMatrix, combination

# entries of each memo: room for the distinct holonomies of an h = 84 class
# and their inverses
MEMO_SIZE = 256


class GroupFamily(enum.Enum):
    SP = "Sp"
    SPQ = "SpQ"
    OGG = "Ogg"


@lru_cache(maxsize=None, typed=True)
def j_matrix(g: int, epsilon: int) -> IntMatrix:
    """Block matrix [[0, I_g], [epsilon * I_g, 0]], one shared instance per
    (g, epsilon).  Invalid arguments raise on every call: the memo is typed,
    so 1.0 and True never meet the entries of 1, and reach the checks."""
    json_int_at_least(g, 1, "genus")
    if json_int(epsilon, "epsilon") not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    # rows f_1..f_g of the identity, then epsilon times rows e_1..e_g
    ident = IntMatrix.identity(2 * g).data
    return IntMatrix._of(ident[g:] + tuple(tuple(epsilon * x for x in r)
                                           for r in ident[:g]), 2 * g)


def _q2(g: int, x) -> int:
    return sum(x[i] * x[g + i] for i in range(g)) % 2


def _check(a: IntMatrix, g: int) -> None:
    """Refuse a genus that is not an integer >= 1 (by the ``json_int``
    rule, so 1.0 and True are refused) and a matrix that is not a 2g x 2g
    ``IntMatrix``, each with one ValueError."""
    json_int_at_least(g, 1, "genus")
    n = 2 * g
    if not isinstance(a, IntMatrix) or a.rows != n or a.cols != n:
        raise ValueError(f"matrix must be a {n}x{n} IntMatrix")


def is_member(family: GroupFamily, a: IntMatrix, g: int) -> bool:
    """Defining congruence of the family, with q checked on basis vectors.

    The arguments are checked on every call (see ``_check``); the verdict
    then comes from a memo of ``MEMO_SIZE`` entries keyed on
    (family, a.data, g), so each distinct matrix is tested once while it
    stays among the most recently used.

    The pairing test is A^T J A = J with J = j_matrix(g, eps), eps = +1
    for Ogg and -1 for Sp and SpQ, formed one row at a time and stopped at
    the first row that differs from the same row of J.  Row i is
    sum_k A[k][i] (JA)[k], where the rows of JA = (A_f; eps A_e) are those
    of A with its two halves swapped and the new second half times eps:
    the row is ``linalg.combination`` of the rows of JA by column i of A.
    The words in the generators that the cocycle path meets mostly have
    columns with one or two nonzero entries, so nearly every row is one
    row of JA, or a sum of two; no inverse is formed.
    Checking q on the 2g standard basis vectors suffices for SpQ: when a
    matrix preserves the pairing, q(Ax) - q(x) is linear mod 2 in x.
    """
    _check(a, g)
    return _verdict(family, a.data, g)


@lru_cache(maxsize=MEMO_SIZE)
def _verdict(family: GroupFamily, rows: tuple, g: int) -> bool:
    eps = 1 if family is GroupFamily.OGG else -1
    # row i of A^T J A is sum_k A[k][i] (JA)[k], with JA = (A_f; eps A_e)
    ja = rows[g:] + (rows[:g] if eps == 1
                     else tuple([tuple(map(neg, r)) for r in rows[:g]]))
    cols = tuple(zip(*rows))
    for c, want in zip(cols, j_matrix(g, eps).data):
        if combination(ja, c, 2 * g) != want:
            return False
    # q vanishes on every standard basis vector, so compare against 0
    return family is not GroupFamily.SPQ or all(_q2(g, c) == 0 for c in cols)


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


def _identity_with(g: int, entries: dict) -> IntMatrix:
    """The 2g x 2g identity with the entry at each (row, col) key of
    ``entries`` replaced by its value: the one builder of the swaps, the
    elementary matrix and the transvection below."""
    data = [list(r) for r in IntMatrix.identity(2 * g).data]
    for (i, j), x in entries.items():
        data[i][j] = x
    return IntMatrix._of(tuple(map(tuple, data)), 2 * g)


def _perm_pair(g: int, i: int) -> IntMatrix:
    """diag(P, P) for the transposition (i, i+1) of the g coordinates:
    the 2x2 blocks on e_i, e_i+1 and on f_i, f_i+1 become [[0, 1], [1, 0]]."""
    return _identity_with(g, {(a, b): int(a != b) for base in (0, g)
                              for a in (base + i, base + i + 1)
                              for b in (base + i, base + i + 1)})


def _elementary(g: int) -> IntMatrix:
    """block_diag(B, B^{-T}) with B the unipotent adding e_1 to e_2."""
    return _identity_with(g, {(1, 0): 1, (g, g + 1): -1})


def standard_generators(family: GroupFamily, g: int) -> list[IntMatrix]:
    """Generator lists backing the coinvariant computations.

    For g = 1 these generate the full group; for g >= 2 they are the
    specific elements the coinvariant arguments run on (plus enough to
    stay inside the family), not a certified generating set.
    """
    json_int_at_least(g, 1, "genus")
    if family is GroupFamily.OGG:
        if g == 1:
            return [IntMatrix([[-1, 0], [0, -1]]), IntMatrix([[0, 1], [1, 0]])]
        gens = [_perm_pair(g, i) for i in range(g - 1)]
        gens.append(j_matrix(g, 1))
        gens.append(_elementary(g))
        gens.append(-IntMatrix.identity(2 * g))
        return gens
    if family is GroupFamily.SPQ:
        if g == 1:
            return [IntMatrix([[1, 2], [0, 1]]), IntMatrix([[0, 1], [-1, 0]])]
        gens = [_perm_pair(g, i) for i in range(g - 1)]
        gens.append(-j_matrix(g, -1))
        gens.append(_elementary(g))
        return gens
    # Sp: the theta-group elements plus the unipotent T = [[1,1],[0,1]] on
    # the (e_1, f_1) coordinates
    gens = standard_generators(GroupFamily.SPQ, g)
    gens.append(_identity_with(g, {(0, g): 1}))
    return gens


def theta_index(g: int) -> int:
    """Number of even theta characteristics, counted by enumeration.

    The refinements of the pairing are q_c(x) = q(x) + c.x for c in
    F_2^{2g}.  q vanishes on every basis vector, so q_c(e_i) = c_i and
    q_c(f_i) = c_{g+i}, and the Arf invariant sum q_c(e_i) q_c(f_i) is
    q(c).  The count of Arf-0 refinements is therefore the number of c
    with ``_q2(g, c) == 0``.  ``verify``'s ``theta-characteristic-count``
    compares it with the closed form 2^(2g-1) + 2^(g-1).
    """
    bound = "enumeration bound: 1 <= g <= 6"
    if json_int_at_least(g, 1, "genus", bound) > 6:
        raise ValueError(bound)
    return sum(1 for c in product((0, 1), repeat=2 * g) if _q2(g, c) == 0)

"""Wall's quadratic form and the three arithmetic automorphism-group families.

Basis convention throughout the package: (e_1, ..., e_g, f_1, ..., f_g),
so the pairing matrix is the block form [[0, I], [eps*I, 0]] and the
standard quadratic refinement is q(x_1..x_g, y_1..y_g) = sum x_i y_i.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import mul, neg

from .cases import hopf
from .linalg import IntMatrix


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


@dataclass(frozen=True)
class WallForm:
    """Genus, symmetry sign, pairing matrix, and the value group of q.

    ``q_value_modulus`` encodes Z/Lambda_n: 0 means Z (n even), 2 means
    Z/2 (n odd, n not 1, 3 or 7), and 1 means the trivial group in the
    Hopf dimensions n = 1, 3, 7, where the automorphism group is Sp.
    """

    g: int
    epsilon: int
    lam: IntMatrix
    q_value_modulus: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        if self.lam != j_matrix(self.g, self.epsilon):
            raise ValueError("pairing matrix must be the standard block form")
        if self.q_value_modulus not in (0, 1, 2):
            raise ValueError("q value modulus must be 0, 1 or 2")

    @classmethod
    def for_params(cls, g: int, n: int) -> "WallForm":
        eps = 1 if n % 2 == 0 else -1
        qmod = 0 if n % 2 == 0 else 1 if hopf(n) else 2
        return cls(g=g, epsilon=eps, lam=j_matrix(g, eps), q_value_modulus=qmod)


def q_eval(form: WallForm, x) -> int:
    """Standard quadratic refinement sum x_i y_i, reduced into Z/Lambda_n."""
    x = list(x)
    if len(x) != 2 * form.g:
        raise ValueError("vector length must be 2g")
    s = sum(x[i] * x[form.g + i] for i in range(form.g))
    if form.q_value_modulus == 0:
        return s
    if form.q_value_modulus == 1:
        return 0
    return s % form.q_value_modulus


def _q2(g: int, x) -> int:
    return sum(x[i] * x[g + i] for i in range(g)) % 2


def is_member(family: GroupFamily, a: IntMatrix, g: int) -> bool:
    """Defining congruence of the family, with q checked on basis vectors.

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
    n = 2 * g
    if a.rows != n or a.cols != n:
        raise ValueError(f"matrix must be {n}x{n}")
    if family is GroupFamily.OGG:
        j = j_matrix(g, 1)
        return a.transpose() @ j @ a == j
    cols = tuple(zip(*a.data))
    jcols = [c[g:] + tuple(-x for x in c[:g]) for c in cols]
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
    transpose [[d^T, -b^T], [-c^T, a^T]].
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    n = 2 * g
    if a.rows != n or a.cols != n:
        raise ValueError(f"matrix must be {n}x{n}")
    t = tuple(zip(*a.data))  # A^T = [[a^T, c^T], [b^T, d^T]]
    top = tuple(r[g:] + tuple(map(neg, r[:g])) for r in t[g:])
    bottom = tuple(tuple(map(neg, r[g:])) + r[:g] for r in t[:g])
    return IntMatrix._of(top + bottom, n)


def _embed_2x2(m2: list[list[int]], g: int, block: int = 0) -> IntMatrix:
    """Put a 2x2 matrix on the (e_block, f_block) coordinates."""
    n = 2 * g
    data = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    i, k = block, g + block
    data[i][i] = m2[0][0]
    data[i][k] = m2[0][1]
    data[k][i] = m2[1][0]
    data[k][k] = m2[1][1]
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

    Runs over all c in F_2^{2g}, forms q_c(x) = q(x) + c.x, computes the
    Arf invariant sum q_c(e_i) q_c(f_i), and counts the Arf-0 refinements.
    The result must match the closed form 2^(2g-1) + 2^(g-1); a mismatch
    raises.
    """
    if not 1 <= g <= 6:
        raise ValueError("enumeration bound: 1 <= g <= 6")
    form = WallForm.for_params(g, 5)  # odd n outside 1, 3, 7: value group Z/2
    n = 2 * g
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    count = 0
    for c in product((0, 1), repeat=n):
        def qc(x):
            return (q_eval(form, x) + sum(a * b for a, b in zip(c, x))) % 2
        arf = sum(qc(basis[i]) * qc(basis[g + i]) for i in range(g)) % 2
        if arf == 0:
            count += 1
    expected = 2 ** (2 * g - 1) + 2 ** (g - 1)
    if count != expected:
        raise RuntimeError(f"theta enumeration gave {count}, "
                           f"closed form gives {expected}")
    return count

"""Signature and chi^2 evaluations on explicit second-homology classes.

A class is a tuple of matrix pairs (A_i, B_i) whose commutator product is
the identity; it stands for a map from a genus-h surface into the
classifying space of the symplectic group, recorded by its holonomies.
One type, ``SurfaceClass``, holds it, with optional translation vectors
that lift it to the affine group Z^2g x| Sp_2g(Z).  The signature pairing
is evaluated through an integral 2-cocycle against a canonical bar-complex
2-cycle filling the surface relator; the chi^2 pairing, which needs the
translations, is the cup square of the translation 1-cocycle, paired with
the symplectic form.

Two cocycles give the signature, and they differ by a coboundary, which
pairs to 0 with a 2-cycle (Turaev 1984; Barge-Ghys 1992).  A class is
evaluated through the Maslov cocycle m(A, B) = mu(L, A L, A B L) of the
fixed Lagrangian L = span(e_1..e_g), mu being the Kashiwara index; Meyer's
cocycle, ``meyer_tau``, is the second algorithm, which ``verify`` and the
tests sum over the same 2-cycle.  Meyer cocycle model used here: for A, B
symplectic, put

    V = {(x, y) : (A^{-1} - 1) x + (B - 1) y = 0},
    beta((x1, y1), (x2, y2)) = (x1 + y1)^T . J . (1 - B) . y2,

and take the signature of the restriction of beta to V, which is
symmetric.  The sign and transpose conventions are pinned by the invariant
suite (cocycle identity, vanishing on torus classes, divisibility by 4);
``exact_signature`` refuses an asymmetric matrix, so every term checks that
beta is symmetric on V.  By Sylvester's law the signature depends only on
V (x) Q, so V is taken from a rational kernel basis.  The Maslov route
has the same sign on the classes of signature +-4 and +-8.

Inputs are validated once per matrix value, at the boundary:
``meyer_tau`` checks that both matrices are symplectic, and
``SurfaceClass`` checks its genus and every holonomy on construction, so
``signature_of_class`` evaluates its terms without re-checking them.  The
membership verdict and the inverse come from the bounded memos of
``symplectic``, so a matrix that ``meyer_tau``, a class, its walk or a
conjugate meets again is checked and inverted once while it stays in
them.  Meyer terms that are zero by the formula are skipped: if B = I
then 1 - B = 0; if A = I then every (x, y) in V has (B - 1) y = 0; if
B = A^{-1} then x + y is fixed by A on V, and A-invariance of J gives
(x + y)^T J A^{-1} y2 = (A (x + y))^T J y2 = (x + y)^T J y2, so beta = 0.

Each remaining Meyer term costs one inverse (once per matrix value), one
pass over int lists and one signature.  A^{-1} serves both the B = A^{-1}
test and the rows [A^{-1} - 1 | B - 1], 2g x 4g; their elimination, the
kernel columns, w over the nonzero y_k and the Gram matrix of beta stay
int lists.  The Gram is taken on V modulo the kernel columns in its
radical, those with w = 0: every free x column, and y in Fix B.  Dropping
them is exact, because A- and B-invariance of J make Fix A orthogonal to
Im(1 - A^{-1}) and Fix B to Im(B - 1), so their rows vanish as well as
their columns; those rows are still computed and checked, so the symmetry
check covers all of V.

A class's signature costs less: sum_k mu(L, P_{k-1} L, P_k L) over the
prefix products P_k it already holds, each term one kernel of a g x 2g
matrix and the signature of a Gram of dimension at least g, with no
inverse (see ``signature_of_class``).  A term is skipped when P_{k-1},
P_k or the letter X_k keeps L; the benchmark's generators move L only
through the swap of e and f, so most of its terms are skipped.  A class
walks its relator word once, on construction, and keeps one table: the
letters, the prefix products and the identity (and, with translations,
the matching vectors: the letter moves, the prefix shifts and 0).  The
canonical 2-cycle is a list of (i, j, coeff) over indices into that
table; it depends only on h, so it is built, and its boundary checked on
free-group words, once per h.  Both pairings read the table, and neither
forms a product.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, compress
from math import gcd, lcm
from operator import add, matmul, mul, neg
from typing import Sequence

from .cases import divided, functional
from .inputs import (Record, json_int, json_int_at_least, json_pairs,
                     json_vector, read_json)
from .linalg import IntMatrix, exact_signature
from .symplectic import GroupFamily, is_member, j_matrix, sp_inverse

Vector = tuple[int, ...]
_FIELDS = ("g", "pairs", "translations", "table", "vectors")


def _relator_walk(pairs, inverse, product) -> tuple[list, list]:
    """Letters of the relator word a1 b1 a1^-1 b1^-1 ... and their prefix
    products."""
    letters = [x for a, b in pairs for x in (a, b, inverse(a), inverse(b))]
    return letters, list(accumulate(letters, product))


def _walk(g: int, pairs, translations) -> tuple:
    """The genus-h table (X_0..X_{4h-1}, P_0..P_{4h-1}, e) of relator
    letters and prefix products, and its vectors (u_0.., t_0.., 0): moves
    u_k (translations of X_k) and shifts t_k = t_{k-1} + P_{k-1} u_k, or
    None without translations."""
    letters, prefixes = _relator_walk(pairs, lambda a: sp_inverse(a, g),
                                      matmul)
    table = (*letters, *prefixes, IntMatrix.identity(2 * g))
    if translations is None:
        return table, None
    moves: list[Vector] = []
    for (v, w), ainv, binv in zip(translations, letters[2::4], letters[3::4]):
        moves += [v, w, tuple(map(neg, ainv.mult_vec(v))),
                  tuple(map(neg, binv.mult_vec(w)))]
    shifts = [moves[0]]
    for p, u in zip(prefixes, moves[1:]):
        shifts.append(tuple(map(add, shifts[-1], p.mult_vec(u))))
    return table, (*moves, *shifts, (0,) * 2 * g)


def _genus(g) -> int:
    """g, if it is an integer >= 1 by the ``json_int`` rule."""
    return json_int_at_least(g, 1, "genus g")


class SurfaceClass(Record):
    """Genus-h tuple of symplectic matrix pairs with trivial total relator,
    optionally with translations (v_i, w_i) such that the pairs
    ((v_i, A_i), (w_i, B_i)) satisfy the relator in Z^2g x| Sp_2g(Z).

    Validation walks the relator once and keeps the result (see ``_walk``)
    as ``table`` and ``vectors``, which equality, hash and repr leave out.
    """

    _fields = _FIELDS[:3]

    def __init__(self, g: int, pairs: tuple[tuple[IntMatrix, IntMatrix], ...],
                 translations: tuple[tuple[Vector, Vector], ...] | None = None):
        self.__dict__.update(g=g, pairs=pairs, translations=translations)
        self.__post_init__()

    def __post_init__(self):
        """Checks and walks the class.  It is kept apart from ``__init__``
        because the benchmark (``perfbench/layers.py``) times validations
        by patching ``SurfaceClass.__post_init__``, a name that
        ``tests/test_bench_names.py`` pins."""
        _genus(self.g)
        if not self.pairs:
            raise ValueError("a surface class needs genus h >= 1")
        pairs = tuple(tuple(p) for p in self.pairs)
        if not all(is_member(GroupFamily.SP, m, self.g)
                   for p in pairs for m in p):
            raise ValueError("holonomy matrix is not symplectic")
        tr = self.translations
        if tr is not None:
            n = 2 * self.g
            tr = tuple((json_vector(v, n, "translation vectors"),
                        json_vector(w, n, "translation vectors"))
                       for v, w in tr)
            if len(tr) != len(pairs):
                raise ValueError("one translation pair per matrix pair")
        walk = _walk(self.g, pairs, tr)
        self.__dict__.update(zip(_FIELDS[1:], (pairs, tr, *walk)))
        if self.table[-2] != self.table[-1]:
            raise ValueError("commutator relator does not close up")
        if tr is not None and any(self.vectors[-2]):
            raise ValueError("affine relator does not close up; the crossed "
                             "homomorphism is ill-defined")

    @property
    def h(self) -> int:
        return len(self.pairs)

    def all_in_theta_group(self) -> bool:
        return all(is_member(GroupFamily.SPQ, m, self.g)
                   for p in self.pairs for m in p)

    def conjugated(self, p: IntMatrix) -> "SurfaceClass":
        """Conjugate by a symplectic p: (v, A) -> (p v, p A p^-1).  That
        keeps the relator closed, so only p is checked."""
        if not is_member(GroupFamily.SP, p, self.g):
            raise ValueError("conjugating matrix is not symplectic")
        pinv = sp_inverse(p, self.g)
        pairs = tuple((p @ a @ pinv, p @ b @ pinv) for a, b in self.pairs)
        tr = None if self.translations is None else tuple(
            (tuple(p.mult_vec(v)), tuple(p.mult_vec(w)))
            for v, w in self.translations)
        table, vectors = _walk(self.g, pairs, tr)
        return self._trusted(g=self.g, pairs=pairs, translations=tr,
                             table=table, vectors=vectors)

    def scaled_translations(self, t: int) -> "SurfaceClass":
        """Multiply the translations, and so the walk's vectors, by the
        integer t; the table is kept."""
        t = json_int(t, "the scale factor")
        if self.translations is None:
            raise ValueError("scaling needs a class with translation data")

        def scale(vectors):
            return tuple(tuple(t * x for x in v) for v in vectors)

        return self._trusted(g=self.g, pairs=self.pairs,
                             translations=tuple(map(scale, self.translations)),
                             table=self.table, vectors=scale(self.vectors))

    def to_json_dict(self) -> dict:
        d = super().to_json_dict()
        if self.translations is None:
            del d["translations"]
        return {"g": self.g, "h": self.h, **d}


# the old name of a class with translations, which perfbench still names
AffineSurfaceClass = SurfaceClass


def _free_product(u: Vector, v: Vector) -> Vector:
    """Product of reduced free-group words in signed generator indices."""
    k = 0
    while k < min(len(u), len(v)) and u[-1 - k] == -v[k]:
        k += 1
    return u[:len(u) - k] + v[k:]


def _fills_relator(h: int, index_terms) -> bool:
    """Whether the bar boundary of the terms, on the free-group words of
    the genus-h table (letters, prefixes, e), is exactly [e] - [relator]."""
    letters, prefixes = _relator_walk(
        [((i,), (i + 1,)) for i in range(1, 2 * h, 2)], lambda w: (-w[0],),
        _free_product)
    words = (*letters, *prefixes, ())
    chain: dict[Vector, int] = {}
    for i, j, c in index_terms:
        for w, s in ((words[j], c), (_free_product(words[i], words[j]), -c),
                     (words[i], c)):
            chain[w] = chain.get(w, 0) + s
    return {w: c for w, c in chain.items() if c} == {(): 1, words[-2]: -1}


@lru_cache(maxsize=None)
def _filling(h: int) -> tuple[tuple[int, int, int], ...]:
    """Canonical filling of the genus-h relator: sum_{k=1..4h-1}
    [P_{k-1} | X_k] minus [x | x^-1] for each of the 2h holonomies x,
    minus (2h - 1) [e | e], over the table indices of X_k (k), P_k
    (4h + k) and e (8h).  Its size is 8h - 2.  ``verify``'s
    ``canonical-filling-boundary`` checks with ``_fills_relator`` that its
    bar boundary is [e] - [relator]."""
    n = 4 * h
    terms = [(n + k - 1, k, 1) for k in range(1, n)]
    for first in (0, 1):  # the a-holonomies, then the b-holonomies
        terms += [(4 * i + first, 4 * i + first + 2, -1) for i in range(h)]
    terms.append((2 * n, 2 * n, 1 - 2 * h))
    return tuple(terms)


def surface_two_cycle(cls: SurfaceClass) -> tuple[tuple[int, int, int], ...]:
    """Canonical bar 2-cycle filling the surface relator of a class, as
    (i, j, coeff) over its table: the chain sum coeff [table[i] | table[j]]."""
    return _filling(cls.h)


def meyer_tau(a: IntMatrix, b: IntMatrix, g: int) -> int:
    """Meyer's signature cocycle evaluated on a pair of symplectic matrices."""
    for m in (a, b):
        if not is_member(GroupFamily.SP, m, g):
            raise ValueError("Meyer cocycle needs symplectic matrices")
    return _tau(a, b, g)


def _kernel_columns(a: list[list[int]], nc: int) -> list[list[int]]:
    """Primitive basis of ker(M) over Q, for the rows ``a`` of M with
    ``nc`` columns (the list is reordered, no row is changed): fraction-free
    Gauss-Jordan, a pivot d = a[r][c] clearing column c from each other row
    by a[i] <- d a[i] - a[i][c] a[r] over its content.  With L the lcm of
    the pivots d_r, free column f gives L e_f - sum_r (L / d_r) a[r][f]
    e_{p_r} over its content: the one primitive kernel vector on f and the
    pivot columns p_r with f coordinate > 0, so the basis depends on M only.
    """
    nr = len(a)
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        for p in range(r, nr):
            if a[p][c]:
                break
        else:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        d = prow[c]
        for i in [i for i, row in enumerate(a) if row[c] and i != r]:
            f = a[i][c]
            row = [d * x - f * y for x, y in zip(a[i], prow)]
            content = gcd(*row)
            a[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
    den = lcm(*(a[r][c] for r, c in enumerate(pivots)))
    scaled = [(c, -den // a[r][c], a[r]) for r, c in enumerate(pivots)]
    out = []
    for f in sorted(set(range(nc)).difference(pivots)):
        v = [0] * nc
        v[f] = den
        for c, s, row in scaled:
            v[c] = s * row[f]
        content = gcd(*v)
        out.append([x // content for x in v] if content > 1 else v)
    return out


def _meyer_form(ainv: IntMatrix, b: IntMatrix, g: int) -> IntMatrix:
    """Matrix of beta on V = ker [A^-1 - 1 | B - 1] modulo the kernel
    columns that lie in its radical, in one pass over int lists: the rows,
    their kernel columns (x, y), then (B - 1) y = -w over the nonzero y_k
    only, and beta(u_i, u_j) = (x_i + y_i) . J w_j, J w = (w_f, -w_e).

    A column with w = 0 (every free x column, and y in Fix B) is a zero
    column of the Gram matrix, so it is dropped.  Its row is zero too when
    A and B are symplectic: such a column has x in Fix A and y in Fix B,
    and A-invariance of J makes Fix A orthogonal to Im(1 - A^-1), and
    Fix B to Im(B - 1), while (B - 1) y_j = (1 - A^-1) x_j for every j.
    The full Gram is then the kept block plus zero rows and columns, with
    the same signature.  Each dropped row is still computed: a nonzero one
    is kept, after the rest and against a zero column, so the form is
    asymmetric exactly when beta is asymmetric on all of V.
    """
    n = 2 * g
    rows = [[*ra, *rb] for ra, rb in zip(ainv.data, b.data)]
    for i, row in enumerate(rows):
        row[i] -= 1
        row[n + i] -= 1
    zs, jw = [], []
    for v in _kernel_columns(rows[:], 2 * n):
        y = v[n:]
        zs.append(list(map(add, v, y)))
        u = [0] * n
        for k, c in enumerate(y, n):
            if c:
                u = [t + c * r[k] for t, r in zip(u, rows)]
        jw.append([-t for t in u[g:]] + u[:g])
    flags = list(map(any, jw))
    live = list(compress(jw, flags))
    kept, stray = [], []
    for z, f in zip(zs, flags):
        r = tuple([sum(map(mul, z, t)) for t in live])
        if f:
            kept.append(r)
        elif any(r):
            stray = [r]
    if stray:  # asymmetric on V: one nonzero dropped row, zero column
        kept = [r + (0,) for r in kept + stray]
    return IntMatrix._of(tuple(kept), len(kept))


def _tau(a: IntMatrix, b: IntMatrix, g: int) -> int:
    """Meyer cocycle of two matrices already known to be symplectic."""
    ident = IntMatrix.identity(2 * g)
    if a == ident or b == ident:
        return 0
    ainv = sp_inverse(a, g)
    if b == ainv:
        return 0
    return exact_signature(_meyer_form(ainv, b, g))


def beta_is_symmetric_on_kernel(a: IntMatrix, b: IntMatrix, g: int) -> bool:
    """Convention self-check: the Meyer form restricted to all of V is
    symmetric (the dropped radical rows included, see ``_meyer_form``)."""
    form = _meyer_form(sp_inverse(a, g), b, g)
    return form - form.transpose() == IntMatrix.zeros(form.rows, form.cols)


def _maslov_term(m0: list, m1: list, g: int) -> int:
    """mu(L, P0 L, P1 L) for L = span(e_1..e_g), from the first g columns
    M0, M1 of P0 and P1, given as their 2g rows.

    K = {(t, u) : f0 t + f1 u = 0}, with f0, f1 the f-parts (the last g
    rows) of M0 and M1, is the kernel of a g x 2g matrix, and on K the
    Kashiwara form of the three Lagrangians is 3 omega(M0 t, M1 u); its
    polar form, on a kernel basis, is the Gram t_i^T N u_j with
    N = M0^T J M1, taken here as the pairing of the vectors M0 t_i and
    J M1 u_j.  It is symmetric because all three spaces are isotropic, so
    ``exact_signature`` refusing an asymmetric Gram checks that P0 L and
    P1 L are isotropic on K.
    """
    j = j_matrix(g, -1).data
    ker = _kernel_columns([a + b for a, b in zip(m0[g:], m1[g:])], 2 * g)
    xs = [[sum(map(mul, r, t)) for r in m0] for t in (v[:g] for v in ker)]
    ys = [[sum(map(mul, r, u)) for r in m1] for u in (v[g:] for v in ker)]
    jys = [[sum(map(mul, r, y)) for r in j] for y in ys]
    gram = tuple([tuple([sum(map(mul, x, jy)) for jy in jys]) for x in xs])
    return exact_signature(IntMatrix._of(gram, len(gram)))


def signature_of_class(cls: SurfaceClass) -> int:
    """Pairing of the signature cocycle with the canonical 2-cycle, through
    the Maslov cocycle m(A, B) = mu(L, A L, A B L) of L = span(e_1..e_g).

    Meyer's cocycle and m differ by a coboundary (Turaev 1984; Barge-Ghys
    1992), which pairs to 0 with the 2-cycle, so the pairing is unchanged.
    On the canonical filling m vanishes on every [x | x^-1] and [e | e]
    term, and on [P_{k-1} | X_k] for k = 4h - 1 (there P_k = I), so the
    signature is sum_{k=1..4h-2} mu(L, P_{k-1} L, P_k L) over the prefix
    products the class already holds: no inverse and no identity test.  A
    term is 0 when P_{k-1} or P_k keeps L (its f-part is 0), and when X_k
    keeps L, as then P_k L = P_{k-1} L.  The sign of the term (the order of
    the Lagrangians, and J against -J) is pinned by the classes of
    signature +-4 and +-8, on which this route and Meyer's ``meyer_tau``
    summed over ``surface_two_cycle`` agree.  Translations play no part.
    """
    g, h = cls.g, cls.h
    t = cls.table
    total, prev = 0, None
    for k in range(4 * h - 1):  # P_0 .. P_{4h-2}
        m = [r[:g] for r in t[4 * h + k].data]
        if not any(map(any, m[g:])):
            prev = None
            continue
        if prev is not None and any(any(r[:g]) for r in t[k].data[g:]):
            total += _maslov_term(prev, m, g)
        prev = m
    return total


def chi2_of_class(cls: SurfaceClass) -> int:
    """Cup square of the translation cocycle against the symplectic form.

    Evaluates sum(coeff * lambda(u[i], t[i] u[j])) over the canonical
    2-cycle, with t the class's table and u its vectors, the values of the
    crossed homomorphism of its translations.
    """
    if cls.translations is None:
        raise ValueError("chi^2 needs a class with translation data")
    j = j_matrix(cls.g, -1)
    t, u = cls.table, cls.vectors
    total = 0
    for i, k, c in surface_two_cycle(cls):
        ju = j.mult_vec(t[i].mult_vec(u[k]))
        total += c * sum(map(mul, u[i], ju))
    return total


def divided_eval(which: str, cls) -> int:
    """Divided characteristic classes as integer-valued functionals.

    ``sgn/8`` needs every holonomy in the theta group.  A name outside
    ``cases.DIVIDED_FUNCTIONALS`` is refused before any pairing is
    computed.  Only the invariants the functional names are computed, and
    ``cases.divided`` checks the divisibility, never assuming it: a
    failure signals either input outside the functional's regime or an
    implementation fault, and raises ValueError.
    """
    functional(which)
    if which == "sgn/8" and not cls.all_in_theta_group():
        raise ValueError("sgn/8 needs all holonomies in the theta group")
    sgn = signature_of_class(cls) if "sgn" in which else None
    chi2 = chi2_of_class(cls) if "chi2" in which else None
    return divided(which, sgn, chi2)


def _json_matrix(x, n: int) -> IntMatrix:
    if not isinstance(x, list) or len(x) != n:
        raise ValueError(f"holonomy matrices must be {n}x{n}")
    # json_vector checks each row, so the matrix is built unchecked
    return IntMatrix._of(tuple(json_vector(r, n, "matrix rows") for r in x), n)


def class_from_json_dict(d: dict) -> SurfaceClass:
    """Parse the class-file schema into a surface class.

    Malformed input raises ValueError with a one-line message: a top-level
    value that is not an object, a missing ``g`` or ``pairs``, non-integer
    entries, ragged or wrongly sized matrices, translations of the wrong
    length, or a relator that does not close up.
    """
    if not isinstance(d, dict):
        raise ValueError("a class file must hold a JSON object")
    for key in ("g", "pairs"):
        if key not in d:
            raise ValueError(f"class file has no {key!r} entry")
    g = _genus(d["g"])
    n = 2 * g
    pairs = tuple((_json_matrix(a, n), _json_matrix(b, n))
                  for a, b in json_pairs(d["pairs"], "pairs", "A, B"))
    if "h" in d and json_int(d["h"], "h") != len(pairs):
        raise ValueError("h does not match the number of pairs")
    tr = d.get("translations")
    if tr is not None:
        tr = json_pairs(tr, "translations", "v, w")
    return SurfaceClass(g, pairs, tr)


def load_class_file(path: str) -> SurfaceClass:
    """Read a class file; every ValueError, invalid JSON included, becomes
    one line that starts with ``class file <path>:``."""
    return read_json(path, "class file", class_from_json_dict)


# ---------------------------------------------------------------------------
# class generators for the randomized property suites

def random_symplectic(g: int, rng, generators: Sequence[IntMatrix],
                      max_length: int = 6) -> IntMatrix:
    """Random product of the given generators and their inverses."""
    word = []
    for _ in range(rng.randint(1, max_length)):
        a = generators[rng.randrange(len(generators))]
        word.append(sp_inverse(a, g) if rng.random() < 0.5 else a)
    return reduce(matmul, word)


def sp_power(a: IntMatrix, k: int, g: int) -> IntMatrix:
    """A^k for a symplectic A, as |k| products with A or with A^-1."""
    step = a if k >= 0 else sp_inverse(a, g)
    return reduce(matmul, [step] * abs(k), IntMatrix.identity(2 * g))


def random_surface_class(g: int, h: int, rng,
                         generators: Sequence[IntMatrix]) -> SurfaceClass:
    """Random valid class built from seeds with identically trivial relator.

    Blocks of genus 2 use the pair-and-swapped-pair seed ((A,B),(B,A)),
    since [A,B][B,A] = 1 identically; leftover genus is filled with
    commuting torus pairs (A, A^k).  The whole tuple is optionally
    conjugated by a random symplectic matrix, which preserves validity.
    """
    pairs: list[tuple[IntMatrix, IntMatrix]] = []
    remaining = h
    while remaining:
        a = random_symplectic(g, rng, generators, 5)
        if remaining >= 2 and rng.random() < 0.7:
            b = random_symplectic(g, rng, generators, 5)
            pairs += [(a, b), (b, a)]
            remaining -= 2
        else:
            pairs.append((a, sp_power(a, rng.choice([-2, -1, 0, 1, 2]), g)))
            remaining -= 1
    cls = SurfaceClass(g, tuple(pairs))
    if rng.random() < 0.5:
        cls = cls.conjugated(random_symplectic(g, rng, generators, 5))
    return cls


def random_affine_class(g: int, h: int, rng,
                        generators: Sequence[IntMatrix]) -> SurfaceClass:
    """Random valid class with translations.

    Torus blocks (identity holonomies) admit arbitrary translations; other
    blocks get principal translations u(x) = (rho(x) - 1) m for a random m,
    which satisfy any relator.  Translation entries lie in [-3, 3]; for
    the index-2 lattice convention of the n = 3, 7 functional, take
    ``.scaled_translations(2)`` of the result.
    """
    n = 2 * g

    def rand_vec():
        return tuple(rng.randint(-3, 3) for _ in range(n))

    pairs: list[tuple[IntMatrix, IntMatrix]] = []
    translations: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    ident = IntMatrix.identity(n)
    remaining = h
    while remaining:
        if rng.random() < 0.5 or remaining == 1:
            pairs.append((ident, ident))
            translations.append((rand_vec(), rand_vec()))
            remaining -= 1
        else:
            a = random_symplectic(g, rng, generators)
            b = random_symplectic(g, rng, generators)
            m = list(rand_vec())
            va = tuple(p - q for p, q in zip(a.mult_vec(m), m))
            vb = tuple(p - q for p, q in zip(b.mult_vec(m), m))
            pairs += [(a, b), (b, a)]
            translations += [(va, vb), (vb, va)]
            remaining -= 2
    return SurfaceClass(g, tuple(pairs), tuple(translations))

"""Signature and chi^2 evaluations on explicit second-homology classes.

A class is a tuple of matrix pairs (A_i, B_i) whose commutator product is
the identity; it stands for a map from a genus-h surface into the
classifying space of the symplectic group, recorded by its holonomies.
One type, ``SurfaceClass``, holds it, with optional translation vectors
that lift it to the affine group Z^2g x| Sp_2g(Z).  The signature pairing
is evaluated through an integral 2-cocycle (Meyer's signature cocycle)
against a canonical bar-complex 2-cycle filling the surface relator; the
chi^2 pairing, which needs the translations, is the cup square of the
translation 1-cocycle, paired with the symplectic form.

Meyer cocycle model used here: for A, B symplectic, put

    V = {(x, y) : (A^{-1} - 1) x + (B - 1) y = 0},
    beta((x1, y1), (x2, y2)) = (x1 + y1)^T . J . (1 - B) . y2,

and take the signature of the restriction of beta to V, which is
symmetric.  The sign and transpose conventions are pinned by the invariant
suite (cocycle identity, vanishing on torus classes, divisibility by 4);
``exact_signature`` refuses an asymmetric matrix, so every term checks that
beta is symmetric on V.  By Sylvester's law the signature depends only on
V (x) Q, so V is taken from a rational kernel basis.

Inputs are validated once, at the boundary: ``meyer_tau`` checks that
both matrices are symplectic, and ``SurfaceClass`` checks every holonomy
on construction, so ``signature_of_class`` evaluates its terms without
re-checking them.  Terms that are zero by the formula are skipped: if
B = I then 1 - B = 0; if A = I then every (x, y) in V has (B - 1) y = 0;
if B = A^{-1} then x + y is fixed by A on V, and A-invariance of J gives
(x + y)^T J A^{-1} y2 = (A (x + y))^T J y2 = (x + y)^T J y2, so beta = 0.

Each remaining term costs one inverse, one pass over int lists and one
signature.  A^{-1} serves both the B = A^{-1} test and the rows
[A^{-1} - 1 | B - 1]; their elimination, the kernel columns, w over the
nonzero y_k and the Gram matrix of beta stay int lists, and only the Gram
becomes an ``IntMatrix``, for ``exact_signature`` (in four rounds of the
benchmark's cocycle sweep, 1,848 of 4,056 terms get this far, at about
0.1 ms each at its reference host speed).  A class walks its relator word
once, on construction, and keeps one table: the letters, the prefix
products and the identity (and, with translations, the matching vectors:
the letter moves, the prefix shifts and 0).  The canonical 2-cycle is a
list of (i, j, coeff) over indices into that table; it depends only on h,
so it is built, and its boundary checked on free-group words, once per h.
Both pairings read the table through it, and neither forms a product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import accumulate
from math import gcd, lcm
from operator import add, matmul, mul
from typing import Sequence

from .cases import divided
from .inputs import json_int, json_pairs, json_vector, read_json
from .linalg import IntMatrix, exact_signature
from .symplectic import GroupFamily, is_member, j_matrix, sp_inverse

Vector = tuple[int, ...]
_FIELDS = ("g", "pairs", "translations", "table", "vectors")
_walked = partial(field, init=False, repr=False, compare=False)


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
        moves += [v, w, tuple(-t for t in ainv.mult_vec(v)),
                  tuple(-t for t in binv.mult_vec(w))]
    shifts = [moves[0]]
    for p, u in zip(prefixes, moves[1:]):
        shifts.append(tuple(map(add, shifts[-1], p.mult_vec(u))))
    return table, (*moves, *shifts, (0,) * 2 * g)


@dataclass(frozen=True)
class SurfaceClass:
    """Genus-h tuple of symplectic matrix pairs with trivial total relator,
    optionally with translations (v_i, w_i) such that the pairs
    ((v_i, A_i), (w_i, B_i)) satisfy the relator in Z^2g x| Sp_2g(Z).

    Validation walks the relator once and keeps the result (see ``_walk``).
    """

    g: int
    pairs: tuple[tuple[IntMatrix, IntMatrix], ...]
    translations: tuple[tuple[Vector, Vector], ...] | None = None
    table: tuple[IntMatrix, ...] = _walked()
    vectors: tuple[Vector, ...] | None = _walked()

    def __post_init__(self):
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
        self.__dict__.update(zip(_FIELDS[1:], (pairs, tr, *walk)))  # frozen
        if self.table[-2] != self.table[-1]:
            raise ValueError("commutator relator does not close up")
        if tr is not None and any(self.vectors[-2]):
            raise ValueError("affine relator does not close up; the crossed "
                             "homomorphism is ill-defined")

    @classmethod
    def _unchecked(cls, *values) -> "SurfaceClass":
        """A class from data that is valid by construction."""
        new = object.__new__(cls)
        new.__dict__.update(zip(_FIELDS, values))
        return new

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
        return self._unchecked(self.g, pairs, tr, *_walk(self.g, pairs, tr))

    def scaled_translations(self, t: int) -> "SurfaceClass":
        """Multiply the translations, and so the walk's vectors, by the
        integer t; the table is kept."""
        t = json_int(t, "the scale factor")
        if self.translations is None:
            raise ValueError("scaling needs a class with translation data")

        def scale(vectors):
            return tuple(tuple(t * x for x in v) for v in vectors)

        return self._unchecked(self.g, self.pairs,
                               tuple(map(scale, self.translations)),
                               self.table, scale(self.vectors))

    def to_json_dict(self) -> dict:
        d = {"g": self.g, "h": self.h,
             "pairs": [[a.to_lists(), b.to_lists()] for a, b in self.pairs]}
        if self.translations is not None:
            d["translations"] = [[list(v), list(w)]
                                 for v, w in self.translations]
        return d


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
    (4h + k) and e (8h).  Its size is 8h - 2."""
    n = 4 * h
    terms = [(n + k - 1, k, 1) for k in range(1, n)]
    for first in (0, 1):  # the a-holonomies, then the b-holonomies
        terms += [(4 * i + first, 4 * i + first + 2, -1) for i in range(h)]
    terms.append((2 * n, 2 * n, 1 - 2 * h))
    if not _fills_relator(h, terms):
        raise RuntimeError("canonical filling has nonzero boundary")
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
    """Matrix of beta on a rational basis of V = ker [A^-1 - 1 | B - 1], in
    one pass over int lists: the rows, their kernel columns (x, y), then
    (B - 1) y = -w over the nonzero y_k only (one, when every pivot falls in
    the x block), and beta(u_i, u_j) = (x_i + y_i) . J w_j, J w = (w_f, -w_e).
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
    return IntMatrix._of(tuple(tuple([sum(map(mul, z, t)) for t in jw])
                               for z in zs), len(zs))


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
    """Convention self-check: the Meyer form restricted to V is symmetric."""
    form = _meyer_form(sp_inverse(a, g), b, g)
    return form - form.transpose() == IntMatrix.zeros(form.rows, form.cols)


def signature_of_class(cls: SurfaceClass) -> int:
    """Pairing of the signature cocycle with the canonical 2-cycle.

    The class validated every holonomy on construction, and every term of
    the 2-cycle is a product of holonomies and their inverses, so the terms
    go to the unchecked evaluator.  Translations play no part.
    """
    t = cls.table
    return sum(c * _tau(t[i], t[j], cls.g)
               for i, j, c in surface_two_cycle(cls))


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
        total += c * sum(x * y for x, y in zip(u[i], ju))
    return total


def divided_eval(which: str, cls) -> int:
    """Divided characteristic classes as integer-valued functionals.

    ``sgn/8`` needs every holonomy in the theta group.  Only the invariants
    the functional names are computed, and ``cases.divided`` checks the
    divisibility, never assuming it: a failure signals either input outside
    the functional's regime or an implementation fault, and raises
    ValueError.
    """
    if which == "sgn/8" and not cls.all_in_theta_group():
        raise ValueError("sgn/8 needs all holonomies in the theta group")
    sgn = signature_of_class(cls) if "sgn" in which else None
    chi2 = chi2_of_class(cls) if "chi2" in which else None
    return divided(which, sgn, chi2)


def _json_matrix(x, n: int) -> IntMatrix:
    if not isinstance(x, list) or len(x) != n:
        raise ValueError(f"holonomy matrices must be {n}x{n}")
    return IntMatrix([json_vector(r, n, "matrix rows") for r in x])


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
    g = json_int(d["g"], "g")
    if g < 1:
        raise ValueError("genus g must be >= 1")
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
                         generators: Sequence[IntMatrix],
                         max_length: int = 5) -> SurfaceClass:
    """Random valid class built from seeds with identically trivial relator.

    Blocks of genus 2 use the pair-and-swapped-pair seed ((A,B),(B,A)),
    since [A,B][B,A] = 1 identically; leftover genus is filled with
    commuting torus pairs (A, A^k).  The whole tuple is optionally
    conjugated by a random symplectic matrix, which preserves validity.
    """
    pairs: list[tuple[IntMatrix, IntMatrix]] = []
    remaining = h
    while remaining:
        a = random_symplectic(g, rng, generators, max_length)
        if remaining >= 2 and rng.random() < 0.7:
            b = random_symplectic(g, rng, generators, max_length)
            pairs += [(a, b), (b, a)]
            remaining -= 2
        else:
            pairs.append((a, sp_power(a, rng.choice([-2, -1, 0, 1, 2]), g)))
            remaining -= 1
    cls = SurfaceClass(g, tuple(pairs))
    if rng.random() < 0.5:
        cls = cls.conjugated(random_symplectic(g, rng, generators, max_length))
    return cls


def random_affine_class(g: int, h: int, rng,
                        generators: Sequence[IntMatrix],
                        span: int = 3, even_translations: bool = False
                        ) -> SurfaceClass:
    """Random valid class with translations.

    Torus blocks (identity holonomies) admit arbitrary translations; other
    blocks get principal translations u(x) = (rho(x) - 1) m for a random m,
    which satisfy any relator.  ``even_translations`` doubles everything,
    staying in the index-2 lattice convention used for the n = 3, 7
    functional.
    """
    n = 2 * g

    def rand_vec():
        return tuple(rng.randint(-span, span) for _ in range(n))

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
    cls = SurfaceClass(g, tuple(pairs), tuple(translations))
    if even_translations:
        cls = cls.scaled_translations(2)
    return cls

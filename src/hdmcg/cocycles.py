"""Signature and chi^2 evaluations on explicit second-homology classes.

A class is a tuple of matrix pairs (A_i, B_i) whose commutator product is
the identity; it stands for a map from a genus-h surface into the
classifying space of the symplectic group, recorded by its holonomies.
The signature pairing is evaluated through an integral 2-cocycle (Meyer's
signature cocycle) against a canonical bar-complex 2-cycle filling the
surface relator; the chi^2 pairing is the cup square of the translation
1-cocycle of an affine class, paired with the symplectic form.

Meyer cocycle model used here: for A, B symplectic, put

    V = {(x, y) : (A^{-1} - 1) x + (B - 1) y = 0},
    beta((x1, y1), (x2, y2)) = (x1 + y1)^T . J . (1 - B) . y2,

and take the signature of the symmetrised restriction of beta to V.  The
sign and transpose conventions are pinned by the invariant suite (cocycle
identity, vanishing on torus classes, divisibility by 4); the convention
self-check asserts that beta is already symmetric on V.  By Sylvester's
law the signature depends only on V (x) Q, so V is taken from a rational
kernel basis.

Inputs are validated once, at the boundary: ``meyer_tau`` checks that
both matrices are symplectic, and the class types check every holonomy
on construction, so ``signature_of_class`` evaluates its terms without
re-checking them.  Terms that are zero by the formula are skipped: if
B = I then 1 - B = 0; if A = I then every (x, y) in V has (B - 1) y = 0;
if B = A^{-1} then x + y is fixed by A on V, and A-invariance of J gives
(x + y)^T J A^{-1} y2 = (A (x + y))^T J y2 = (x + y)^T J y2, so beta = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .linalg import IntMatrix, exact_signature, hstack, rational_kernel
from .symplectic import GroupFamily, is_member, j_matrix, sp_inverse


@dataclass(frozen=True)
class SurfaceClass:
    """Genus-h tuple of symplectic matrix pairs with trivial total relator."""

    g: int
    pairs: tuple[tuple[IntMatrix, IntMatrix], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a surface class needs genus h >= 1")
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        n = 2 * self.g
        prod = IntMatrix.identity(n)
        for a, b in self.pairs:
            for m in (a, b):
                if not is_member(GroupFamily.SP, m, self.g):
                    raise ValueError("holonomy matrix is not symplectic")
            prod = prod @ a @ b @ sp_inverse(a, self.g) @ sp_inverse(b, self.g)
        if prod != IntMatrix.identity(n):
            raise ValueError("commutator relator does not close up")

    @property
    def h(self) -> int:
        return len(self.pairs)

    def all_in_theta_group(self) -> bool:
        return all(is_member(GroupFamily.SPQ, m, self.g)
                   for p in self.pairs for m in p)

    def conjugated(self, p: IntMatrix) -> "SurfaceClass":
        pinv = sp_inverse(p, self.g)
        return SurfaceClass(self.g, tuple((p @ a @ pinv, p @ b @ pinv)
                                          for a, b in self.pairs))

    def to_json_dict(self) -> dict:
        return {"g": self.g, "h": self.h,
                "pairs": [[a.to_lists(), b.to_lists()] for a, b in self.pairs]}


@dataclass(frozen=True)
class AffineSurfaceClass:
    """A surface class with translation vectors attached to each holonomy.

    The pairs ((v_i, A_i), (w_i, B_i)) must satisfy the surface relator in
    the affine group Z^2g x| Sp_2g(Z); equivalently the associated crossed
    homomorphism vanishes on the relator word.
    """

    g: int
    pairs: tuple[tuple[IntMatrix, IntMatrix], ...]
    translations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        base = SurfaceClass(self.g, self.pairs)  # validates the matrix part
        object.__setattr__(self, "pairs", base.pairs)
        n = 2 * self.g
        tr = tuple((tuple(int(x) for x in v), tuple(int(x) for x in w))
                   for v, w in self.translations)
        object.__setattr__(self, "translations", tr)
        if len(tr) != len(self.pairs):
            raise ValueError("one translation pair per matrix pair")
        for v, w in tr:
            if len(v) != n or len(w) != n:
                raise ValueError("translation vectors must have length 2g")
        total = _affine_identity(n)
        for (a, b), (v, w) in zip(self.pairs, tr):
            ea, eb = (v, a), (w, b)
            total = _affine_mul(total, _affine_comm(ea, eb, self.g))
        if any(total[0]) or total[1] != IntMatrix.identity(n):
            raise ValueError("affine relator does not close up; the crossed "
                             "homomorphism is ill-defined")

    @property
    def h(self) -> int:
        return len(self.pairs)

    def matrix_class(self) -> SurfaceClass:
        return SurfaceClass(self.g, self.pairs)

    def scaled_translations(self, t: int) -> "AffineSurfaceClass":
        tr = tuple((tuple(t * x for x in v), tuple(t * x for x in w))
                   for v, w in self.translations)
        return AffineSurfaceClass(self.g, self.pairs, tr)

    def to_json_dict(self) -> dict:
        d = self.matrix_class().to_json_dict()
        d["translations"] = [[list(v), list(w)] for v, w in self.translations]
        return d


AffineElement = tuple[tuple[int, ...], IntMatrix]


def _affine_identity(n: int) -> AffineElement:
    return ((0,) * n, IntMatrix.identity(n))


def _affine_mul(x: AffineElement, y: AffineElement) -> AffineElement:
    v, a = x
    w, b = y
    aw = a.mult_vec(list(w))
    return (tuple(p + q for p, q in zip(v, aw)), a @ b)


def _affine_inv(x: AffineElement, g: int) -> AffineElement:
    v, a = x
    ainv = sp_inverse(a, g)
    return (tuple(-t for t in ainv.mult_vec(list(v))), ainv)


def _affine_comm(x: AffineElement, y: AffineElement, g: int) -> AffineElement:
    return _affine_mul(_affine_mul(x, y),
                       _affine_mul(_affine_inv(x, g), _affine_inv(y, g)))


@dataclass(frozen=True)
class BarTwoCycle:
    """Formal integer combination of bar-complex 2-chains [a|b].

    Group elements are hashable (matrices, or translation/matrix pairs for
    the affine case).  The bar boundary sum(coeff * ([b] - [ab] + [a]))
    must vanish; ``boundary_is_zero`` checks it.
    """

    terms: tuple[tuple[object, object, int], ...]
    mul: object  # binary operation on the group elements

    @property
    def size(self) -> int:
        return sum(abs(c) for _, _, c in self.terms)

    def boundary_is_zero(self) -> bool:
        chain: dict[object, int] = {}

        def bump(el, c):
            chain[el] = chain.get(el, 0) + c

        for a, b, c in self.terms:
            bump(b, c)
            bump(self.mul(a, b), -c)
            bump(a, c)
        return all(v == 0 for v in chain.values())


def surface_two_cycle(cls) -> BarTwoCycle:
    """Canonical bar 2-cycle filling the surface relator of a class.

    With relator word w = a1 b1 a1^-1 b1^-1 ... of length 4h and prefixes
    p_k, the chain is sum_{k=2..4h} [p_{k-1} | x_k] minus [x | x^-1] for
    each of the 2h holonomies x, minus (2h - 1) [e | e]; its size is 8h - 2.
    """
    if isinstance(cls, AffineSurfaceClass):
        g = cls.g
        letters: list[AffineElement] = []
        for (a, b), (v, w) in zip(cls.pairs, cls.translations):
            ea, eb = (v, a), (w, b)
            letters += [ea, eb, _affine_inv(ea, g), _affine_inv(eb, g)]
        ident = _affine_identity(2 * g)
        mul = _affine_mul
        holonomies = [(v, a) for (a, b), (v, w) in zip(cls.pairs, cls.translations)] + \
                     [(w, b) for (a, b), (v, w) in zip(cls.pairs, cls.translations)]
        inv = lambda x: _affine_inv(x, g)
    elif isinstance(cls, SurfaceClass):
        g = cls.g
        letters = []
        for a, b in cls.pairs:
            letters += [a, b, sp_inverse(a, g), sp_inverse(b, g)]
        ident = IntMatrix.identity(2 * g)
        mul = lambda x, y: x @ y
        holonomies = [a for a, _ in cls.pairs] + [b for _, b in cls.pairs]
        inv = lambda x: sp_inverse(x, g)
    else:
        raise TypeError("expected a SurfaceClass or AffineSurfaceClass")
    h = len(cls.pairs)
    prefixes = [letters[0]]
    for x in letters[1:]:
        prefixes.append(mul(prefixes[-1], x))
    if prefixes[-1] != ident:
        raise ValueError("relator does not close up")
    terms: list[tuple[object, object, int]] = []
    for k in range(1, len(letters)):
        terms.append((prefixes[k - 1], letters[k], 1))
    for x in holonomies:
        terms.append((x, inv(x), -1))
    terms.append((ident, ident, -(2 * h - 1)))
    cycle = BarTwoCycle(terms=tuple(terms), mul=mul)
    if not cycle.boundary_is_zero():
        raise RuntimeError("canonical filling has nonzero boundary")
    return cycle


def meyer_tau(a: IntMatrix, b: IntMatrix, g: int) -> int:
    """Meyer's signature cocycle evaluated on a pair of symplectic matrices."""
    for m in (a, b):
        if not is_member(GroupFamily.SP, m, g):
            raise ValueError("Meyer cocycle needs symplectic matrices")
    return _tau(a, b, g)


def _meyer_form(a: IntMatrix, b: IntMatrix, g: int) -> IntMatrix:
    """Matrix of beta on a rational basis of V: Z^T . J(1 - B) . Y, where
    the basis columns are (x, y) stacked as (X; Y) and Z = X + Y."""
    n = 2 * g
    ident = IntMatrix.identity(n)
    v = rational_kernel(hstack(sp_inverse(a, g) - ident, b - ident))
    x = IntMatrix._of(v.data[:n], v.cols)
    y = IntMatrix._of(v.data[n:], v.cols)
    return (x + y).transpose() @ (j_matrix(g, -1) @ (ident - b)) @ y


def _tau(a: IntMatrix, b: IntMatrix, g: int) -> int:
    """Meyer cocycle of two matrices already known to be symplectic."""
    ident = IntMatrix.identity(2 * g)
    if a == ident or b == ident or b == sp_inverse(a, g):
        return 0
    form = _meyer_form(a, b, g)
    return exact_signature(form + form.transpose())


def beta_is_symmetric_on_kernel(a: IntMatrix, b: IntMatrix, g: int) -> bool:
    """Convention self-check: the Meyer form restricted to V is symmetric."""
    form = _meyer_form(a, b, g)
    return form - form.transpose() == IntMatrix.zeros(form.rows, form.cols)


def signature_of_class(cls) -> int:
    """Pairing of the signature cocycle with the canonical 2-cycle.

    The class validated every holonomy on construction, and every term of
    the 2-cycle is a product of holonomies and their inverses, so the terms
    go to the unchecked evaluator.
    """
    if isinstance(cls, AffineSurfaceClass):
        cls = cls.matrix_class()
    cycle = surface_two_cycle(cls)
    return sum(c * _tau(a, b, cls.g) for a, b, c in cycle.terms)


def chi2_of_class(cls: AffineSurfaceClass) -> int:
    """Cup square of the translation cocycle against the symplectic form.

    Evaluates sum(coeff * lambda(u(a), rho(a) u(b))) over the canonical
    2-cycle, with u the crossed homomorphism of the affine class.
    """
    if not isinstance(cls, AffineSurfaceClass):
        raise TypeError("chi^2 needs translation data (an AffineSurfaceClass)")
    cycle = surface_two_cycle(cls)
    j = j_matrix(cls.g, -1)
    total = 0
    for ea, eb, c in cycle.terms:
        va, ma = ea
        vb, _ = eb
        rho_ub = ma.mult_vec(list(vb))
        total += c * sum(x * y for x, y in zip(va, j.mult_vec(rho_ub)))
    return total


DIVIDED_FUNCTIONALS = ("sgn/8", "chi2/2", "(chi2-sgn)/8")


def divided_eval(which: str, cls) -> int:
    """Divided characteristic classes as integer-valued functionals.

    The divisibility is checked, never assumed: a failure signals either
    input outside the functional's regime or an implementation fault, and
    raises ValueError.
    """
    if which == "sgn/8":
        base = cls.matrix_class() if isinstance(cls, AffineSurfaceClass) else cls
        if not base.all_in_theta_group():
            raise ValueError("sgn/8 needs all holonomies in the theta group")
        s = signature_of_class(base)
        if s % 8:
            raise ValueError(f"signature {s} is not divisible by 8")
        return s // 8
    if which == "chi2/2":
        c = chi2_of_class(cls)
        if c % 2:
            raise ValueError(f"chi^2 = {c} is odd")
        return c // 2
    if which == "(chi2-sgn)/8":
        c = chi2_of_class(cls)
        s = signature_of_class(cls)
        if (c - s) % 8:
            raise ValueError(f"chi^2 - sgn = {c - s} is not divisible by 8")
        return (c - s) // 8
    raise ValueError(f"unknown functional {which!r}; "
                     f"expected one of {DIVIDED_FUNCTIONALS}")


def _json_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _json_pairs(x, what: str, item: str) -> list:
    if not isinstance(x, list) or not all(isinstance(p, list) and len(p) == 2
                                          for p in x):
        raise ValueError(f"{what} must be a list of [{item}] pairs")
    return x


def _json_vector(x, n: int, what: str) -> tuple[int, ...]:
    if not isinstance(x, list) or len(x) != n or any(
            isinstance(t, bool) or not isinstance(t, int) for t in x):
        raise ValueError(f"{what} must be lists of {n} integers")
    return tuple(x)


def _json_matrix(x, n: int) -> IntMatrix:
    if not isinstance(x, list) or len(x) != n:
        raise ValueError(f"holonomy matrices must be {n}x{n}")
    return IntMatrix([_json_vector(r, n, "matrix rows") for r in x])


def class_from_json_dict(d: dict):
    """Parse the class-file schema into a (possibly affine) surface class.

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
    g = _json_int(d["g"], "g")
    if g < 1:
        raise ValueError("genus g must be >= 1")
    n = 2 * g
    pairs = tuple((_json_matrix(a, n), _json_matrix(b, n))
                  for a, b in _json_pairs(d["pairs"], "pairs", "A, B"))
    if "h" in d and _json_int(d["h"], "h") != len(pairs):
        raise ValueError("h does not match the number of pairs")
    if d.get("translations") is not None:
        tr = tuple((_json_vector(v, n, "translation vectors"),
                    _json_vector(w, n, "translation vectors"))
                   for v, w in _json_pairs(d["translations"], "translations",
                                           "v, w"))
        return AffineSurfaceClass(g, pairs, tr)
    return SurfaceClass(g, pairs)


def load_class_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return class_from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# class generators for the randomized property suites

def random_symplectic(g: int, rng, generators: Sequence[IntMatrix],
                      max_length: int = 6) -> IntMatrix:
    """Random product of the given generators and their inverses."""
    m = IntMatrix.identity(2 * g)
    for _ in range(rng.randint(1, max_length)):
        a = generators[rng.randrange(len(generators))]
        if rng.random() < 0.5:
            a = sp_inverse(a, g)
        m = m @ a
    return m


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
            k = rng.choice([-2, -1, 0, 1, 2])
            b = IntMatrix.identity(2 * g)
            step = a if k >= 0 else sp_inverse(a, g)
            for _ in range(abs(k)):
                b = b @ step
            pairs.append((a, b))
            remaining -= 1
    cls = SurfaceClass(g, tuple(pairs))
    if rng.random() < 0.5:
        cls = cls.conjugated(random_symplectic(g, rng, generators, max_length))
    return cls


def random_affine_class(g: int, h: int, rng,
                        generators: Sequence[IntMatrix],
                        span: int = 3, even_translations: bool = False
                        ) -> AffineSurfaceClass:
    """Random valid affine class.

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
    cls = AffineSurfaceClass(g, tuple(pairs), tuple(translations))
    if even_translations:
        cls = cls.scaled_translations(2)
    return cls

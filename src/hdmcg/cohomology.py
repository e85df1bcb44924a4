"""Presentation-based (co)homology: abelianisations, H^1 via Fox calculus,
and (co)invariants of matrix-group actions.

Coefficient rings are Z (modulus 0) and Z/m.  H^1 of a presented group
with a module action is computed as Z^1/B^1, where Z^1 is the joint
kernel of the Fox-derivative matrices of the relators and B^1 the image
of m |-> ((rho(x_i) - 1) m).  Over Z/m both are taken as lattices in Z^n:
Z^1 is the preimage lattice ``kernel_basis(F, m)`` and B^1 gains m Z^n,
so every (co)homology group here is one ``linalg.subquotient`` of
lattices, or one cokernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abgroups import FinAbGroup
from .inputs import json_int, json_vector
from .linalg import (IntMatrix, cokernel_presentation, hstack, inverse_mod,
                     kernel_basis, subquotient, vstack)


@dataclass(frozen=True)
class Presentation:
    """Relators are words over signed 1-based generator indices, each a
    list or tuple of integers; anything else is refused, never truncated."""

    num_generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if json_int(self.num_generators, "the generator count") < 0:
            raise ValueError("generator count must be nonnegative")
        rel = tuple(json_vector(w, None, "a relator") for w in self.relators)
        object.__setattr__(self, "relators", rel)
        for word in rel:
            for letter in word:
                if letter == 0 or abs(letter) > self.num_generators:
                    raise ValueError(f"letter {letter} out of range")


@dataclass(frozen=True)
class GModule:
    """A module over Z or Z/m with one invertible action matrix per generator;
    the inverses, which check invertibility, are kept for negative letters."""

    dimension: int
    modulus: int
    actions: tuple[IntMatrix, ...]
    inverses: tuple[IntMatrix, ...] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if self.modulus < 0:
            raise ValueError("modulus must be 0 (= Z) or positive")
        for a in self.actions:
            if a.rows != self.dimension or a.cols != self.dimension:
                raise ValueError("action matrix has the wrong size")
        object.__setattr__(self, "inverses", tuple(
            inverse_mod(a, self.modulus) for a in self.actions))

    def reduce(self, m: IntMatrix) -> IntMatrix:
        return m.mod(self.modulus) if self.modulus else m

    def action(self, letter: int) -> IntMatrix:
        """Matrix of a signed generator letter."""
        a = self.actions[letter - 1] if letter > 0 \
            else self.inverses[-letter - 1]
        return self.reduce(a)

    def word_action(self, word) -> IntMatrix:
        m = IntMatrix.identity(self.dimension)
        for letter in word:
            m = self.reduce(m @ self.action(letter))
        return m


def fox_derivative(word, generator_index: int, module: GModule) -> IntMatrix:
    """Fox derivative of a word with respect to generator ``generator_index``
    (1-based), evaluated through the module action.

    Satisfies d(uv) = d(u) + rho(u) d(v), d(x)/dx = I and
    d(x^-1)/dx = -rho(x^-1).
    """
    d = module.dimension
    total = IntMatrix.zeros(d, d)
    prefix = IntMatrix.identity(d)
    for letter in word:
        if letter == generator_index:
            total = total + prefix
        elif letter == -generator_index:
            total = total - module.reduce(prefix @ module.action(letter))
        prefix = module.reduce(prefix @ module.action(letter))
    return module.reduce(total)


def abelianization(p: Presentation) -> FinAbGroup:
    """Cokernel of the relator exponent matrix."""
    cols = []
    for word in p.relators:
        col = [0] * p.num_generators
        for letter in word:
            col[abs(letter) - 1] += 1 if letter > 0 else -1
        cols.append(col)
    m = IntMatrix.from_columns(cols, rows=p.num_generators)
    return cokernel_presentation(m)[0]


def _plus_modulus(b: IntMatrix, modulus: int) -> IntMatrix:
    """The columns of b together with modulus * Z^n, n = b.rows."""
    if not modulus:
        return b
    return hstack(b, IntMatrix.identity(b.rows).scaled(modulus))


def h1(p: Presentation, module: GModule) -> FinAbGroup:
    """First cohomology of the presented group with the given coefficients.

    The module action must satisfy the relators; this is checked and a
    violation raises ValueError.
    """
    if len(module.actions) != p.num_generators:
        raise ValueError("one action matrix per generator is required")
    d = module.dimension
    ident = IntMatrix.identity(d)
    for word in p.relators:
        if module.word_action(word) != module.reduce(ident):
            raise ValueError(f"action does not satisfy the relator {word}")
    k = p.num_generators
    if p.relators:
        blocks = []
        for word in p.relators:
            row = [fox_derivative(word, i + 1, module) for i in range(k)]
            blocks.append(hstack(*row))
        f = vstack(*blocks)
    else:
        f = IntMatrix.zeros(0, k * d)
    principal = vstack(*[module.reduce(a - ident) for a in module.actions]) \
        if k else IntMatrix.zeros(0, d)
    return subquotient(kernel_basis(f, module.modulus),
                       _plus_modulus(principal, module.modulus))


def _check_square_same(generators) -> int:
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator matrix is required")
    n = gens[0].rows
    for g in gens:
        if not g.is_square or g.rows != n:
            raise ValueError("generators must be square matrices of equal size")
    return n


def coinvariants(generators, modulus: int = 0) -> FinAbGroup:
    """Cokernel of the stacked (gamma - 1) over Z or Z/m."""
    gens = list(generators)
    n = _check_square_same(gens)
    ident = IntMatrix.identity(n)
    cols = hstack(*[(g - ident) for g in gens])
    return cokernel_presentation(_plus_modulus(cols, modulus))[0]


def invariants(generators, modulus: int = 0) -> FinAbGroup:
    """Joint kernel of the (gamma - 1) over the coefficient ring."""
    gens = list(generators)
    n = _check_square_same(gens)
    ident = IntMatrix.identity(n)
    f = vstack(*[(g - ident) for g in gens])
    return subquotient(kernel_basis(f, modulus),
                       _plus_modulus(IntMatrix.zeros(n, 0), modulus))


def h1_free_product_of_cyclics(orders, actions, modulus: int) -> FinAbGroup:
    """H^1 of a free product of cyclic groups, by the tree formula.

    ``orders[i]`` is the order of the i-th free factor (0 = infinite
    cyclic) and ``actions[i]`` the matrix of its generator.  Only used as
    an independent cross-check of the Fox-calculus route, hence restricted
    to Z/m coefficients where the count argument below is available.

    For G = A_1 * ... * A_s acting on a finite module M, the action on the
    Bass-Serre tree (vertex stabilisers A_i, trivial edge stabilisers)
    gives the exact sequence

        0 -> M^G -> (+)_i M^{A_i} -> M^(s-1) -> H^1(G; M)
          -> (+)_i H^1(A_i; M) -> 0,

    hence |H^1(G)| = |M|^(s-1) * prod |H^1(A_i)| * |M^G| / prod |M^{A_i}|.
    For Z/2 * Z/3 acting on F_2^2 through S_3 this is 4 * 1 * 1 / (2 * 1)
    = 2.  Here the group itself is assembled from crossed homomorphisms:
    Z^1(G) is the product of the Z^1(A_i), and B^1(G) is the diagonal
    image of M.
    """
    if modulus <= 0:
        raise ValueError("cross-check formula is for finite coefficients")
    mats = [m.mod(modulus) for m in actions]
    n = mats[0].rows
    ident = IntMatrix.identity(n)

    def cyclic_z1(order, a):
        if order == 0:
            return kernel_basis(IntMatrix.zeros(0, n), modulus)
        norm = IntMatrix.zeros(n, n)
        power = ident
        for _ in range(order):
            norm = (norm + power).mod(modulus)
            power = (power @ a).mod(modulus)
        return kernel_basis(norm, modulus)

    # crossed homs on the free product = product of the factors' cocycles;
    # principal ones are the diagonal image of M
    z_blocks = []
    for order, a in zip(orders, mats):
        z_blocks.append(cyclic_z1(order, a))
    s = len(mats)
    big = []
    for i, blk in enumerate(z_blocks):
        rows_before = i * n
        rows_after = (s - i - 1) * n
        big.append(vstack(IntMatrix.zeros(rows_before, blk.cols), blk,
                          IntMatrix.zeros(rows_after, blk.cols)))
    zspan = hstack(*big)
    principal = vstack(*[(a - ident).mod(modulus) for a in mats])
    return subquotient(zspan, _plus_modulus(principal, modulus))

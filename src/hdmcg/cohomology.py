"""Presentation-based (co)homology: abelianisations, H^1 via Fox calculus,
and (co)invariants of matrix-group actions.

Coefficient rings are Z (modulus 0) and Z/m, m > 0, by
``linalg.ring_modulus``.  H^1 of a presented group with a module action
is computed as Z^1/B^1, where Z^1 is the kernel of the stacked Fox rows
of the relators and B^1 the image of m |-> ((rho(x_i) - 1) m).  One walk
over a relator gives both its Fox row and its action, which ``h1``
checks is trivial.  Over Z/m both are taken as lattices in Z^n: Z^1 is
the preimage lattice ``kernel_basis(F, m)`` and B^1 gains m Z^n, so
every (co)homology group here is one ``linalg.subquotient`` over the
basis ``kernel_basis`` returns, or one cokernel.
"""

from __future__ import annotations

from .abgroups import FinAbGroup
from .inputs import Record, json_int, json_int_at_least, json_vector
from .linalg import (IntMatrix, cokernel_presentation, hstack, inverse_mod,
                     kernel_basis, ring_modulus, subquotient, vstack)


class Presentation(Record):
    """Relators are words over signed 1-based generator indices, each a
    list or tuple of integers; anything else is refused, never truncated."""

    _fields = ("num_generators", "relators")

    def __init__(self, num_generators: int,
                 relators: tuple[tuple[int, ...], ...]):
        if json_int(num_generators, "the generator count") < 0:
            raise ValueError("generator count must be nonnegative")
        rel = tuple(json_vector(w, None, "a relator") for w in relators)
        for word in rel:
            for letter in word:
                if letter == 0 or abs(letter) > num_generators:
                    raise ValueError(f"letter {letter} out of range")
        self.__dict__.update(num_generators=num_generators, relators=rel)


class GModule(Record):
    """A module over Z or Z/m with one invertible action matrix per generator;
    the inverses, which check invertibility, are kept for negative letters
    (derived, so left out of equality, hash and repr).  The dimension is an
    integer >= 0 by the ``json_int`` rule."""

    _fields = ("dimension", "modulus", "actions")

    def __init__(self, dimension: int, modulus: int,
                 actions: tuple[IntMatrix, ...]):
        json_int_at_least(dimension, 0, "the dimension")
        actions = tuple(actions)
        modulus = ring_modulus(modulus)
        for a in actions:
            if a.rows != dimension or a.cols != dimension:
                raise ValueError("action matrix has the wrong size")
        self.__dict__.update(
            dimension=dimension, modulus=modulus, actions=actions,
            inverses=tuple(inverse_mod(a, modulus) for a in actions))

    def reduce(self, m: IntMatrix) -> IntMatrix:
        return m.mod(self.modulus) if self.modulus else m

    def action(self, letter: int) -> IntMatrix:
        """Matrix of a signed generator letter."""
        a = self.actions[letter - 1] if letter > 0 \
            else self.inverses[-letter - 1]
        return self.reduce(a)


def fox_derivative(word, module: GModule) -> tuple[IntMatrix, IntMatrix]:
    """The Fox row of a word through the module, and the word's action, from
    one walk over its letters.

    For a module of dimension d on k generators, returns ``(row, action)``:
    ``row`` is the d x kd matrix [dw/dx_1 | ... | dw/dx_k] evaluated through
    rho, and ``action`` is rho(w).  By d(uv) = d(u) + rho(u) d(v), a letter
    x_i after the prefix u adds rho(u) to block i, and a letter x_i^-1
    subtracts rho(u x_i^-1).  The walk starts at the identity reduced into
    the ring, so over Z/1, where every matrix is 0, every word acts
    trivially.
    """
    blocks = [IntMatrix.zeros(module.dimension, module.dimension)] \
        * len(module.actions)
    prefix = module.reduce(IntMatrix.identity(module.dimension))
    for letter in word:
        i = abs(letter) - 1
        if letter > 0:
            blocks[i] = blocks[i] + prefix
        prefix = module.reduce(prefix @ module.action(letter))
        if letter < 0:
            blocks[i] = blocks[i] - prefix
    return hstack(*[module.reduce(b) for b in blocks]), prefix


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
    d, k = module.dimension, p.num_generators
    ident = IntMatrix.identity(d)
    rows = []
    for word in p.relators:
        row, action = fox_derivative(word, module)
        if action != module.reduce(ident):
            raise ValueError(f"action does not satisfy the relator {word}")
        rows.append(row)
    f = vstack(*rows) if rows else IntMatrix.zeros(0, k * d)
    principal = vstack(*[module.reduce(a - ident) for a in module.actions]) \
        if k else IntMatrix.zeros(0, d)
    return subquotient(kernel_basis(f, module.modulus),
                       _plus_modulus(principal, module.modulus))


def _check_square_same(generators) -> int:
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator matrix is required")
    if not all(isinstance(g, IntMatrix) for g in gens):
        raise ValueError("generators must be integer matrices")
    n = gens[0].rows
    for g in gens:
        if not g.is_square or g.rows != n:
            raise ValueError("generators must be square matrices of equal size")
    return n


def coinvariants(generators, modulus: int = 0) -> FinAbGroup:
    """Cokernel of the stacked (gamma - 1) over Z or Z/m."""
    modulus = ring_modulus(modulus)
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

    Orders are integers by ``inputs.json_int``'s rule and never negative,
    and a factor of order d > 0 needs A^d = I mod m; any other input is
    one ValueError.
    """
    if json_int(modulus, "the modulus") <= 0:
        raise ValueError("cross-check formula is for finite coefficients")
    orders = json_vector(orders, None, "the factor orders")
    if any(d < 0 for d in orders):
        raise ValueError("a factor's order must be 0 (infinite) or positive")
    if not isinstance(actions, (list, tuple)) or not actions \
            or len(orders) != len(actions):
        raise ValueError("need one order per action matrix, and at least one")
    n = _check_square_same(actions)
    mats = [m.mod(modulus) for m in actions]
    ident = IntMatrix.identity(n).mod(modulus)

    def cyclic_z1(order, a):
        if order == 0:
            return kernel_basis(IntMatrix.zeros(0, n), modulus)
        norm = IntMatrix.zeros(n, n)
        power = ident
        for _ in range(order):
            norm = (norm + power).mod(modulus)
            power = (power @ a).mod(modulus)
        if power != ident:
            raise ValueError(f"a factor of order {order} needs its matrix "
                             f"A to satisfy A^{order} = I mod {modulus}")
        return kernel_basis(norm, modulus)

    # crossed homs on the free product = product of the factors' cocycles;
    # principal ones are the diagonal image of M
    z_blocks = [cyclic_z1(order, a) for order, a in zip(orders, mats)]
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

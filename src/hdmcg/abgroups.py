"""Finitely generated abelian groups in canonical invariant-factor form.

A group is a free rank plus a divisibility chain d1 | d2 | ... of torsion
factors, each >= 2.  The representation is unique, so structural equality
is isomorphism.  Elements carry integer coordinates, one per free summand
followed by one per torsion factor.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .inputs import Record, json_int, json_int_at_least, json_vector
from .linalg import (IntMatrix, cokernel_presentation, column_basis, hstack,
                     subquotient)

# the most torsion factors ``tensor_with_free`` builds: the CLI answer
# (Z/2)^{2g} for the Torelli group at n = 1 mod 8 grows linearly, about
# 2 us and 3 bytes of JSON per factor; at 2 * 10^5 factors (g = 10^5) it
# takes 0.41 s against 0.09 s at g = 3, and at g = 10^6 it took 3.9 s and
# 78 MiB, on a 2-core x86-64 host
MAX_TORSION_FACTORS = 200_000


def _normalize_chain(factors: Iterable[int]) -> tuple[int, ...]:
    """Rewrite a multiset of cyclic orders as a divisibility chain.

    Works on the distinct orders with their multiplicities: while two of
    them, a < b, have a not dividing b, min(mult a, mult b) copies of the
    pair become (gcd, lcm), an isomorphism by CRT.  Each step spreads the
    logarithms further apart at a fixed sum, so the loop ends; then the
    sorted distinct orders form a chain.  The cost grows with the number
    of distinct orders, not with the number of factors.
    """
    mult: dict[int, int] = {}
    for d in factors:
        if json_int(d, "a torsion factor") <= 0:
            raise ValueError("torsion factors must be positive")
        if d != 1:
            mult[d] = mult.get(d, 0) + 1
    while True:
        chain = sorted(mult)
        pair = next(((a, b) for i, a in enumerate(chain) for b in chain[i + 1:]
                     if b % a), None)
        if pair is None:
            return tuple(d for d in chain for _ in range(mult[d]))
        a, b = pair
        k = min(mult[a], mult[b])
        g = gcd(a, b)
        for d, step in ((a, -k), (b, -k), (g, k), (a // g * b, k)):
            count = mult.get(d, 0) + step
            if count and d != 1:
                mult[d] = count
            else:
                mult.pop(d, None)


class FinAbGroup(Record):
    """Z^rank plus cyclic factors Z/d1 + ... with d1 | d2 | ..., di >= 2.

    The public constructor checks a group named from outside (a table, a
    literal): the rank, each factor and the chain.  Group arithmetic
    builds through ``of``, which normalises any multiset of orders into
    the chain, and ``linalg.cokernel_presentation`` reads its group off a
    Smith diagonal through ``_trusted``.
    """

    _fields = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        json_int_at_least(rank, 0, "the rank", "rank must be nonnegative")
        torsion = tuple(torsion)
        for d in torsion:
            if json_int(d, "a torsion factor") < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"not a divisibility chain: {torsion}")
        self.__dict__.update(rank=rank, torsion=torsion)

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, r: int) -> "FinAbGroup":
        return cls(r, ())

    @classmethod
    def cyclic(cls, d: int) -> "FinAbGroup":
        return cls(0, ()) if d == 1 else cls(0, (d,))

    @classmethod
    def of(cls, rank: int, factors: Iterable[int]) -> "FinAbGroup":
        """Group with the given rank and any multiset of cyclic orders: the
        one normalising builder.  The rank is checked by the ``json_int``
        rule (>= 0) and each order by ``_normalize_chain``, whose chain is
        canonical, so the group is built through ``_trusted``."""
        json_int_at_least(rank, 0, "the rank", "rank must be nonnegative")
        return cls._trusted(rank=rank, torsion=_normalize_chain(factors))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def num_coords(self) -> int:
        return self.rank + len(self.torsion)

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.num_coords)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        i = 0
        while i < len(self.torsion):
            d = self.torsion[i]
            j = i
            while j < len(self.torsion) and self.torsion[j] == d:
                j += 1
            parts.append(f"Z/{d}" if j - i == 1 else f"(Z/{d})^{j - i}")
            i = j
        return " + ".join(parts) if parts else "0"


class GroupElement(Record):
    """An element of a FinAbGroup; torsion coordinates are kept reduced.

    Coordinates and multipliers are integers by ``inputs.json_int``'s rule:
    a float or a bool is refused with a ValueError, never truncated.
    """

    _fields = ("owner", "coords")

    def __init__(self, owner: FinAbGroup, coords: tuple[int, ...]):
        coords = json_vector(coords, None, "element coordinates")
        if len(coords) != owner.num_coords:
            raise ValueError("coordinate count does not match the group")
        red = list(coords[:owner.rank])
        for d, c in zip(owner.torsion, coords[owner.rank:]):
            red.append(c % d)
        state = self.__dict__
        state["owner"] = owner
        state["coords"] = tuple(red)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.owner,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.owner,
                            tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.owner, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "GroupElement":
        json_int(k, "a multiplier")
        return GroupElement(self.owner, tuple(k * a for a in self.coords))

    def _check(self, other: "GroupElement") -> None:
        if self.owner != other.owner:
            raise ValueError("elements of different groups")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


def element_order(x: GroupElement) -> int | None:
    """Least k >= 1 with k*x = 0, or None for infinite order."""
    g = x.owner
    if any(x.coords[:g.rank]):
        return None
    k = 1
    for d, c in zip(g.torsion, x.coords[g.rank:]):
        if c:
            k = k * (d // gcd(d, c)) // gcd(k, d // gcd(d, c))
    return k


def _presentation_lattice(g: FinAbGroup) -> IntMatrix:
    """Relation matrix of the canonical presentation Z^num_coords -> g."""
    t = len(g.torsion)
    rows = [(0,) * t] * g.rank + [tuple(d if j == i else 0 for j in range(t))
                                  for i, d in enumerate(g.torsion)]
    return IntMatrix._of(tuple(rows), t)


def _lifts(g: FinAbGroup, gens: Sequence[GroupElement]) -> IntMatrix:
    """The coordinates of gens, elements of g, as the columns of a matrix."""
    for x in gens:
        if x.owner != g:
            raise ValueError("generator does not belong to the group")
    return IntMatrix.from_columns([list(x.coords) for x in gens],
                                  rows=g.num_coords)


def quotient_with_projection(g: FinAbGroup, gens: Sequence[GroupElement]):
    """g modulo the subgroup generated by gens, plus the coordinate map.

    The second return value maps coordinates in g to coordinates in the
    quotient (apply with ``IntMatrix.mult_vec``).
    """
    return cokernel_presentation(hstack(_presentation_lattice(g),
                                        _lifts(g, gens)))


def quotient_by(g: FinAbGroup, gens: Sequence[GroupElement]) -> FinAbGroup:
    return quotient_with_projection(g, gens)[0]


def subgroup_iso(g: FinAbGroup, gens: Sequence[GroupElement]) -> FinAbGroup:
    """Isomorphism type of the subgroup of g generated by gens: the lifts
    of gens plus the relation lattice, modulo the relation lattice.  The
    lifts and relations together may be dependent, so a ``column_basis``
    of their span is taken for ``subquotient``."""
    lat = _presentation_lattice(g)
    return subquotient(column_basis(hstack(_lifts(g, gens), lat)), lat)


def direct_sum(groups: Iterable[FinAbGroup]) -> FinAbGroup:
    """Canonical form of the direct sum, through ``FinAbGroup.of`` on the
    summed ranks and the pooled factors; the trivial group is the unit."""
    groups = tuple(groups)
    return FinAbGroup.of(sum(g.rank for g in groups),
                         [d for g in groups for d in g.torsion])


def tensor_with_free(g: FinAbGroup, copies: int) -> FinAbGroup:
    """g tensored with Z^copies; refused past ``MAX_TORSION_FACTORS``
    torsion factors, before any is built."""
    if copies < 0:
        raise ValueError("copies must be nonnegative")
    factors = len(g.torsion) * copies
    if factors > MAX_TORSION_FACTORS:
        raise ValueError(f"{g.describe()} tensor Z^{copies} has {factors} "
                         f"torsion factors, more than the limit of "
                         f"{MAX_TORSION_FACTORS}")
    return FinAbGroup.of(g.rank * copies, g.torsion * copies)


def mod_two_quotient(g: FinAbGroup) -> FinAbGroup:
    """g / 2g."""
    return FinAbGroup.of(0, [2] * g.rank + [gcd(d, 2) for d in g.torsion])

"""Finitely generated abelian groups in canonical invariant-factor form.

A group is a free rank plus a divisibility chain d1 | d2 | ... of torsion
factors, each >= 2.  The representation is unique, so structural equality
is isomorphism.  Elements carry integer coordinates, one per free summand
followed by one per torsion factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .inputs import json_int
from .linalg import IntMatrix, cokernel_presentation, hstack, subquotient


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


@dataclass(frozen=True)
class FinAbGroup:
    """Z^rank plus cyclic factors Z/d1 + ... with d1 | d2 | ..., di >= 2."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if json_int(self.rank, "the rank") < 0:
            raise ValueError("rank must be nonnegative")
        tor = tuple(self.torsion)
        object.__setattr__(self, "torsion", tor)
        for d in tor:
            if json_int(d, "a torsion factor") < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"not a divisibility chain: {tor}")

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
        """Group with the given rank and any multiset of cyclic orders."""
        return cls(rank, _normalize_chain(factors))

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

    def exponent(self) -> int | None:
        if self.rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.num_coords)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def standard_generators(self) -> list["GroupElement"]:
        n = self.num_coords
        return [self.element([1 if i == j else 0 for j in range(n)])
                for i in range(n)]

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

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FinAbGroup":
        if not (isinstance(d, dict) and "rank" in d
                and isinstance(d.get("torsion"), list)):
            raise ValueError(f"a group must be a JSON object with a 'rank' "
                             f"and a 'torsion' list, got {d!r}")
        return cls(d["rank"], tuple(d["torsion"]))


@dataclass(frozen=True)
class GroupElement:
    """An element of a FinAbGroup; torsion coordinates are kept reduced."""

    owner: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        g = self.owner
        if len(self.coords) != g.num_coords:
            raise ValueError("coordinate count does not match the group")
        red = list(self.coords[:g.rank])
        for d, c in zip(g.torsion, self.coords[g.rank:]):
            red.append(c % d)
        object.__setattr__(self, "coords", tuple(int(x) for x in red))

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


def quotient_with_projection(g: FinAbGroup, gens: Sequence[GroupElement]):
    """g modulo the subgroup generated by gens, plus the coordinate map.

    The second return value maps coordinates in g to coordinates in the
    quotient (apply with ``IntMatrix.mult_vec``).
    """
    for x in gens:
        if x.owner != g:
            raise ValueError("generator does not belong to the group")
    lifts = IntMatrix.from_columns([list(x.coords) for x in gens],
                                   rows=g.num_coords)
    rel = hstack(_presentation_lattice(g), lifts)
    return cokernel_presentation(rel)


def quotient_by(g: FinAbGroup, gens: Sequence[GroupElement]) -> FinAbGroup:
    return quotient_with_projection(g, gens)[0]


def subgroup_iso(g: FinAbGroup, gens: Sequence[GroupElement]) -> FinAbGroup:
    """Isomorphism type of the subgroup of g generated by gens: the lifts
    of gens plus the relation lattice, modulo the relation lattice."""
    for x in gens:
        if x.owner != g:
            raise ValueError("generator does not belong to the group")
    lat = _presentation_lattice(g)
    lifts = IntMatrix.from_columns([list(x.coords) for x in gens],
                                   rows=g.num_coords)
    return subquotient(hstack(lifts, lat), lat)


def direct_sum(groups: Iterable[FinAbGroup]) -> FinAbGroup:
    """Canonical form of the direct sum; the trivial group is the unit."""
    rank = 0
    factors: list[int] = []
    for g in groups:
        rank += g.rank
        factors.extend(g.torsion)
    return FinAbGroup(rank, _normalize_chain(factors))


def tensor_with_free(g: FinAbGroup, copies: int) -> FinAbGroup:
    """g tensored with Z^copies."""
    if copies < 0:
        raise ValueError("copies must be nonnegative")
    return FinAbGroup(g.rank * copies,
                      _normalize_chain(list(g.torsion) * copies))


def mod_two_quotient(g: FinAbGroup) -> FinAbGroup:
    """g / 2g."""
    factors = [2] * g.rank + [gcd(d, 2) for d in g.torsion]
    return FinAbGroup(0, _normalize_chain(factors))

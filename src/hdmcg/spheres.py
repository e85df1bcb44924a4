"""Homotopy-sphere bookkeeping.

Exact Bernoulli numbers feed the order of the cyclic subgroup bP, which is
assembled with a built-in cokernel-of-J table into the full group of
homotopy spheres in odd dimensions, together with the two distinguished
boundary spheres of the standard plumbings and the subgroup they generate.
The boundary formula, bA and the placement of Sigma_Q read Theorem B's
split from ``cases``.

The cokernel-of-J table is data, not a computation.  Built-ins cover
degrees 7, 11, 15, 19 and always answer there; further degrees are read
from the table passed to ``theta_data`` as ``coker_j_table``, which the CLI
loads from the JSON file named by ``--coker-j-table`` (schema:
``[{"degree": 23, "rank": 0, "torsion": [..]}, ...]``).  ``theta_data``'s
arguments are the one place sphere-data settings enter: every other answer
takes the ``SphereData`` it builds, through ``sphere_data_for``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import reference
from .abgroups import (FinAbGroup, GroupElement, element_order, quotient_by,
                       quotient_with_projection)
from .cases import divided, hopf, signature_only, theorem_b
from .inputs import json_int, json_vector, read_json
from .linalg import IntMatrix, cokernel_presentation

_BUILTIN_COKER_J: dict[int, FinAbGroup] = {
    7: FinAbGroup.trivial(),
    11: FinAbGroup.trivial(),
    15: FinAbGroup.cyclic(2),
    19: FinAbGroup.cyclic(2),
}


class UnsupportedDimension(ValueError):
    """Raised when a computation needs data outside the built-in tables."""


_bernoulli_cache: list[Fraction] = [Fraction(1)]


def _bernoulli_classical(n: int) -> Fraction:
    """B_n in the convention with B_1 = -1/2, via the binomial recurrence."""
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        s = sum(comb(m + 1, j) * _bernoulli_cache[j] for j in range(m))
        _bernoulli_cache.append(Fraction(-s, m + 1))
    return _bernoulli_cache[n]


def bernoulli(k: int) -> Fraction:
    """|B_{2k}| as an exact rational (topologist convention)."""
    if k < 1:
        raise ValueError("index must be >= 1")
    return abs(_bernoulli_classical(2 * k))


_bp_validated = False


def bp_order(dim: int) -> int:
    """Order of the cyclic group of (dim-1)-spheres bounding parallelisable
    manifolds, dim = 4k with k >= 2:

        2^(2k-2) * (2^(2k-1) - 1) * numerator(4 B_k / k).

    The formula is validated once against the paper's values
    28, 992, 8128, 261632 (``reference.BP_ORDER``); a mismatch aborts every
    caller.
    """
    global _bp_validated
    if dim % 4 or dim < 8:
        raise ValueError("dimension must be a multiple of 4, at least 8")
    k = dim // 4
    value = 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) \
        * (Fraction(4) * bernoulli(k) / k).numerator
    if not _bp_validated:
        _bp_validated = True  # set first so the reference loop can recurse
        for d, expected in reference.BP_ORDER.items():
            got = bp_order(d)
            if got != expected:
                _bp_validated = False
                raise RuntimeError(
                    f"bP order formula failed validation: dim {d} gave {got}, "
                    f"expected {expected}")
    return value


def _coker_j_entries(entries) -> dict[int, FinAbGroup]:
    if not isinstance(entries, list):
        raise ValueError("must hold a JSON list of entries")
    table = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("each entry must be a JSON object, "
                             f"got {entry!r}")
        if "degree" not in entry:
            raise ValueError(f"entry {entry!r} has no 'degree'")
        try:
            degree = json_int(entry["degree"], "degree")
            rank = json_int(entry.get("rank", 0), "rank")
            torsion = json_vector(entry.get("torsion", []), None, "torsion")
        except ValueError:
            raise ValueError(f"entry {entry!r} needs an integer degree and "
                             f"rank and a list of integer torsion "
                             f"orders") from None
        try:
            table[degree] = FinAbGroup.of(rank, torsion)
        except ValueError as exc:
            raise ValueError(f"entry {entry!r}: {exc}") from None
    return table


def load_coker_j_file(path: str) -> dict[int, FinAbGroup]:
    """Parse a coker-J extension file into a degree -> group table.

    The file holds a JSON list of objects, each with an integer ``degree``,
    an optional integer ``rank`` and an optional list of integer
    ``torsion`` orders.  Anything else, including bools, strings such as
    ``"15"``, floats such as ``15.0`` and bytes that are not UTF-8, raises
    a one-line ValueError that starts with ``coker-J table <path>:``.
    """
    return read_json(path, "coker-J table", _coker_j_entries)


def coker_j(degree: int,
            coker_j_table: dict[int, FinAbGroup] | None = None) -> FinAbGroup:
    """Cokernel of the stable J-homomorphism in the given degree (table-backed).

    A built-in degree always answers with the built-in group, and a
    supplied entry for it that names another group is refused.  Other
    degrees are read from the supplied table, or refused.
    """
    supplied = (coker_j_table or {}).get(degree)
    group = _BUILTIN_COKER_J.get(degree, supplied)
    if supplied not in (None, group):
        raise ValueError(
            f"coker-J table entry for degree {degree} is "
            f"{supplied.describe()}, but the built-in group in that degree "
            f"is {group.describe()}")
    if group is not None:
        return group
    raise UnsupportedDimension(
        f"coker-J table exhausted at degree {degree}; built-ins cover "
        f"{sorted(_BUILTIN_COKER_J)}. Extend it by passing coker_j_table= to "
        f"theta_data, or with the abelianization, theta or boundary verb's "
        f"--coker-j-table naming a JSON file "
        f'[{{"degree": {degree}, "rank": 0, "torsion": [...]}}, ...].')


@dataclass(frozen=True)
class SphereData:
    """The group of homotopy (2n+1)-spheres with its distinguished pieces."""

    n: int
    theta: FinAbGroup
    sigma_p: GroupElement
    sigma_q: GroupElement
    ba_generators: tuple[GroupElement, ...]
    coker_j_group: FinAbGroup
    omega: FinAbGroup
    sigma_q_order_assumed: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "theta": self.theta.to_json_dict(),
            "sigma_P": list(self.sigma_p.coords),
            "sigma_Q": list(self.sigma_q.coords),
            "bA_generators": [list(x.coords) for x in self.ba_generators],
            "coker_J": self.coker_j_group.to_json_dict(),
            "omega": self.omega.to_json_dict(),
            "sigma_q_order_assumed": self.sigma_q_order_assumed,
        }


@dataclass(frozen=True)
class AlmostClosedInvariants:
    """Signature and, in the dimensions where it exists, the framing
    obstruction number chi^2 of an almost closed highly connected manifold."""

    sgn: int
    chi2: int | None = None


def theta_data(n: int, sigma_q_order: int | None = None,
               sigma_q_ambient: tuple[int, ...] | None = None,
               coker_j_table: dict[int, FinAbGroup] | None = None) -> SphereData:
    """Assemble the homotopy-sphere group for odd n >= 3.

    The group splits as Z/|bP| + coker J.  Sigma_P generates the bP
    summand.  Sigma_Q is 0 for n = 1 mod 4, equals -Sigma_P for n = 3, 7,
    and for the remaining n = 3 mod 4 defaults to the order-2 element of
    the bP summand; that default can be overridden by ``sigma_q_order``
    (its order inside bP) or pinned exactly with ``sigma_q_ambient``
    (coordinates: bP first, then the coker-J coordinates).  n = 11 is
    refused unless ``sigma_q_ambient`` places Sigma_Q.  Both Sigma_Q
    arguments take integers only (``sigma_q_ambient`` a list or tuple).
    Theta is presented straight from its diagonal relations (a zero adds
    none), and the check that Theta/bA is omega = coker J/<Sigma_Q> is
    what lets ``h1_mcg`` read Theta/<Sigma_P, Sigma_Q> off as omega.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if sigma_q_order is not None and json_int(sigma_q_order,
                                              "sigma_q_order") < 1:
        raise ValueError("sigma_q_order must be >= 1")
    if n == 11 and sigma_q_ambient is None:
        raise UnsupportedDimension(
            "n = 11 is an exceptional case: Sigma_Q does not bound a "
            "parallelisable manifold there, and its placement is not part of "
            "the built-in data. Place it with theta_data's sigma_q_ambient "
            "keyword, which no CLI verb takes.")
    ck = coker_j(2 * n + 1, coker_j_table)  # refuses before the recurrence
    bp = bp_order(2 * n + 2)
    m = 1 + ck.num_coords
    theta, proj = cokernel_presentation(
        IntMatrix.diagonal([bp] + [0] * ck.rank + list(ck.torsion)))

    def from_ambient(vec) -> GroupElement:
        return theta.element(proj.mult_vec(list(vec)))

    e0 = (1,) + (0,) * (m - 1)
    sigma_p = from_ambient(e0)
    assumed = False
    if sigma_q_ambient is not None:
        amb = json_vector(sigma_q_ambient, None, "sigma_q_ambient")
        if len(amb) != m:
            raise ValueError(f"sigma_q_ambient needs {m} coordinates")
    elif signature_only(n):
        amb = (0,) * m
    elif hopf(n):
        amb = tuple(-x for x in e0)
    else:
        order = 2 if sigma_q_order is None else sigma_q_order
        assumed = sigma_q_order is None
        if bp % order:
            raise ValueError(f"sigma_q_order must divide |bP| = {bp}")
        amb = tuple((bp // order) * x for x in e0)
    sigma_q = from_ambient(amb)
    named = {"Sigma_P": sigma_p, "Sigma_Q": sigma_q}
    ba = tuple(named[gen] for _, gen in theorem_b(n)[2])

    if element_order(sigma_p) != bp:
        raise RuntimeError("Sigma_P does not have order |bP| in the assembly")

    # omega = coker J modulo the image of Sigma_Q, and theta/bA must agree
    ck_proj_coords = list(amb[1:])
    if ck.num_coords:
        sq_in_ck = ck.element(ck_proj_coords)
        omega = quotient_by(ck, [sq_in_ck])
    else:
        omega = ck
    if quotient_by(theta, list(ba)) != omega:
        raise RuntimeError("theta/bA disagrees with coker J/<Sigma_Q>")

    return SphereData(n=n, theta=theta, sigma_p=sigma_p, sigma_q=sigma_q,
                      ba_generators=ba, coker_j_group=ck, omega=omega,
                      sigma_q_order_assumed=assumed)


def sphere_data_for(n: int, data: SphereData | None = None) -> SphereData:
    """``data`` once it is checked to be the sphere data of n; the built-in
    sphere data of n when ``data`` is None."""
    if data is None:
        return theta_data(n)
    if data.n != n:
        raise ValueError(f"the sphere data is for n = {data.n}, but the "
                         f"answer asks for n = {n}")
    return data


def boundary_of_plumbing(inv: AlmostClosedInvariants, n: int,
                         data: SphereData | None = None) -> GroupElement:
    """Boundary sphere of an almost closed n-connected (2n+2)-manifold with
    the given invariants, as an element of the homotopy-sphere group: the
    sum over the rows of ``theorem_b(n)`` of divided class times generator.
    chi2 must be given exactly where a row uses it.
    """
    data = sphere_data_for(n, data)
    _, regime, rows = theorem_b(n)
    uses_chi2 = any("chi2" in which for which, _ in rows)
    if uses_chi2 and inv.chi2 is None:
        raise ValueError("chi2 is required for n = 3 mod 4")
    if not uses_chi2 and inv.chi2 is not None:
        raise ValueError(
            f"chi2 is not defined for {regime} (signature-only regime)")
    named = {"Sigma_P": data.sigma_p, "Sigma_Q": data.sigma_q}
    try:
        terms = [divided(which, inv.sgn, inv.chi2) * named[gen]
                 for which, gen in rows]
    except ValueError as exc:
        raise ValueError(f"{exc} ({regime} regime)") from None
    return sum(terms[1:], terms[0])


def describe_theta_element(el: GroupElement, data: SphereData) -> str:
    """Symbolic name of a sphere-group element when it is a standard one."""
    if el.is_zero:
        return "0"
    if el == data.sigma_p:
        return "Sigma_P"
    if el == data.sigma_q:
        return "Sigma_Q"
    if el == -data.sigma_p:
        return "-Sigma_P"
    if el == -data.sigma_q:
        return "-Sigma_Q"
    for k in range(2, min(element_order(data.sigma_p) or 2, 65)):
        if el == k * data.sigma_p:
            return f"{k}.Sigma_P"
    return f"element{list(el.coords)}"


def omega_tau(n: int, data: SphereData | None = None) -> FinAbGroup:
    """Bordism group of closed (2n+1)-manifolds with highly connected
    normal structure over the sphere data of n: coker J modulo the class
    of Sigma_Q."""
    return sphere_data_for(n, data).omega


def minimal_signature(n: int, data: SphereData | None = None) -> int:
    """Minimal positive signature of a closed smooth n-connected
    (2n+2)-manifold: 1 in the Hopf dimensions n = 1, 3, 7 (the projective
    planes over C, H and O), else 8 * |bA / <Sigma_Q>| over the sphere data
    of n."""
    if hopf(n):
        return 1
    data = sphere_data_for(n, data)
    quotient_group, proj = quotient_with_projection(data.theta, [data.sigma_q])
    image = quotient_group.element(proj.mult_vec(list(data.sigma_p.coords)))
    order = element_order(image)
    if order is None:
        raise RuntimeError("Sigma_P image has infinite order; data corrupt")
    return 8 * order

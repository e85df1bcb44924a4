"""Assembled invariants of the mapping class groups of g-fold connected
sums of S^n x S^n for odd n: abelianisations of the mapping class group,
its Torelli subgroup and the framing-quotient group, extension
descriptors, splitting decisions, and the homotopy-equivalence variant.

Every decision emitted carries a stable citation identifier (see the
README for the identifier glossary).  Closed-form table lookups that have
a finite recomputation (coinvariants, small-genus abelianisations) are
cross-checked against the matrix computations; a mismatch aborts rather
than returning either value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .abgroups import (FinAbGroup, direct_sum, quotient_by, subgroup_iso,
                       tensor_with_free, mod_two_quotient)
from . import reference
from .cases import hopf, signature_only, theorem_b

# ``cohomology``, ``spheres`` and ``symplectic`` are imported where they are
# used, so the table lookups (``h1_Gg``, ``splitting_decisions``) load none
# of them and ``h1_half_mcg`` does not load ``spheres``
if TYPE_CHECKING:
    from .spheres import SphereData
    from .symplectic import GroupFamily


class UnsupportedCase(ValueError):
    """A (g, n) regime the built-in data cannot answer."""


@dataclass(frozen=True)
class MCGParams:
    """Inputs for a full report: genus, dimension n, and the data knobs."""

    g: int
    n: int
    sigma_q_order: int | None = None
    coker_j_path: str | None = None

    def sphere_data(self) -> SphereData:
        """One ``theta_data`` call; reads the coker-J file at most once."""
        from .spheres import load_coker_j_file, theta_data

        table = (None if self.coker_j_path is None
                 else load_coker_j_file(self.coker_j_path))
        return theta_data(self.n, sigma_q_order=self.sigma_q_order,
                          coker_j_table=table)


@dataclass(frozen=True)
class Decision:
    """Tri-state answer with the citation id of the clause deciding it."""

    value: str  # "yes" | "no" | "unknown"
    citation: str

    def __post_init__(self):
        if self.value not in ("yes", "no", "unknown"):
            raise ValueError("decision must be yes/no/unknown")

    def to_json_dict(self) -> dict:
        return {"value": self.value, "citation": self.citation}


_S_PI_N_SO = {
    0: FinAbGroup(0, (2, 2)),
    1: FinAbGroup.cyclic(2),
    2: FinAbGroup.cyclic(2),
    3: FinAbGroup.free(1),
    4: FinAbGroup.cyclic(2),
    5: FinAbGroup.trivial(),
    6: FinAbGroup.cyclic(2),
    7: FinAbGroup.free(1),
}


def s_pi_n_so(n: int) -> FinAbGroup:
    """Image of the unstable-to-stable orthogonal stabilisation in degree n.

    Table lookup by n mod 8 (Table 1), with the single exceptional
    vanishing at n = 6.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if n == 6:
        return FinAbGroup.trivial()
    return _S_PI_N_SO[n % 8]


def automorphism_family(n: int) -> GroupFamily:
    """Which arithmetic group acts on middle cohomology for dimension n."""
    from .symplectic import GroupFamily

    if n % 2 == 0:
        return GroupFamily.OGG
    if hopf(n):
        return GroupFamily.SP
    return GroupFamily.SPQ


def h1_Gg(g: int, n: int) -> FinAbGroup:
    """Abelianisation of the automorphism group of the middle-cohomology
    form, for n odd (table-backed)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        raise UnsupportedCase(
            "no abelianisation table for the even-dimensional orthogonal "
            "family O_{g,g}(Z) is built in; the full even-n assembly is "
            "refused for lack of that input")
    if hopf(n):
        if g == 1:
            return FinAbGroup.cyclic(12)
        if g == 2:
            return FinAbGroup.cyclic(2)
        return FinAbGroup.trivial()
    if g == 1:
        return FinAbGroup(1, (4,))
    if g == 2:
        return FinAbGroup(0, (2, 4))
    return FinAbGroup.cyclic(4)


def _coinvariants_by_generators(g: int, n: int) -> FinAbGroup:
    """(Z^2g tensor SpiSO(n))-coinvariants from the generator matrices."""
    from .cohomology import coinvariants
    from .symplectic import standard_generators

    module = s_pi_n_so(n)
    if module.is_trivial:
        return FinAbGroup.trivial()
    gens = standard_generators(automorphism_family(n), g)
    parts = []
    for _ in range(module.rank):
        parts.append(coinvariants(gens, modulus=0))
    for d in module.torsion:
        parts.append(coinvariants(gens, modulus=d))
    return direct_sum(parts)


@lru_cache(maxsize=None)
def coinvariants_closed(g: int, n: int) -> FinAbGroup:
    """Coinvariants of the middle-cohomology action on H(g) tensor SpiSO(n).

    Closed form: 0 for g >= 2 or in the Hopf dimensions n = 3, 7, where
    the group is Sp; otherwise SpiSO(n)/2.  For g <= 3 the value is
    recomputed from generator matrices and a mismatch aborts.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    closed = (FinAbGroup.trivial() if g >= 2 or hopf(n)
              else mod_two_quotient(s_pi_n_so(n)))
    if g <= 3:
        computed = _coinvariants_by_generators(g, n)
        if computed != closed:
            raise RuntimeError(
                f"coinvariants mismatch at (g={g}, n={n}): closed form "
                f"{closed.describe()}, generator matrices {computed.describe()}")
    return closed


def h1_torelli(g: int, n: int, data: SphereData | None = None) -> FinAbGroup:
    """Abelianisation of the Torelli group over the sphere data of n.

    Genus 0 gives the full homotopy-sphere group; otherwise the quotient
    by Sigma_Q plus 2g copies of SpiSO(n).
    """
    from .spheres import sphere_data_for

    if g < 0:
        raise ValueError("genus must be >= 0")
    data = sphere_data_for(n, data)
    if g == 0:
        return data.theta
    free_part = tensor_with_free(s_pi_n_so(n), 2 * g)
    return direct_sum([quotient_by(data.theta, [data.sigma_q]), free_part])


def h1_mcg(g: int, n: int, data: SphereData | None = None) -> FinAbGroup:
    """Abelianisation of the mapping class group over the sphere data of n.

    Genus 0 gives the full homotopy-sphere group; otherwise the quotient
    of the sphere group by K_g (generated by Sigma_Q for g = 1, by Sigma_P
    and Sigma_Q for g >= 2) plus the framing-quotient abelianisation.

    For g >= 2 the quotient is ``data.omega``: <Sigma_P, Sigma_Q> = bA
    whenever the check in ``theta_data``, Theta/bA = coker J/<Sigma_Q>,
    passes.  In case 2 (n = 3 mod 4, not 3, 7) this holds by definition.
    In cases 1 (bA = <Sigma_P>) and 3 (bA = <Sigma_Q>), Theta/<Sigma_P>
    is coker J, so the check makes the surjection Theta/bA ->
    Theta/<Sigma_P, Sigma_Q> = coker J/<Sigma_Q> one between isomorphic
    groups.  Finitely generated abelian groups are Hopfian, so it is
    injective: Sigma_Q lies in <Sigma_P> in case 1, and Sigma_P in
    <Sigma_Q> in case 3.
    """
    from .spheres import sphere_data_for

    if g < 0:
        raise ValueError("genus must be >= 0")
    data = sphere_data_for(n, data)
    if g == 0:
        return data.theta
    kg_quotient = (quotient_by(data.theta, [data.sigma_q]) if g == 1
                   else data.omega)
    return direct_sum([kg_quotient, h1_half_mcg(g, n)])


def h1_half_mcg(g: int, n: int) -> FinAbGroup:
    """Abelianisation of the framing-quotient group: the automorphism-group
    abelianisation plus the coinvariants summand."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    return direct_sum([h1_Gg(g, n), coinvariants_closed(g, n)])


@dataclass(frozen=True)
class ExtensionDescriptor:
    """Which divided class classifies the central extension by the sphere
    group, plus the image of the associated degree-2 differential."""

    n: int
    g: int
    case: str
    classes: tuple[str, ...]
    d2_image_name: str
    d2_image: FinAbGroup | None

    def to_json_dict(self) -> dict:
        return {"n": self.n, "g": self.g, "case": self.case,
                "classes": list(self.classes),
                "d2_image_name": self.d2_image_name,
                "d2_image": None if self.d2_image is None
                else self.d2_image.to_json_dict()}


def extension_descriptor(g: int, n: int,
                         data: SphereData | None = None) -> ExtensionDescriptor:
    """Classify the central extension of the framing quotient by the sphere
    group: the case and divided classes of ``cases.theorem_b(n)``, with
    the d2 image as a subgroup value (None where n has no built-in sphere
    data and none is given)."""
    from .spheres import UnsupportedDimension, sphere_data_for

    if g < 1 or n < 3 or n % 2 == 0:
        raise ValueError("need g >= 1 and odd n >= 3")
    try:
        data = sphere_data_for(n, data)
    except UnsupportedDimension:
        data = None
    case, _, rows = theorem_b(n)
    classes = tuple(f"{which} . {gen}" for which, gen in rows)
    d2_image = None
    if data is not None:
        gens = [data.sigma_q] if g == 1 else list(data.ba_generators)
        d2_image = subgroup_iso(data.theta, gens)
    return ExtensionDescriptor(n=n, g=g, case=case, classes=classes,
                               d2_image_name="<Sigma_Q>" if g == 1 else "bA",
                               d2_image=d2_image)


def splitting_decisions(g: int, n: int) -> dict[str, Decision]:
    """The four named splitting questions, each yes/no/unknown + citation.

    ext4: the framing-quotient extension over the arithmetic group.
    ext3: the central extension by the sphere group.
    kreck1: the full group over the arithmetic group.
    kreck2: the Torelli group over its free quotient.
    """
    if g < 1 or n < 3 or n % 2 == 0:
        raise ValueError("need g >= 1 and odd n >= 3")
    out: dict[str, Decision] = {}
    out["ext4"] = Decision("no" if g >= 2 and hopf(n) else "yes", "ThmA")
    out["ext3"] = Decision("yes" if g == 1 and signature_only(n) else "no",
                           "ThmB")
    if g >= 2:
        out["kreck1"] = Decision("no", "CorC-i")
    elif hopf(n):
        out["kreck1"] = Decision("no" if n == 3 else "unknown", "CorC-i-Rem")
    else:
        out["kreck1"] = Decision("yes", "CorC-i")
    out["kreck2"] = Decision("yes" if signature_only(n) else "no", "CorC-ii")
    return out


@dataclass(frozen=True)
class HautReport:
    """Splitting and abelianisation data for the homotopy self-equivalences."""

    g: int
    n: int
    splits: Decision
    h1_concrete: FinAbGroup
    h1_symbolic_extra: str | None
    spi_2n_sn: FinAbGroup | None
    j_image_order: int | None  # the d_n of the stable J in the n = 3, 7 cases

    def to_json_dict(self) -> dict:
        return {"g": self.g, "n": self.n, "splits": self.splits.to_json_dict(),
                "h1_concrete": self.h1_concrete.to_json_dict(),
                "h1_symbolic_extra": self.h1_symbolic_extra,
                "spi_2n_sn": None if self.spi_2n_sn is None
                else self.spi_2n_sn.to_json_dict(),
                "j_image_order": self.j_image_order}


def haut_report(g: int, n: int,
                spi_2n_sn: FinAbGroup | None = None) -> HautReport:
    """Splitting of the homotopy-equivalence extension and its abelianisation.

    The kernel of restriction to the arithmetic group is the coinvariants
    of H(g) tensor (the suspension image in pi_2n of the n-sphere), which
    vanish for g >= 2 or n = 3, 7 and equal that homotopy group mod 2
    otherwise.  Outside n = 3, 7 the homotopy group is not built in, so the
    extra summand stays symbolic unless the caller supplies the group.
    """
    if g < 1 or n < 3 or n % 2 == 0:
        raise ValueError("need g >= 1 and odd n >= 3")
    d_n = {3: 12, 7: 120}.get(n)
    if hopf(n):
        spi = FinAbGroup.cyclic(d_n) if spi_2n_sn is None else spi_2n_sn
        splits = Decision("yes" if g == 1 else "no", "CorE-i")
    else:
        spi = spi_2n_sn
        splits = Decision("yes", "CorE-i")
    base = h1_Gg(g, n)
    if g >= 2 or hopf(n):
        return HautReport(g, n, splits, base, None, spi, d_n)
    if spi is not None:
        return HautReport(g, n, splits, direct_sum([base, mod_two_quotient(spi)]),
                          None, spi, d_n)
    return HautReport(g, n, splits, base, f"Spi{2 * n}S{n}/2", None, d_n)


def reproduce_table3() -> tuple[str, bool, list[str]]:
    """Recompute the example abelianisation table and diff it cell by cell.

    Covers n in {3, 5, 7, 9} and g in {0, 1, 2, 3}, plus a g = 4 sample
    confirming that the g >= 3 rows are constant.  The sphere data is
    built once per n and shared by every cell of its column.  Returns the
    rendered table, an overall flag, and the list of offending cells.
    """
    from .spheres import theta_data

    ns = (3, 5, 7, 9)
    spheres = {n: theta_data(n) for n in ns}
    mismatches: list[str] = []
    lines = []
    header = "group".ljust(14) + "".join(f"n={n}".ljust(26) for n in ns)
    lines.append(header)
    cells: dict[tuple[str, int, int], FinAbGroup] = {}
    for kind, compute, expect in (
            ("T", h1_torelli, reference.table3_torelli),
            ("Gamma", h1_mcg, reference.table3_mcg)):
        for g in (0, 1, 2, 3, 4):
            row = [f"H1({kind}), g={g}".ljust(14)]
            for n in ns:
                got = cells[kind, g, n] = compute(g, n, spheres[n])
                want = expect(g, n)
                mark = ""
                if got != want:
                    mismatches.append(
                        f"H1({kind}) at (g={g}, n={n}): computed "
                        f"{got.describe()}, expected {want.describe()}")
                    mark = " <-- MISMATCH"
                row.append((got.describe() + mark).ljust(26))
            lines.append("".join(row))
    # stability of the high-genus rows
    for n in ns:
        if cells["Gamma", 3, n] != cells["Gamma", 4, n]:
            mismatches.append(f"H1(Gamma) not stable in g >= 3 at n={n}")
    return "\n".join(lines), not mismatches, mismatches


@dataclass(frozen=True)
class MCGReport:
    """Everything the package can say about one pair (g, n)."""

    params: MCGParams
    h1_mcg: FinAbGroup
    h1_torelli: FinAbGroup
    h1_half_mcg: FinAbGroup
    kg_description: str
    extension: ExtensionDescriptor
    splittings: dict[str, Decision]
    haut: HautReport
    provenance_flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "g": self.params.g, "n": self.params.n,
            "h1_mcg": self.h1_mcg.to_json_dict(),
            "h1_torelli": self.h1_torelli.to_json_dict(),
            "h1_half_mcg": self.h1_half_mcg.to_json_dict(),
            "K_g": self.kg_description,
            "extension": self.extension.to_json_dict(),
            "splittings": {k: d.to_json_dict()
                           for k, d in self.splittings.items()},
            "haut": self.haut.to_json_dict(),
            "provenance_flags": list(self.provenance_flags),
        }


def full_report(params: MCGParams) -> MCGReport:
    """Every invariant of (g, n), all over one build of the sphere data."""
    g, n = params.g, params.n
    if g < 1 or n < 3 or n % 2 == 0:
        raise UnsupportedCase("full reports need g >= 1 and odd n >= 3")
    data = params.sphere_data()
    flags = []
    if data.sigma_q_order_assumed:
        flags.append("sigma_q_order_defaulted_to_2")
    return MCGReport(
        params=params,
        h1_mcg=h1_mcg(g, n, data),
        h1_torelli=h1_torelli(g, n, data),
        h1_half_mcg=h1_half_mcg(g, n),
        kg_description="<Sigma_Q>" if g == 1 else "<Sigma_P, Sigma_Q>",
        extension=extension_descriptor(g, n, data),
        splittings=splitting_decisions(g, n),
        haut=haut_report(g, n),
        provenance_flags=tuple(flags),
    )

"""Assembled invariants of the mapping class groups of g-fold connected
sums of S^n x S^n for odd n: abelianisations of the mapping class group,
its Torelli subgroup and the framing-quotient group, extension
descriptors, splitting decisions, and the homotopy-equivalence variant.

Every decision emitted carries a stable citation identifier (see the
README for the identifier glossary).  The closed forms (the coinvariants,
the small-genus abelianisations) are returned as they stand; ``verify``
compares them with the matrix computations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .abgroups import (FinAbGroup, direct_sum, subgroup_iso,
                       tensor_with_free, mod_two_quotient)
from .cases import hopf, signature_only, theorem_b
from .inputs import Record, json_int_at_least

# ``spheres``, ``symplectic`` and ``reference`` are imported where they are
# used, so the table lookups (``h1_Gg``, ``splitting_decisions``,
# ``h1_half_mcg``) load none of them, and only ``reproduce_table3``, a
# check, reads the paper's tables
if TYPE_CHECKING:
    from .spheres import SphereData
    from .symplectic import GroupFamily


class UnsupportedCase(ValueError):
    """A (g, n) regime the built-in data cannot answer."""


class MCGParams(Record):
    """Inputs for a full report: genus, dimension n, and the data knobs."""

    _fields = ("g", "n", "sigma_q_order", "coker_j_path")

    def __init__(self, g: int, n: int, sigma_q_order: int | None = None,
                 coker_j_path: str | None = None):
        self.__dict__.update(g=g, n=n, sigma_q_order=sigma_q_order,
                             coker_j_path=coker_j_path)

    def sphere_data(self) -> SphereData:
        """One ``theta_data`` call; reads the coker-J file at most once."""
        from .spheres import load_sphere_data

        return load_sphere_data(self.n, self.sigma_q_order, self.coker_j_path)


def _check_paper_range(g: int, n: int) -> None:
    """Refuse (g, n) outside the paper's range, g >= 1 and odd n >= 3: a g
    or n that is not an integer by the ``json_int`` rule with ValueError,
    the other ones with UnsupportedCase."""
    outside = "need g >= 1 and odd n >= 3"
    json_int_at_least(g, 1, "genus", outside, UnsupportedCase)
    json_int_at_least(n, 3, "n", outside, UnsupportedCase)
    if n % 2 == 0:
        raise UnsupportedCase(outside)


class Decision(Record):
    """Tri-state answer with the citation id of the clause deciding it."""

    _fields = ("value", "citation")

    def __init__(self, value: str, citation: str):
        if value not in ("yes", "no", "unknown"):
            raise ValueError("decision must be yes/no/unknown")
        self.__dict__.update(value=value, citation=citation)


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
    vanishing at n = 6.  n must be an integer >= 3 by the ``json_int`` rule.
    """
    if json_int_at_least(n, 3, "n") == 6:
        return FinAbGroup.trivial()
    return _S_PI_N_SO[n % 8]


def automorphism_family(n: int) -> GroupFamily:
    """Which arithmetic group acts on middle cohomology for dimension n, an
    integer >= 1 by the ``json_int`` rule."""
    from .symplectic import GroupFamily

    json_int_at_least(n, 1, "n")
    if n % 2 == 0:
        return GroupFamily.OGG
    if hopf(n):
        return GroupFamily.SP
    return GroupFamily.SPQ


def h1_Gg(g: int, n: int) -> FinAbGroup:
    """Abelianisation of the automorphism group of the middle-cohomology
    form, for n odd (table-backed)."""
    json_int_at_least(g, 1, "genus")
    json_int_at_least(n, 1, "n")
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


# the memo saves no work on a closed form; it stays because the benchmark's
# tracer reads its cache_info(), a name tests/test_bench_names.py pins
@lru_cache(maxsize=None, typed=True)
def coinvariants_closed(g: int, n: int) -> FinAbGroup:
    """Coinvariants of the middle-cohomology action on H(g) tensor SpiSO(n).

    Closed form: 0 for g >= 2 or in the Hopf dimensions n = 3, 7, where
    the group is Sp; otherwise SpiSO(n)/2.  ``verify``'s
    ``coinvariants-closed-vs-generators`` compares it with the coinvariants
    of the generator matrices for g <= 3.  The memo is typed, so 1.0 and
    True never meet the entries of 1, and reach the checks.
    """
    json_int_at_least(g, 1, "genus")
    json_int_at_least(n, 3, "n")
    return (FinAbGroup.trivial() if g >= 2 or hopf(n)
            else mod_two_quotient(s_pi_n_so(n)))


def h1_torelli(g: int, n: int, data: SphereData | None = None) -> FinAbGroup:
    """Abelianisation of the Torelli group over the sphere data of n.

    Genus 0 gives the full homotopy-sphere group; otherwise the quotient
    by Sigma_Q, which the sphere data holds as ``theta_mod_sigma_q``, plus
    2g copies of SpiSO(n).
    """
    from .spheres import sphere_data_for

    json_int_at_least(g, 0, "genus")
    data = sphere_data_for(n, data)
    if g == 0:
        return data.theta
    free_part = tensor_with_free(s_pi_n_so(n), 2 * g)
    return direct_sum([data.theta_mod_sigma_q[0], free_part])


def h1_mcg(g: int, n: int, data: SphereData | None = None) -> FinAbGroup:
    """Abelianisation of the mapping class group over the sphere data of n.

    Genus 0 gives the full homotopy-sphere group; otherwise the quotient
    of the sphere group by K_g (generated by Sigma_Q for g = 1, by Sigma_P
    and Sigma_Q for g >= 2) plus the framing-quotient abelianisation.
    Both quotients are read off the sphere data, and none is formed here.

    For g = 1 the quotient is the group of ``data.theta_mod_sigma_q``.
    For g >= 2 it is ``data.omega``: <Sigma_P, Sigma_Q> = bA
    whenever Theta/bA = coker J/<Sigma_Q>.  That identity holds by
    construction for every built-in placement of Sigma_Q, and
    ``theta_data`` checks it for a Sigma_Q placed with
    ``sigma_q_ambient``, refusing one that breaks it.  In case 2
    (n = 3 mod 4, not 3, 7) bA = <Sigma_P, Sigma_Q> by definition.
    In cases 1 (bA = <Sigma_P>) and 3 (bA = <Sigma_Q>), Theta/<Sigma_P>
    is coker J, so the identity makes the surjection Theta/bA ->
    Theta/<Sigma_P, Sigma_Q> = coker J/<Sigma_Q> one between isomorphic
    groups.  Finitely generated abelian groups are Hopfian, so it is
    injective: Sigma_Q lies in <Sigma_P> in case 1, and Sigma_P in
    <Sigma_Q> in case 3.
    """
    from .spheres import sphere_data_for

    json_int_at_least(g, 0, "genus")
    data = sphere_data_for(n, data)
    if g == 0:
        return data.theta
    kg_quotient = data.theta_mod_sigma_q[0] if g == 1 else data.omega
    return direct_sum([kg_quotient, h1_half_mcg(g, n)])


def h1_half_mcg(g: int, n: int) -> FinAbGroup:
    """Abelianisation of the framing-quotient group: the automorphism-group
    abelianisation plus the coinvariants summand."""
    json_int_at_least(g, 1, "genus")
    return direct_sum([h1_Gg(g, n), coinvariants_closed(g, n)])


class ExtensionDescriptor(Record):
    """Which divided class classifies the central extension by the sphere
    group, plus the image of the associated degree-2 differential."""

    _fields = ("n", "g", "case", "classes", "d2_image_name", "d2_image")

    def __init__(self, n: int, g: int, case: str, classes: tuple[str, ...],
                 d2_image_name: str, d2_image: FinAbGroup | None):
        self.__dict__.update(n=n, g=g, case=case, classes=classes,
                             d2_image_name=d2_image_name, d2_image=d2_image)


def extension_descriptor(g: int, n: int,
                         data: SphereData | None = None) -> ExtensionDescriptor:
    """Classify the central extension of the framing quotient by the sphere
    group: the case and divided classes of ``cases.theorem_b(n)``, with
    the d2 image as a subgroup value (None where n has no built-in sphere
    data and none is given)."""
    from .spheres import UnsupportedDimension, sphere_data_for

    _check_paper_range(g, n)
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
    _check_paper_range(g, n)
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


class HautReport(Record):
    """Splitting and abelianisation data for the homotopy self-equivalences;
    ``j_image_order`` is the d_n of the stable J in the n = 3, 7 cases."""

    _fields = ("g", "n", "splits", "h1_concrete", "h1_symbolic_extra",
               "spi_2n_sn", "j_image_order")

    def __init__(self, g: int, n: int, splits: Decision,
                 h1_concrete: FinAbGroup, h1_symbolic_extra: str | None,
                 spi_2n_sn: FinAbGroup | None, j_image_order: int | None):
        self.__dict__.update(
            g=g, n=n, splits=splits, h1_concrete=h1_concrete,
            h1_symbolic_extra=h1_symbolic_extra, spi_2n_sn=spi_2n_sn,
            j_image_order=j_image_order)


def haut_report(g: int, n: int) -> HautReport:
    """Splitting of the homotopy-equivalence extension and its abelianisation.

    The kernel of restriction to the arithmetic group is the coinvariants
    of H(g) tensor (the suspension image in pi_2n of the n-sphere), which
    vanish for g >= 2 or n = 3, 7 and equal that homotopy group mod 2
    otherwise.  Outside n = 3, 7 the homotopy group is not built in, so the
    extra summand stays symbolic.
    """
    _check_paper_range(g, n)
    d_n = {3: 12, 7: 120}.get(n)
    base = h1_Gg(g, n)
    if hopf(n):
        return HautReport(g, n, Decision("yes" if g == 1 else "no", "CorE-i"),
                          base, None, FinAbGroup.cyclic(d_n), d_n)
    extra = None if g >= 2 else f"Spi{2 * n}S{n}/2"
    return HautReport(g, n, Decision("yes", "CorE-i"), base, extra, None, d_n)


def reproduce_table3() -> tuple[str, bool, list[str]]:
    """Recompute the example abelianisation table and diff it cell by cell.

    Covers n in {3, 5, 7, 9} and g in {0, 1, 2, 3}, plus a g = 4 sample
    confirming that the g >= 3 rows are constant.  The sphere data is
    built once per n and shared by every cell of its column.  Returns the
    rendered table, an overall flag, and the list of offending cells.
    """
    from . import reference
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


class MCGReport(Record):
    """Everything the package can say about one pair (g, n)."""

    _fields = ("params", "h1_mcg", "h1_torelli", "h1_half_mcg",
               "kg_description", "extension", "splittings", "haut",
               "provenance_flags")

    def __init__(self, params: MCGParams, h1_mcg: FinAbGroup,
                 h1_torelli: FinAbGroup, h1_half_mcg: FinAbGroup,
                 kg_description: str, extension: ExtensionDescriptor,
                 splittings: dict[str, Decision], haut: HautReport,
                 provenance_flags: tuple[str, ...] = ()):
        self.__dict__.update(
            params=params, h1_mcg=h1_mcg, h1_torelli=h1_torelli,
            h1_half_mcg=h1_half_mcg, kg_description=kg_description,
            extension=extension, splittings=splittings, haut=haut,
            provenance_flags=provenance_flags)

    def to_json_dict(self) -> dict:
        """The generic fields with ``params`` as ``g`` and ``n`` and
        ``kg_description`` as ``K_g``, in field order."""
        items = super().to_json_dict().items()
        return {"g": self.params.g, "n": self.params.n,
                **{"K_g" if k == "kg_description" else k: v
                   for k, v in items if k != "params"}}


def full_report(params: MCGParams) -> MCGReport:
    """Every invariant of (g, n), all over one build of the sphere data."""
    g, n = params.g, params.n
    _check_paper_range(g, n)
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

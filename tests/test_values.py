"""Value semantics of the package's thirteen value classes.

Each class is built positionally and by keyword from the same values.  Two
instances are equal when they have the same class and equal fields, the
hash is the hash of the field tuple, assignment and deletion raise
AttributeError, and the repr is ``Name(field=value, ...)``.  Derived
attributes (``GModule.inverses``, ``SurfaceClass.table`` and ``vectors``)
take no part in equality, hash or repr.
"""

import pytest

from hdmcg.abgroups import FinAbGroup, GroupElement
from hdmcg.cocycles import SurfaceClass
from hdmcg.cohomology import GModule, Presentation
from hdmcg.inputs import Record
from hdmcg.linalg import IntMatrix, SNFResult
from hdmcg.mcg import (Decision, ExtensionDescriptor, HautReport, MCGParams,
                       MCGReport, full_report)
from hdmcg.spheres import AlmostClosedInvariants, SphereData, theta_data

SHEAR = IntMatrix([[1, 1], [0, 1]])
Z4 = FinAbGroup(0, (4,))


def _fields_of(obj, names):
    return tuple(getattr(obj, name) for name in names)


def _report_values():
    rep = full_report(MCGParams(1, 5))
    return _fields_of(rep, REPORT_FIELDS)


def _sphere_values():
    return _fields_of(theta_data(7), SPHERE_FIELDS)


REPORT_FIELDS = ("params", "h1_mcg", "h1_torelli", "h1_half_mcg",
                 "kg_description", "extension", "splittings", "haut",
                 "provenance_flags")
SPHERE_FIELDS = ("n", "theta", "sigma_p", "sigma_q", "ba_generators",
                 "coker_j_group", "omega", "sigma_q_order_assumed")

# class -> (field names in order, a function giving stored field values,
# derived attribute names, the defaults of the trailing fields)
CASES = {
    FinAbGroup: (("rank", "torsion"), lambda: (2, (2, 4)), (), {"torsion": ()}),
    GroupElement: (("owner", "coords"), lambda: (Z4, (3,)), (), {}),
    SurfaceClass: (("g", "pairs", "translations"),
                   lambda: (1, ((SHEAR, SHEAR),), None),
                   ("table", "vectors"), {"translations": None}),
    Presentation: (("num_generators", "relators"),
                   lambda: (2, ((1, 2, -1, -2),)), (), {}),
    GModule: (("dimension", "modulus", "actions"),
              lambda: (2, 3, (SHEAR,)), ("inverses",), {}),
    SNFResult: (("U", "D", "V"),
                lambda: (IntMatrix.identity(2), SHEAR, IntMatrix.identity(2)),
                (), {}),
    MCGParams: (("g", "n", "sigma_q_order", "coker_j_path"),
                lambda: (2, 5, 4, "table.json"), (),
                {"sigma_q_order": None, "coker_j_path": None}),
    Decision: (("value", "citation"), lambda: ("yes", "ThmA"), (), {}),
    ExtensionDescriptor: (("n", "g", "case", "classes", "d2_image_name",
                           "d2_image"),
                          lambda: (5, 2, "B", ("a . b",), "bA", Z4), (), {}),
    HautReport: (("g", "n", "splits", "h1_concrete", "h1_symbolic_extra",
                  "spi_2n_sn", "j_image_order"),
                 lambda: (1, 3, Decision("yes", "CorE-i"), Z4, None,
                          FinAbGroup.cyclic(12), 12), (), {}),
    MCGReport: (REPORT_FIELDS, _report_values, (), {"provenance_flags": ()}),
    SphereData: (SPHERE_FIELDS, _sphere_values, ("theta_mod_sigma_q",), {}),
    AlmostClosedInvariants: (("sgn", "chi2"), lambda: (8, 16), (),
                             {"chi2": None}),
}
IDS = [cls.__name__ for cls in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    cls = request.param
    names, make, derived, defaults = CASES[cls]
    return cls, names, make(), derived, defaults


def test_the_cases_cover_every_value_class():
    assert set(Record.__subclasses__()) == set(CASES) and len(CASES) == 13


def test_positional_and_keyword_construction_agree(case):
    cls, names, values, _, defaults = case
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert _fields_of(by_position, names) == values
    assert _fields_of(by_keyword, names) == values
    assert by_position == by_keyword
    # the trailing fields with defaults may be left out
    short = cls(*values[:len(names) - len(defaults)])
    assert {n: getattr(short, n) for n in defaults} == defaults


def test_equality_and_hash_follow_the_field_tuple(case):
    cls, names, values, _, _ = case
    obj = cls(*values)
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj.__eq__(values) is NotImplemented
    assert obj != values
    try:
        expected = hash(values)
    except TypeError:  # a field holds a dict, as the report's splittings
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected


def test_a_different_field_breaks_equality():
    assert FinAbGroup(2, (2, 4)) != FinAbGroup(2, (4,))
    assert Decision("yes", "ThmA") != Decision("yes", "ThmB")
    assert MCGParams(2, 5) != MCGParams(2, 5, 4)
    assert AlmostClosedInvariants(8) != AlmostClosedInvariants(8, 0)


def test_assignment_and_deletion_raise(case):
    cls, names, values, derived, _ = case
    obj = cls(*values)
    for name in (*names, *derived, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert _fields_of(obj, names) == values


def test_repr_names_the_fields(case):
    cls, names, values, _, _ = case
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", [GModule, SurfaceClass, SphereData],
                         ids=["GModule", "SurfaceClass", "SphereData"])
def test_derived_attributes_are_ignored(cls):
    _, make, derived, _ = CASES[cls]
    obj = cls(*make())
    twin = object.__new__(cls)
    twin.__dict__.update(obj.__dict__)
    twin.__dict__.update(dict.fromkeys(derived, "changed"))
    assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)

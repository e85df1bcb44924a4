"""Value semantics of the package's thirteen value classes.

Each class is built positionally and by keyword from the same values,
bar ``SphereData``, which has no public constructor: it is built by
``theta_data``, and by ``Record._trusted`` from its fields.  Two
instances are equal when they have the same class and equal fields, the
hash is the hash of the field tuple, assignment and deletion raise
AttributeError, and the repr is ``Name(field=value, ...)``.  Derived
attributes (``GModule.inverses``, ``SurfaceClass.table`` and ``vectors``,
and the move logs of an ``SNFResult`` from ``snf``) take no part in
equality, hash or repr.

The JSON of the report classes is pinned against the hand-written
serialisers they had before ``Record.to_json_dict`` rendered their fields,
key order included, and the CLI's JSON lines against their earlier bytes.
A field that holds an ``IntMatrix`` renders as its row lists.
"""

import ast
import json
from pathlib import Path

import pytest

import hdmcg
from hdmcg.abgroups import FinAbGroup, GroupElement
from hdmcg.cli import main
from hdmcg.cocycles import SurfaceClass
from hdmcg.cohomology import GModule, Presentation
from hdmcg.inputs import Record
from hdmcg.linalg import IntMatrix, SNFResult, snf
from hdmcg.mcg import (Decision, ExtensionDescriptor, HautReport, MCGParams,
                       MCGReport, extension_descriptor, full_report,
                       haut_report, splitting_decisions)
from hdmcg.spheres import AlmostClosedInvariants, SphereData, theta_data

SHEAR = IntMatrix([[1, 1], [0, 1]])
Z4 = FinAbGroup(0, (4,))


def _fields_of(obj, names):
    return tuple(getattr(obj, name) for name in names)


def _build(cls, values):
    """The instance of cls with the given field values, by its public
    constructor, or for ``SphereData`` by ``theta_data``."""
    if cls is SphereData:
        data = theta_data(values[0])
        assert _fields_of(data, SPHERE_FIELDS) == values
        return data
    return cls(*values)


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
    if cls is SphereData:  # refused either way; the trusted builder agrees
        for call in (lambda: cls(*values),
                     lambda: cls(**dict(zip(names, values)))):
            with pytest.raises(TypeError, match="no public constructor"):
                call()
        built = cls._trusted(**dict(zip(names, values)))
        assert _fields_of(built, names) == values
        assert built == _build(cls, values)
        return
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
    obj = _build(cls, values)
    assert obj == _build(cls, values) and not obj != _build(cls, values)
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
    obj = _build(cls, values)
    for name in (*names, *derived, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert _fields_of(obj, names) == values


def test_repr_names_the_fields(case):
    cls, names, values, _, _ = case
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(_build(cls, values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", [GModule, SurfaceClass, SphereData],
                         ids=["GModule", "SurfaceClass", "SphereData"])
def test_derived_attributes_are_ignored(cls):
    _, make, derived, _ = CASES[cls]
    obj = _build(cls, make())
    assert set(derived) <= set(vars(obj))
    twin = cls._trusted(**{**vars(obj), **dict.fromkeys(derived, "changed")})
    assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)


def test_a_smith_form_from_snf_is_the_value_of_its_matrices():
    """``snf`` keeps move logs and builds U and V on first read; the result
    still equals, hashes and shows as the explicit ``SNFResult`` of its
    matrices, refuses assignment and deletion before and after the first
    read, and its logs take no part in equality, hash or repr."""
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    for names in (("U", "D", "V"), ("V",), ("U",), ()):
        res = snf(m)
        for name in ("U", "D", "V", "_row_moves"):
            with pytest.raises(AttributeError):
                setattr(res, name, 0)
            with pytest.raises(AttributeError):
                delattr(res, name)
        for name in names:
            getattr(res, name)
        explicit = SNFResult(res.U, res.D, res.V)
        assert res == explicit and explicit == res
        assert hash(res) == hash(explicit) and repr(res) == repr(explicit)
        twin = SNFResult._trusted(**{**vars(res), "_row_moves": [],
                                     "_col_moves": []})
        assert twin == res and hash(twin) == hash(res)
        assert repr(twin) == repr(res)
        for name in ("U", "V"):
            with pytest.raises(AttributeError):
                setattr(res, name, 0)
            with pytest.raises(AttributeError):
                delattr(res, name)


# The serialisers the five classes wrote out by hand, kept as the reference
# for the generic rule.
def _group_json(grp):
    return {"rank": grp.rank, "torsion": list(grp.torsion)}


def _decision_json(d):
    return {"value": d.value, "citation": d.citation}


def _extension_json(e):
    return {"n": e.n, "g": e.g, "case": e.case, "classes": list(e.classes),
            "d2_image_name": e.d2_image_name,
            "d2_image": None if e.d2_image is None
            else _group_json(e.d2_image)}


def _haut_json(h):
    return {"g": h.g, "n": h.n, "splits": _decision_json(h.splits),
            "h1_concrete": _group_json(h.h1_concrete),
            "h1_symbolic_extra": h.h1_symbolic_extra,
            "spi_2n_sn": None if h.spi_2n_sn is None
            else _group_json(h.spi_2n_sn),
            "j_image_order": h.j_image_order}


def _report_json(r):
    return {
        "g": r.params.g, "n": r.params.n,
        "h1_mcg": _group_json(r.h1_mcg),
        "h1_torelli": _group_json(r.h1_torelli),
        "h1_half_mcg": _group_json(r.h1_half_mcg),
        "K_g": r.kg_description,
        "extension": _extension_json(r.extension),
        "splittings": {k: _decision_json(d) for k, d in r.splittings.items()},
        "haut": _haut_json(r.haut),
        "provenance_flags": list(r.provenance_flags),
    }


def _same_json(got, want):
    """Equal, and equal as text, so key order and list-for-tuple count."""
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_report_json_matches_the_hand_written_serialisers(g, n):
    rep = full_report(MCGParams(g, n))
    _same_json(rep.to_json_dict(), _report_json(rep))
    haut = haut_report(g, n)
    _same_json(haut.to_json_dict(), _haut_json(haut))
    ext = extension_descriptor(g, n)
    _same_json(ext.to_json_dict(), _extension_json(ext))
    for d in splitting_decisions(g, n).values():
        _same_json(d.to_json_dict(), _decision_json(d))


def test_extension_json_without_sphere_data():
    """n = 11 has no built-in sphere data, so the d2 image is None."""
    ext = extension_descriptor(2, 11)
    assert ext.d2_image is None
    _same_json(ext.to_json_dict(), _extension_json(ext))
    assert ext.to_json_dict()["d2_image"] is None


@pytest.mark.parametrize("grp", [FinAbGroup.trivial(), FinAbGroup.free(3),
                                 FinAbGroup(0, (2, 2, 12)),
                                 FinAbGroup(2, (4, 992))])
def test_group_json_is_rank_and_torsion(grp):
    _same_json(grp.to_json_dict(), _group_json(grp))


def test_a_report_with_a_provenance_flag():
    rep = MCGReport(*_report_values()[:-1], ("sigma_q_order_defaulted_to_2",))
    _same_json(rep.to_json_dict(), _report_json(rep))
    assert rep.to_json_dict()["provenance_flags"] \
        == ["sigma_q_order_defaulted_to_2"]


@pytest.mark.parametrize("argv, line", [
    ("abelianization --g 1 --n 5", '{"rank": 1, "torsion": [4, 992]}'),
    ("abelianization --g 2 --n 7 --group torelli",
     '{"rank": 4, "torsion": [2]}'),
    ("abelianization --g 3 --n 9 --group halfmcg",
     '{"rank": 0, "torsion": [4]}'),
    ("abelianization --g 1 --n 3 --group gg", '{"rank": 0, "torsion": [12]}'),
    ("splits --g 1 --n 5",
     '{"ext3": {"citation": "ThmB", "value": "yes"}, '
     '"ext4": {"citation": "ThmA", "value": "yes"}, '
     '"kreck1": {"citation": "CorC-i", "value": "yes"}, '
     '"kreck2": {"citation": "CorC-ii", "value": "yes"}}'),
    ("splits --g 2 --n 3",
     '{"ext3": {"citation": "ThmB", "value": "no"}, '
     '"ext4": {"citation": "ThmA", "value": "no"}, '
     '"kreck1": {"citation": "CorC-i", "value": "no"}, '
     '"kreck2": {"citation": "CorC-ii", "value": "no"}}'),
    ("theta --n 7",
     '{"bA_generators": [[0, 8127]], "coker_J": {"rank": 0, "torsion": [2]}, '
     '"n": 7, "omega": {"rank": 0, "torsion": [2]}, "sigma_P": [0, 1], '
     '"sigma_Q": [0, 8127], "sigma_q_order_assumed": false, '
     '"theta": {"rank": 0, "torsion": [2, 8128]}}'),
    ("theta --n 9",
     '{"bA_generators": [[0, 1]], "coker_J": {"rank": 0, "torsion": [2]}, '
     '"n": 9, "omega": {"rank": 0, "torsion": [2]}, "sigma_P": [0, 1], '
     '"sigma_Q": [0, 0], "sigma_q_order_assumed": false, '
     '"theta": {"rank": 0, "torsion": [2, 261632]}}'),
])
def test_cli_json_lines_are_unchanged(capsys, argv, line):
    assert main([*argv.split(), "--format", "json"]) == 0
    assert capsys.readouterr() == (line + "\n", "")


def test_only_the_classes_whose_json_differs_override_the_rule():
    own = {cls for cls in Record.__subclasses__()
           if "to_json_dict" in vars(cls)}
    assert own == {MCGReport, SphereData, SurfaceClass}


def test_matrix_fields_render_as_row_lists():
    s = IntMatrix([[0, -1], [1, 0]])
    line = json.dumps(GModule(2, 3, (s,)).to_json_dict())
    assert line == ('{"dimension": 2, "modulus": 3, '
                    '"actions": [[[0, -1], [1, 0]]]}')
    res = snf(IntMatrix([[2, 4], [6, 8]]))
    assert json.loads(json.dumps(res.to_json_dict())) == {
        "U": res.U.to_lists(), "D": [[2, 0], [0, 4]], "V": res.V.to_lists()}


def _object_new_callers(node, where=""):
    """The qualified name of the function around each ``object.__new__``
    call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) \
                and ast.unparse(child.func) == "object.__new__":
            yield where
        inner = where
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{where}.{child.name}" if where else child.name
        yield from _object_new_callers(child, inner)


def test_values_from_trusted_parts_have_one_builder():
    """Package code builds a value from parts it holds valid through
    ``Record._trusted`` alone (``IntMatrix``, not a record, has ``_of``):
    no other function calls ``object.__new__``, and no ``_unchecked``
    constructor is left."""
    callers = set()
    for path in Path(hdmcg.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "_unchecked" not in source, path.name
        callers.update(f"{path.name}:{where}" for where
                       in _object_new_callers(ast.parse(source)))
    assert callers == {"inputs.py:Record._trusted", "linalg.py:IntMatrix._of"}

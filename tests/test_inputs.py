"""One table of malformed outside inputs, over every entry point.

Each bad value ends in exactly one ValueError line that names its source.
The two file loaders run through the CLI: exit 1, nothing on stdout and
one stderr line that starts with ``<kind> <path>:``.  The library entry
points raise a one-line ValueError that names the key or argument.  The
guards at the end keep the JSON-integer rule and the file reading in
``hdmcg.inputs``, and keep every module from reading the process
environment.
"""

import ast
import inspect
import json
import re
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hdmcg.inputs
from hdmcg import symplectic
from hdmcg.abgroups import FinAbGroup
from hdmcg.cli import main
from hdmcg.cocycles import SurfaceClass, class_from_json_dict, load_class_file
from hdmcg.cohomology import GModule, Presentation
from hdmcg.inputs import json_int, json_vector
from hdmcg.linalg import IntMatrix
from hdmcg.mcg import (MCGParams, automorphism_family, coinvariants_closed,
                       extension_descriptor, full_report, h1_Gg, h1_half_mcg,
                       h1_mcg, h1_torelli, haut_report, s_pi_n_so,
                       splitting_decisions)
from hdmcg.spheres import (AlmostClosedInvariants, _coker_j_entries,
                           boundary_of_plumbing, load_coker_j_file,
                           minimal_signature, omega_tau, theta_data)
from hdmcg.symplectic import (GroupFamily, is_member, j_matrix,
                              standard_generators, theta_index)

IDENT4 = [[int(i == j) for j in range(4)] for i in range(4)]
NOT_UTF8 = b"\xff\xfe[]"
TRUNCATED = b'{"g": 2,'


def _blob(obj) -> bytes:
    return json.dumps(obj).encode()


def _class(**entries) -> bytes:
    return _blob({"g": 2, "pairs": [[IDENT4, IDENT4]], **entries})


# ((kind, argv), file contents, message) for the CLI; the coker-J file is
# tried through the flag of each of the three verbs that take it (the
# "env" ids are kept from the environment variable, which is no longer
# read, that was the third source before ``boundary`` took the flag)
CLASS = ("class file", ["signature", "--file"])
FLAG = ("coker-J table",
        ["abelianization", "--g", "1", "--n", "15", "--coker-j-table"])
BOUNDARY_FLAG = ("coker-J table",
                 ["boundary", "--n", "13", "--sgn", "0", "--coker-j-table"])
THETA_FLAG = ("coker-J table", ["theta", "--n", "15", "--coker-j-table"])
FILE_CASES = {
    "class-true": (CLASS, _class(g=True), "g must be an integer"),
    "class-float": (CLASS, _class(g=2.0), "g must be an integer"),
    "class-string": (CLASS, _class(g="2"), "g must be an integer"),
    "class-missing-key": (CLASS, _blob({"g": 2}), "no 'pairs' entry"),
    "class-non-list": (CLASS, _class(pairs=2), "pairs must be a list"),
    "class-non-object": (CLASS, _blob([{"g": 2}]), "JSON object"),
    "class-not-utf8": (CLASS, NOT_UTF8, "not valid JSON"),
    "class-truncated": (CLASS, TRUNCATED, "not valid JSON"),
}
for via, source in (("flag", FLAG), ("env", BOUNDARY_FLAG),
                    ("theta-flag", THETA_FLAG)):
    FILE_CASES.update({
        f"coker-j-{via}-true": (source, _blob([{"degree": True}]),
                                "integer degree"),
        f"coker-j-{via}-float": (source, _blob([{"degree": 31.0}]),
                                 "integer degree"),
        f"coker-j-{via}-string": (source, _blob([{"degree": 31, "rank": "2"}]),
                                  "integer degree and rank"),
        f"coker-j-{via}-missing-key": (source, _blob([{"torsion": [2]}]),
                                       "no 'degree'"),
        f"coker-j-{via}-non-list": (source, _blob([{"degree": 31,
                                                    "torsion": 2}]),
                                    "integer torsion"),
        f"coker-j-{via}-non-object": (source, _blob([2]), "JSON object"),
        f"coker-j-{via}-not-utf8": (source, NOT_UTF8, "not valid JSON"),
        f"coker-j-{via}-truncated": (source, TRUNCATED, "not valid JSON"),
    })


@pytest.mark.parametrize("source, contents, message", FILE_CASES.values(),
                         ids=FILE_CASES.keys())
def test_malformed_file_is_one_line_naming_the_file(tmp_path, capsys, source,
                                                    contents, message):
    kind, argv = source
    path = tmp_path / "input.json"
    path.write_bytes(contents)
    code = main(argv + [str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{kind} {path}: ") and message in err


STUB = {31: FinAbGroup.cyclic(2)}
CALL_CASES = {
    "group-true": (lambda x: FinAbGroup(x, ()), True,
                   "rank must be an integer"),
    "group-float": (lambda x: FinAbGroup(0, (x,)), 2.0,
                    "torsion factor must be an integer"),
    "group-string": (lambda x: FinAbGroup(x, ()), "2",
                     "rank must be an integer"),
}
for name, bad in (("true", True), ("float", 2.0), ("string", "2")):
    CALL_CASES[f"sigma-q-order-{name}"] = (
        lambda x: theta_data(15, sigma_q_order=x, coker_j_table=STUB), bad,
        "sigma_q_order must be an integer")
    CALL_CASES[f"sigma-q-ambient-{name}"] = (
        lambda x: theta_data(7, sigma_q_ambient=(x, 0)), bad,
        "sigma_q_ambient must hold integers")
CALL_CASES["sigma-q-ambient-non-list"] = (
    lambda x: theta_data(7, sigma_q_ambient=x), 2,
    "sigma_q_ambient must hold integers")
for name, bad in (("float", 1.9), ("true", True), ("string", "1")):
    CALL_CASES[f"presentation-letter-{name}"] = (
        lambda x: Presentation(2, ((1, x),)), bad,
        "a relator must hold integers")
CALL_CASES["presentation-word-non-list"] = (
    lambda x: Presentation(2, (x,)), 1, "a relator must hold integers")
CALL_CASES["presentation-count-float"] = (
    lambda x: Presentation(x, ((1,),)), 2.5,
    "the generator count must be an integer")
CALL_CASES["presentation-letter-out-of-range"] = (
    lambda x: Presentation(2, ((1, x),)), 3, "letter 3 out of range")
for name, bad, message in (
        ("float", 2.0, "the dimension must be an integer"),
        ("true", True, "the dimension must be an integer"),
        ("string", "2", "the dimension must be an integer"),
        ("negative", -1, "the dimension must be >= 0")):
    CALL_CASES[f"module-dimension-{name}"] = (
        lambda x: GModule(x, 0, ()), bad, message)


@pytest.mark.parametrize("call, bad, message", CALL_CASES.values(),
                         ids=CALL_CASES.keys())
def test_malformed_value_is_one_line_naming_its_key(call, bad, message):
    with pytest.raises(ValueError, match=message) as err:
        call(bad)
    assert "\n" not in str(err.value)


# every genus and dimension the library takes, by the JSON-integer rule:
# (call of the one argument, a value it accepts); hdmcg.symplectic._check
# is reached through is_member, hdmcg.cocycles._genus through SurfaceClass,
# hdmcg.mcg._check_paper_range through the answers that call it and
# hdmcg.spheres.sphere_data_for through the answers given sphere data, whose
# n = 7 a float 7.0 must not match; minimal_signature checks n before its
# Hopf answer, at n = 3 as at n = 7
I2 = [[1, 0], [0, 1]]
GENUS_AND_DIMENSION = {
    "j_matrix-g": (lambda x: j_matrix(x, -1), 1),
    "standard_generators-g": (
        lambda x: standard_generators(GroupFamily.SP, x), 1),
    "theta_index-g": (theta_index, 1),
    "is_member-g": (lambda x: is_member(GroupFamily.SP, IntMatrix(I2), x), 1),
    "surface_class-g": (
        lambda x: SurfaceClass(x, ((IntMatrix(I2), IntMatrix(I2)),)), 1),
    "splitting_decisions-g": (lambda x: splitting_decisions(x, 5), 1),
    "splitting_decisions-n": (lambda x: splitting_decisions(1, x), 5),
    "extension_descriptor-g": (lambda x: extension_descriptor(x, 5), 1),
    "haut_report-n": (lambda x: haut_report(1, x), 5),
    "full_report-g": (lambda x: full_report(MCGParams(x, 5)), 1),
    "full_report-n": (lambda x: full_report(MCGParams(1, x)), 5),
    "h1_Gg-g": (lambda x: h1_Gg(x, 3), 1),
    "h1_Gg-n": (lambda x: h1_Gg(1, x), 3),
    "h1_half_mcg-g": (lambda x: h1_half_mcg(x, 5), 1),
    "h1_torelli-g": (lambda x: h1_torelli(x, 5), 1),
    "h1_mcg-g": (lambda x: h1_mcg(x, 5), 1),
    "h1_mcg-n": (lambda x: h1_mcg(1, x), 5),
    "coinvariants_closed-g": (lambda x: coinvariants_closed(x, 5), 1),
    "coinvariants_closed-n": (lambda x: coinvariants_closed(1, x), 5),
    "theta_data-n": (theta_data, 5),
    "boundary_of_plumbing-n": (lambda x: boundary_of_plumbing(
        AlmostClosedInvariants(8, 0), x, theta_data(7)), 7),
    "omega_tau-n": (lambda x: omega_tau(x, theta_data(7)), 7),
    "h1_torelli-n-with-data": (lambda x: h1_torelli(1, x, theta_data(7)), 7),
    "s_pi_n_so-n": (s_pi_n_so, 7),
    "automorphism_family-n": (automorphism_family, 7),
    "automorphism_family-hopf-n": (automorphism_family, 3),
    "automorphism_family-even-n": (automorphism_family, 8),
    "minimal_signature-n": (minimal_signature, 7),
    "minimal_signature-hopf-n": (minimal_signature, 3),
    "minimal_signature-bP-n": (minimal_signature, 5),
}


def _clear_memos():
    j_matrix.cache_clear()
    coinvariants_closed.cache_clear()
    symplectic._verdict.cache_clear()
    symplectic._inverse.cache_clear()


@pytest.mark.parametrize("call, good", GENUS_AND_DIMENSION.values(),
                         ids=GENUS_AND_DIMENSION.keys())
def test_genus_and_dimension_take_integers_cold_and_warm(call, good):
    """1.0, True, 1.5 and "1" (or the same around another accepted value)
    are refused with one ValueError, with every memo empty and again once
    the accepted value has filled them: the memos of ``j_matrix`` and
    ``coinvariants_closed`` are typed, so 1.0 and True never meet the
    entries of 1."""
    for bad in (float(good), True, good + 0.5, str(good)):
        _clear_memos()
        message = re.escape(f"must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            call(bad)
        call(good)
        with pytest.raises(ValueError, match=message) as err:
            call(bad)
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("field, n, make", [
    ("sgn", 5, AlmostClosedInvariants),
    ("chi2", 7, lambda x: AlmostClosedInvariants(8, x)),
], ids=["sgn", "chi2"])
@pytest.mark.parametrize("bad", ["8", [8], 8.0, True],
                         ids=["string", "list", "float", "true"])
def test_almost_closed_invariants_take_integers_cold(field, n, make, bad):
    """sgn, and chi2 unless it is None, are integers by the ``json_int``
    rule: a bad one is refused with one ValueError by the constructor,
    with every memo empty, before ``boundary_of_plumbing`` can divide it."""
    _clear_memos()
    message = re.escape(f"{field} must be an integer, got {bad!r}")
    with pytest.raises(ValueError, match=message) as err:
        boundary_of_plumbing(make(bad), n)
    assert "\n" not in str(err.value)
    assert boundary_of_plumbing(make(8), n) is not None


def test_a_warm_memo_answers_no_bad_genus():
    """With ``j_matrix`` and ``coinvariants_closed`` memoised at genus 1,
    1.0 and True are refused and leave no entry behind."""
    _clear_memos()
    j_matrix(1, -1)
    coinvariants_closed(1, 5)
    for bad in (1.0, True):
        for call in (lambda: j_matrix(bad, -1),
                     lambda: coinvariants_closed(bad, 5)):
            with pytest.raises(ValueError, match="must be an integer"):
                call()
    assert j_matrix.cache_info().currsize == 1
    assert coinvariants_closed.cache_info().currsize == 1


def test_the_lower_bound_keeps_each_callers_refusal():
    """``json_int_at_least`` answers an integer at or above the bound, and
    below it raises the caller's message and exception type."""
    from hdmcg.inputs import json_int_at_least
    from hdmcg.mcg import UnsupportedCase

    assert json_int_at_least(3, 3, "n") == 3
    with pytest.raises(ValueError, match="^genus must be >= 1$"):
        json_int_at_least(0, 1, "genus")
    with pytest.raises(UnsupportedCase, match="^need g >= 1"):
        splitting_decisions(0, 5)
    with pytest.raises(ValueError, match="^n must be odd and >= 3$"):
        theta_data(1)
    with pytest.raises(ValueError, match="^enumeration bound"):
        theta_index(0)


def test_deeply_nested_file_is_one_line(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match=f"^class file {path}: ") as err:
        load_class_file(str(path))
    assert "\n" not in str(err.value)


KEYS = st.sampled_from(("g", "h", "pairs", "translations", "degree", "rank",
                        "torsion")) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(KEYS, kids, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_any_json_value_is_a_value_or_one_line(value):
    """Both loaders' parsers, on any JSON value, return or raise one
    ValueError line; no other exception gets through."""
    for parse in (class_from_json_dict, _coker_j_entries):
        try:
            parse(value)
        except ValueError as exc:
            assert "\n" not in str(exc)


SRC = Path(hdmcg.inputs.__file__).parent


class _Genus(IntEnum):
    TWO = 2


@pytest.mark.parametrize("value", [True, _Genus.TWO], ids=["bool", "IntEnum"])
def test_an_int_subclass_is_refused_alike_everywhere(value):
    """``json_int``, ``json_vector`` and ``IntMatrix`` read one rule, an
    ``int`` exactly, so a bool or an ``IntEnum`` member is refused by
    each, though it compares equal to an integer."""
    with pytest.raises(ValueError, match="must be an integer"):
        json_int(value, "the genus")
    with pytest.raises(ValueError, match="must hold integers"):
        json_vector([1, value], None, "a relator")
    for build in (lambda: IntMatrix([[value]]),
                  lambda: IntMatrix.from_columns([[1, value]]),
                  lambda: IntMatrix.diagonal([value])):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) \
            == f"a matrix entry must be an integer, got {value!r}"
    assert json_int(2, "the genus") == 2
    assert json_vector([1, 2], 2, "a relator") == (1, 2)


def _names(node, name: str) -> bool:
    return any(getattr(n, "id", None) == name for n in ast.walk(node))


def _spells_the_integer_rule(node) -> bool:
    """Whether node tests a value's type against int: a ``type(...)``
    compared with ``int``, a ``frozenset`` that holds ``int`` or an
    ``isinstance(..., bool)`` check."""
    if isinstance(node, ast.Compare):
        return (getattr(getattr(node.left, "func", None), "id", None) == "type"
                and any(_names(c, "int") for c in node.comparators))
    if not isinstance(node, ast.Call):
        return False
    called = getattr(node.func, "id", None)
    return (called == "frozenset" and _names(node, "int")
            or called == "isinstance" and len(node.args) == 2
            and _names(node.args[1], "bool"))


def test_the_json_integer_rule_is_spelled_only_in_inputs():
    """Only ``hdmcg/inputs.py`` may spell the JSON-integer rule."""
    spelled = [path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if _spells_the_integer_rule(node)]
    assert set(spelled) == {"inputs.py"}


def test_no_module_reads_the_process_environment():
    """Every setting reaches the package as an argument: no module reads
    ``os.environ`` or calls ``os.getenv``."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ("environ", "environb", "getenv", "getenvb"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


@pytest.mark.parametrize("path", [0, 1, True], ids=["0", "1", "true"])
def test_an_integer_path_is_refused_before_any_open(monkeypatch, path):
    """``open`` would take an integer path as a file descriptor, read it
    and close it; both loaders, and a report given such a coker-J path,
    refuse it with one ValueError and call ``open`` never."""
    def no_open(*args, **kwargs):
        raise AssertionError(f"open{args} was called")
    monkeypatch.setattr("builtins.open", no_open)
    for kind, call in (
            ("class file", load_class_file),
            ("coker-J table", load_coker_j_file),
            ("coker-J table",
             lambda x: full_report(MCGParams(2, 15, coker_j_path=x)))):
        message = re.escape(f"{kind} path must name a file, got {path!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(path)


@pytest.mark.parametrize("loader", [load_class_file, load_coker_j_file])
def test_loaders_are_one_read_json_call(loader):
    """A loader opens no file itself: its body, after the docstring, is one
    ``return read_json(...)``."""
    func = ast.parse(inspect.getsource(loader)).body[0]
    body = func.body[1:] if ast.get_docstring(func) else func.body
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    call = body[0].value
    assert isinstance(call, ast.Call) and call.func.id == "read_json"

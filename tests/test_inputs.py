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
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hdmcg.inputs
from hdmcg.abgroups import FinAbGroup
from hdmcg.cli import main
from hdmcg.cocycles import class_from_json_dict, load_class_file
from hdmcg.cohomology import Presentation
from hdmcg.spheres import _coker_j_entries, load_coker_j_file, theta_data

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


@pytest.mark.parametrize("call, bad, message", CALL_CASES.values(),
                         ids=CALL_CASES.keys())
def test_malformed_value_is_one_line_naming_its_key(call, bad, message):
    with pytest.raises(ValueError, match=message) as err:
        call(bad)
    assert "\n" not in str(err.value)


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


def test_the_json_integer_rule_is_spelled_only_in_inputs():
    """An ``isinstance(..., bool)`` check is the JSON-integer rule; only
    ``hdmcg/inputs.py`` may spell it."""
    spelled = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and len(node.args) == 2
                    and getattr(node.func, "id", None) == "isinstance"
                    and any(getattr(n, "id", None) == "bool"
                            for n in ast.walk(node.args[1]))):
                spelled.append(path.name)
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


@pytest.mark.parametrize("loader", [load_class_file, load_coker_j_file])
def test_loaders_are_one_read_json_call(loader):
    """A loader opens no file itself: its body, after the docstring, is one
    ``return read_json(...)``."""
    func = ast.parse(inspect.getsource(loader)).body[0]
    body = func.body[1:] if ast.get_docstring(func) else func.body
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    call = body[0].value
    assert isinstance(call, ast.Call) and call.func.id == "read_json"

"""The package API the benchmark calls still exists and still answers.

``perfbench/layers.py`` wraps functions and patches methods of ``hdmcg``
by name, so deleting or renaming one of them crashes a traced run.  That
file is read with ``ast`` here, neither imported nor edited.  The calls
the workloads make (``scaled_translations``, ``conjugated``, ...) are
checked by running one round of each in-process workload of
``perfbench/workloads.py``, imported without writing bytecode.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
TREE = ast.parse(LAYERS.read_text())


def _traced():
    for node in ast.walk(TREE):
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no TRACED")


def _module_attributes():
    """Every dotted name in the file rooted at a module it takes with
    ``from hdmcg import ...``, as (module, attribute path)."""
    modules = {alias.asname or alias.name for node in ast.walk(TREE)
               if isinstance(node, ast.ImportFrom) and node.module == "hdmcg"
               for alias in node.names}
    found = set()
    for node in ast.walk(TREE):
        if isinstance(node, ast.Attribute):
            root, _, path = ast.unparse(node).partition(".")
            if root in modules and path.replace(".", "").isidentifier():
                found.add((f"hdmcg.{root}", path))
    return found


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


# patched through a loop variable, which the walk above cannot follow
PATCHED = {("hdmcg.cocycles", "SurfaceClass.__post_init__"),
           ("hdmcg.cocycles", "AffineSurfaceClass.__post_init__")}


@pytest.mark.parametrize("module, function",
                         [(m, f) for m, f, _ in _traced()],
                         ids=[name for _, _, name in _traced()])
def test_every_traced_function_resolves(module, function):
    assert callable(_resolve(module, function))


def test_every_patched_name_resolves():
    names = _module_attributes() | PATCHED
    # the walk reads the names the tracer patches and counts
    assert {("hdmcg.cocycles", "AffineSurfaceClass"),
            ("hdmcg.linalg", "IntMatrix.__init__"),
            ("hdmcg.linalg", "IntMatrix.__matmul__"),
            ("hdmcg.mcg", "coinvariants_closed.cache_info")} <= names
    for module, path in sorted(names):
        _resolve(module, path)


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, imported from its directory; the
    benchmark's own modules leave ``sys.modules`` afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(LAYERS.parent))
    yield importlib.import_module("workloads")
    for name, mod in list(sys.modules.items()):
        if Path(getattr(mod, "__file__", None) or "/").parent == LAYERS.parent:
            del sys.modules[name]


@pytest.mark.parametrize("name", ["CocycleSweep", "InvariantQueries"])
def test_one_workload_round_passes_its_own_checks(workloads, name):
    workload = getattr(workloads, name)(str(LAYERS.parents[1]), 401)
    workload.setup()
    for op in workload.make_round():
        try:
            result, raised = op.fn(), False
        except Exception as exc:  # the op's check judges a raise
            result, raised = exc, True
        status, answer = op.check(result, raised)
        assert status == "ok", (op.kind, answer)

"""What each entry point imports.

``import hdmcg`` is lazy, and each CLI verb imports only the modules it
calls, so a cold process pays for nothing else.  The guards run the CLI in
a fresh interpreter under ``-X importtime`` and read which ``hdmcg.*``
modules it loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hdmcg

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _fresh(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


def imported(*argv, code: int = 0) -> set[str]:
    """Every module a fresh ``python -m hdmcg.cli`` imports; the process
    must exit with ``code``."""
    proc = _fresh("-X", "importtime", "-m", "hdmcg.cli", *argv)
    assert proc.returncode == code, proc.stderr
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:") and "|" in line}
    assert "hdmcg" in names  # the log was read
    return names


def loaded_modules(*argv) -> set[str]:
    """The ``hdmcg`` submodules a fresh ``python -m hdmcg.cli`` imports."""
    return {name.split(".", 1)[1] for name in imported(*argv)
            if name.startswith("hdmcg.")}


# only the checks read the paper's tables in ``reference``: no answer
# loads it, nor the modules the coinvariant comparison needs
TABLES = {"inputs", "linalg", "abgroups", "cases", "mcg"}
SPHERES = {"inputs", "linalg", "abgroups", "cases", "spheres"}


@pytest.mark.parametrize("argv, allowed", [
    (["theta", "--n", "7"], SPHERES),
    (["boundary", "--n", "7", "--sgn", "0", "--chi2", "8"], SPHERES),
    (["signature", "--file", "examples/class.json"],
     {"inputs", "linalg", "cases", "symplectic", "cocycles"}),
    (["chi2", "--file", "examples/class.json"],
     {"inputs", "linalg", "cases", "symplectic", "cocycles"}),
    (["abelianization", "--g", "2", "--n", "5", "--group", "gg"], TABLES),
    (["splits", "--g", "2", "--n", "5"], TABLES),
    (["abelianization", "--g", "1", "--n", "9", "--group", "halfmcg"],
     TABLES),
    (["abelianization", "--g", "2", "--n", "5", "--group", "mcg"],
     TABLES | SPHERES),
], ids=["theta", "boundary", "signature", "chi2", "gg", "splits", "halfmcg",
        "mcg"])
def test_verb_loads_only_its_modules(argv, allowed):
    assert loaded_modules(*argv) <= allowed


@pytest.mark.parametrize("argv, module", [
    (["signature", "--file", "examples/class.json"], "cocycles"),
    (["chi2", "--file", "examples/class.json"], "cocycles"),
    (["theta", "--n", "7"], "spheres"),
    (["boundary", "--n", "7", "--sgn", "0", "--chi2", "8"], "spheres"),
    (["abelianization", "--g", "2", "--n", "5", "--group", "mcg"], "spheres"),
    (["abelianization", "--g", "2", "--n", "5", "--group", "torelli"],
     "spheres"),
    (["table3"], "spheres"),
], ids=["signature", "chi2", "theta", "boundary", "mcg", "torelli", "table3"])
def test_pairing_verbs_load_no_rational_arithmetic(argv, module):
    """Neither the pairings nor the verbs that form bP (whose Bernoulli
    numbers come from integer tangent numbers) load a rational type."""
    names = imported(*argv)
    assert f"hdmcg.{module}" in names
    assert not names & {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("argv", [
    ["splits", "--g", "2", "--n", "5"],
    ["boundary", "--n", "7", "--sgn", "0", "--chi2", "8"],
    ["verify", "--suite", "spheres"],
], ids=["splits", "boundary", "verify-spheres"])
def test_text_answers_load_no_json(argv):
    """``json`` is loaded only to read a file or write a JSON answer."""
    assert "json" not in imported(*argv)
    assert "json" in imported(*argv, "--format", "json")


# the costly standard modules that no entry point may load: ``dataclasses``
# imports ``inspect``, which imports ``ast``, ``dis`` and ``tokenize``
HEAVY = {"dataclasses", "inspect", "ast", "dis"}
NO_PAIRS, TOP_LIST = '{"g": 2, "h": 1}', '[{"g": 2, "h": 1}]'
# the verbs of the benchmark's cold-CLI round, named as its operations, with
# their exit codes; a file argument names one of the malformed files above
COLD_VERBS = {
    **{f"abelianization-{group}": (["abelianization", "--g", "2", "--n", "5",
                                    "--group", group], 0)
       for group in ("mcg", "torelli", "halfmcg", "gg")},
    "splits": (["splits", "--g", "2", "--n", "5"], 0),
    "theta": (["theta", "--n", "7", "--format", "json"], 0),
    "table3": (["table3", "--format", "json"], 0),
    "boundary": (["boundary", "--n", "7", "--sgn", "0", "--chi2", "8"], 0),
    "boundary-invalid": (["boundary", "--n", "5", "--sgn", "4"], 1),
    "signature": (["signature", "--file", "examples/class.json"], 0),
    "chi2": (["chi2", "--file", "examples/class.json"], 0),
    **{f"verify-{suite}": (["verify", "--suite", suite], 0)
       for suite in ("tables", "appendix", "spheres")},
    "malformed-file-signature": (["signature", "--file", NO_PAIRS], 1),
    "malformed-file-chi2": (["chi2", "--file", TOP_LIST], 1),
    "malformed-genus": (["abelianization", "--g", "-3", "--n", "5",
                         "--group", "torelli"], 1),
}


@pytest.mark.parametrize("argv, code", COLD_VERBS.values(), ids=COLD_VERBS)
def test_cold_verbs_load_no_heavy_standard_module(argv, code, tmp_path):
    files = {NO_PAIRS: tmp_path / "no_pairs.json",
             TOP_LIST: tmp_path / "top_list.json"}
    for text, path in files.items():
        path.write_text(text)
    argv = [str(files.get(a, a)) for a in argv]
    assert not imported(*argv, code=code) & HEAVY


def test_package_modules_load_no_heavy_standard_module():
    proc = _fresh("-c", "import sys, hdmcg.mcg, hdmcg.spheres, "
                  "hdmcg.cocycles, hdmcg.cohomology, hdmcg.verify; "
                  "print(*sorted(set(sys.modules) & %r))" % HEAVY)
    assert (proc.returncode, proc.stdout.strip()) == (0, ""), proc.stderr


def test_verify_spheres_skips_the_cocycle_path():
    loaded = loaded_modules("verify", "--suite", "spheres")
    assert "verify" in loaded and "spheres" in loaded
    assert not loaded & {"cocycles", "mcg"}


ALL_NAMES = [
    "AlmostClosedInvariants", "FinAbGroup", "GModule", "GroupElement", "GroupFamily", "IntMatrix",
    "MCGParams", "MCGReport", "Presentation", "SNFResult", "SphereData",
    "SurfaceClass", "abelianization", "abgroups", "bernoulli",
    "boundary_of_plumbing", "bp_order", "chi2_of_class", "cocycles",
    "cohomology", "coinvariants", "coinvariants_closed", "coker_j",
    "direct_sum", "divided_eval", "element_order", "exact_signature",
    "extension_descriptor", "fox_derivative", "full_report", "h1", "h1_Gg", "h1_mcg", "h1_torelli", "haut_report",
    "inputs", "invariants", "is_member", "j_matrix", "kernel_basis",
    "linalg", "mcg", "meyer_tau", "minimal_signature", "omega_tau",
    "quotient_by", "reference", "reproduce_table3", "s_pi_n_so",
    "signature_of_class", "snf", "spheres", "splitting_decisions",
    "standard_generators", "subgroup_iso", "surface_two_cycle", "symplectic",
    "theta_data", "theta_index",
]
SUBMODULES = {"abgroups", "cocycles", "cohomology", "inputs", "linalg",
              "mcg", "reference", "spheres", "symplectic"}


def test_package_namespace_is_unchanged():
    assert sorted(hdmcg.__all__) == ALL_NAMES
    namespace = {}
    exec("from hdmcg import *", namespace)
    for name in ALL_NAMES:
        value = namespace[name]
        if name in SUBMODULES:
            assert value is sys.modules[f"hdmcg.{name}"]
        else:
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("hdmcg.")
            assert getattr(home, name) is value is getattr(hdmcg, name)


def test_import_hdmcg_loads_no_submodule():
    proc = _fresh("-c", "import sys, hdmcg; "
                  "print(*[m for m in sys.modules if m.startswith('hdmcg.')])")
    assert (proc.returncode, proc.stdout.strip()) == (0, ""), proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hdmcg.no_such_name
    assert not hasattr(hdmcg, "no_such_name")

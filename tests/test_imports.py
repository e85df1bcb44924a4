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


def imported(*argv) -> set[str]:
    """Every module a fresh ``python -m hdmcg.cli`` imports."""
    proc = _fresh("-X", "importtime", "-m", "hdmcg.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:") and "|" in line}
    assert "hdmcg" in names  # the log was read
    return names


def loaded_modules(*argv) -> set[str]:
    """The ``hdmcg`` submodules a fresh ``python -m hdmcg.cli`` imports."""
    return {name.split(".", 1)[1] for name in imported(*argv)
            if name.startswith("hdmcg.")}


TABLES = {"inputs", "linalg", "abgroups", "reference", "cases", "mcg"}


@pytest.mark.parametrize("argv, allowed", [
    (["theta", "--n", "7"],
     {"inputs", "linalg", "abgroups", "reference", "cases", "spheres"}),
    (["boundary", "--n", "7", "--sgn", "0", "--chi2", "8"],
     {"inputs", "linalg", "abgroups", "reference", "cases", "spheres"}),
    (["signature", "--file", "examples/class.json"],
     {"inputs", "linalg", "cases", "symplectic", "cocycles"}),
    (["chi2", "--file", "examples/class.json"],
     {"inputs", "linalg", "cases", "symplectic", "cocycles"}),
    (["abelianization", "--g", "2", "--n", "5", "--group", "gg"], TABLES),
    (["splits", "--g", "2", "--n", "5"], TABLES),
    (["abelianization", "--g", "1", "--n", "9", "--group", "halfmcg"],
     TABLES | {"cohomology", "symplectic"}),
], ids=["theta", "boundary", "signature", "chi2", "gg", "splits", "halfmcg"])
def test_verb_loads_only_its_modules(argv, allowed):
    assert loaded_modules(*argv) <= allowed


@pytest.mark.parametrize("verb", ["signature", "chi2"])
def test_pairing_verbs_load_no_rational_arithmetic(verb):
    names = imported(verb, "--file", "examples/class.json")
    assert "hdmcg.cocycles" in names
    assert not names & {"fractions", "decimal"}


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

import ast
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from hdmcg import cases, cocycles, mcg
from hdmcg.abgroups import FinAbGroup, element_order, quotient_by, subgroup_iso
from hdmcg.cases import DIVIDED_FUNCTIONALS, divided, theorem_b
from hdmcg.spheres import (AlmostClosedInvariants, UnsupportedDimension,
                           bernoulli, boundary_of_plumbing, bp_order, coker_j,
                           load_coker_j_file, minimal_signature, omega_tau,
                           theta_data)


def is_prime(p):
    return p >= 2 and all(p % q for q in range(2, p))


def test_bernoulli_values():
    assert bernoulli(1) == Fraction(1, 6)
    assert bernoulli(2) == Fraction(1, 30)
    assert bernoulli(5) == Fraction(5, 66)
    with pytest.raises(ValueError):
        bernoulli(0)


def test_von_staudt_clausen():
    for k in range(1, 13):
        expected = 1
        for p in range(2, 2 * k + 2):
            if is_prime(p) and (2 * k) % (p - 1) == 0:
                expected *= p
        assert bernoulli(k).denominator == expected


def test_bp_orders():
    assert bp_order(8) == 28
    assert bp_order(12) == 992
    assert bp_order(16) == 8128
    assert bp_order(20) == 261632
    with pytest.raises(ValueError):
        bp_order(10)
    with pytest.raises(ValueError):
        bp_order(4)


def test_coker_j_builtin_and_error():
    assert coker_j(7).is_trivial
    assert coker_j(15) == FinAbGroup.cyclic(2)
    with pytest.raises(UnsupportedDimension) as err:
        coker_j(21)
    assert "coker_j_table=" in str(err.value)
    assert "21" in str(err.value)


def test_coker_j_env_extension(tmp_path, monkeypatch):
    """Degree 23 is extended by the supplied table only: a file named in
    the former environment variable ``HDMCG_COKER_J_TABLE`` is not read."""
    path = tmp_path / "ckj.json"
    path.write_text(json.dumps([{"degree": 23, "rank": 0, "torsion": [2, 8]}]))
    monkeypatch.setenv("HDMCG_COKER_J_TABLE", str(path))
    with pytest.raises(UnsupportedDimension, match="degree 23"):
        coker_j(23)
    table = load_coker_j_file(str(path))
    assert coker_j(23, table) == FinAbGroup(0, (2, 8))


def test_theta_examples():
    d3 = theta_data(3)
    assert d3.theta == FinAbGroup.cyclic(28)
    assert d3.sigma_q == -d3.sigma_p
    assert subgroup_iso(d3.theta, list(d3.ba_generators)) == d3.theta
    d5 = theta_data(5)
    assert d5.theta == FinAbGroup.cyclic(992)
    assert d5.sigma_q.is_zero
    assert subgroup_iso(d5.theta, list(d5.ba_generators)) == d5.theta
    d9 = theta_data(9)
    assert d9.theta == FinAbGroup(0, (2, 261632))
    assert d9.sigma_q.is_zero
    d7 = theta_data(7)
    assert d7.theta == FinAbGroup(0, (2, 8128))
    assert element_order(d7.sigma_p) == 8128


def test_theta_rejects_bad_input():
    with pytest.raises(ValueError):
        theta_data(4)
    with pytest.raises(UnsupportedDimension):
        theta_data(11)
    with pytest.raises(UnsupportedDimension):
        theta_data(13)  # coker J in degree 27 is not built in


def test_theta_extended_table():
    # stub cokernel values: exercising the extension contract, not asserting
    # the true stable-stem answers
    stub = {27: FinAbGroup(0, (2,)), 31: FinAbGroup(0, (2, 2)),
            35: FinAbGroup(0, (8,))}
    for n in (13, 15, 17):
        data = theta_data(n, coker_j_table=stub)
        assert element_order(data.sigma_p) == bp_order(2 * n + 2)
        assert quotient_by(data.theta, list(data.ba_generators)) == data.omega


def _placements():
    """Every placement of Sigma_Q that ``theta_data`` accepts: the
    built-in degrees, and stub coker-J data (not the true stable stems)
    for n = 13, 15 and the explicit n = 7 placement."""
    for n in (3, 5, 7, 9):
        yield n, {}
    stub = {31: FinAbGroup.cyclic(2), 27: FinAbGroup.cyclic(2)}
    for order in (None, 2, 4, 8):
        yield 15, {"sigma_q_order": order, "coker_j_table": stub}
    for ambient in ((0, 1), (3, 1), (0, 0), (2, 0)):
        yield 15, {"sigma_q_ambient": ambient, "coker_j_table": stub}
    yield 13, {"sigma_q_ambient": (0, 0), "coker_j_table": stub}
    yield 7, {"sigma_q_ambient": (1, 0)}


@pytest.mark.parametrize("n, kwargs", list(_placements()))
def test_ba_is_generated_by_sigma_p_and_sigma_q(n, kwargs):
    """Witness for ``h1_mcg``: <Sigma_P, Sigma_Q> = bA wherever the
    assembly's Theta/bA check passes, so Theta/K_g for g >= 2 is omega."""
    data = theta_data(n, **kwargs)
    both = quotient_by(data.theta, [data.sigma_p, data.sigma_q])
    assert both == quotient_by(data.theta, list(data.ba_generators))
    assert both == data.omega


def test_sigma_q_default_and_override():
    stub = {31: FinAbGroup.cyclic(2)}
    d = theta_data(15, coker_j_table=stub)
    assert d.sigma_q_order_assumed
    assert element_order(d.sigma_q) == 2
    d4 = theta_data(15, sigma_q_order=4, coker_j_table=stub)
    assert not d4.sigma_q_order_assumed
    assert element_order(d4.sigma_q) == 4
    with pytest.raises(ValueError):
        theta_data(15, sigma_q_order=3, coker_j_table=stub)  # 3 does not divide bp


def test_sigma_q_ambient_override_and_n11():
    stub = {31: FinAbGroup.cyclic(2), 23: FinAbGroup.cyclic(2)}
    d = theta_data(15, sigma_q_ambient=(0, 1), coker_j_table=stub)
    assert not d.sigma_q_order_assumed
    assert d.omega.is_trivial  # Sigma_Q hits the coker-J part
    # explicit data unlocks the exceptional dimension
    d11 = theta_data(11, sigma_q_ambient=(0, 1), coker_j_table=stub)
    assert d11.theta.order() == bp_order(24) * 2
    assert element_order(d11.sigma_q) == 2
    assert d11.omega.is_trivial


@pytest.mark.parametrize("ambient", [(-1.7, 0.2), (True, 0), (1, 0.0),
                                     ("1", 0)])
def test_non_integer_sigma_q_ambient_is_refused(ambient):
    with pytest.raises(ValueError, match="sigma_q_ambient must hold integers"):
        theta_data(7, sigma_q_ambient=ambient)


@pytest.mark.parametrize("order", [4.5, 4.0, True, "4"])
def test_non_integer_sigma_q_order_is_refused(order):
    stub = {31: FinAbGroup.cyclic(2)}
    with pytest.raises(ValueError, match="sigma_q_order must be an integer"):
        theta_data(15, sigma_q_order=order, coker_j_table=stub)


def test_boundary_examples():
    d7 = theta_data(7)
    assert boundary_of_plumbing(AlmostClosedInvariants(8, 0), 7, d7) == d7.sigma_p
    assert boundary_of_plumbing(AlmostClosedInvariants(0, 8), 7, d7) == d7.sigma_q
    d3 = theta_data(3)
    assert boundary_of_plumbing(AlmostClosedInvariants(1, 1), 3, d3).is_zero
    d5 = theta_data(5)
    assert boundary_of_plumbing(AlmostClosedInvariants(8, None), 5, d5) == d5.sigma_p
    stub = {31: FinAbGroup.cyclic(2)}
    d15 = theta_data(15, coker_j_table=stub)
    assert boundary_of_plumbing(AlmostClosedInvariants(0, 2), 15, d15) == d15.sigma_q
    assert boundary_of_plumbing(AlmostClosedInvariants(8, 0), 15, d15) == d15.sigma_p


def test_boundary_divisibility_errors_are_named():
    with pytest.raises(ValueError, match="n = 1 mod 4"):
        boundary_of_plumbing(AlmostClosedInvariants(4, None), 5)
    with pytest.raises(ValueError, match="not divisible by 8"):
        boundary_of_plumbing(AlmostClosedInvariants(1, 2), 3)
    with pytest.raises(ValueError, match="chi2 is required"):
        boundary_of_plumbing(AlmostClosedInvariants(8, None), 7)
    with pytest.raises(ValueError, match="signature-only"):
        boundary_of_plumbing(AlmostClosedInvariants(8, 0), 5)
    stub = {31: FinAbGroup.cyclic(2)}
    d15 = theta_data(15, coker_j_table=stub)
    with pytest.raises(ValueError, match="not even"):
        boundary_of_plumbing(AlmostClosedInvariants(0, 1), 15, d15)


def test_boundary_additivity():
    d7 = theta_data(7)
    cases = [(8, 0), (0, 8), (16, 8), (-8, 16)]
    for s1, c1 in cases:
        for s2, c2 in cases:
            lhs = boundary_of_plumbing(
                AlmostClosedInvariants(s1 + s2, c1 + c2), 7, d7)
            rhs = boundary_of_plumbing(AlmostClosedInvariants(s1, c1), 7, d7) \
                + boundary_of_plumbing(AlmostClosedInvariants(s2, c2), 7, d7)
            assert lhs == rhs


def test_omega_tau():
    assert omega_tau(3).is_trivial
    assert omega_tau(5).is_trivial
    assert omega_tau(7) == FinAbGroup.cyclic(2)
    assert omega_tau(9) == FinAbGroup.cyclic(2)


def test_minimal_signature():
    assert minimal_signature(3) == 1
    assert minimal_signature(7) == 1
    assert minimal_signature(5) == 8 * 992
    assert minimal_signature(9) == 8 * 261632
    # order-2 default placement halves the cyclic quotient
    stub = {31: FinAbGroup.cyclic(2)}
    assert minimal_signature(15, theta_data(15, coker_j_table=stub)) \
        == 8 * bp_order(32) // 2


def test_answers_take_the_sphere_data_of_their_n():
    """``omega_tau`` and ``minimal_signature`` read the data they are
    given, and refuse data built for another n."""
    data = theta_data(15, sigma_q_order=4,
                      coker_j_table={31: FinAbGroup.cyclic(2)})
    assert minimal_signature(15, data) == 8 * bp_order(32) // 4
    assert omega_tau(15, data) == FinAbGroup.cyclic(2)
    for answer in (omega_tau, minimal_signature):
        with pytest.raises(ValueError, match="n = 9.*n = 5"):
            answer(5, theta_data(9))
    assert minimal_signature(7, theta_data(9)) == 1  # Hopf: no data read


def test_theta_order_consistency():
    for n in (3, 5, 7, 9):
        d = theta_data(n)
        sub = subgroup_iso(d.theta, list(d.ba_generators))
        assert d.theta.order() == sub.order() * d.omega.order()


def test_missing_coker_j_is_refused_before_the_bp_recurrence(monkeypatch):
    """n = 601 needs coker J in degree 1203, which no table holds; the
    refusal comes before bP_{1204} is computed."""
    import hdmcg.spheres

    def no_recurrence(dim):
        raise AssertionError(f"bp_order({dim}) ran before the lookup")

    monkeypatch.setattr(hdmcg.spheres, "bp_order", no_recurrence)
    with pytest.raises(UnsupportedDimension, match="1203"):
        theta_data(601)


def test_boundary_refuses_sphere_data_for_another_n():
    with pytest.raises(ValueError, match="n = 9.*n = 5"):
        boundary_of_plumbing(AlmostClosedInvariants(8), 5, theta_data(9))
    data = theta_data(5)
    assert boundary_of_plumbing(AlmostClosedInvariants(8), 5, data) \
        == data.sigma_p


def test_coker_j_refusal_names_the_keyword_that_works():
    with pytest.raises(UnsupportedDimension) as err:
        theta_data(13)
    message = str(err.value)
    for name in ("coker_j_table= to theta_data",
                 "abelianization, theta or boundary verb's --coker-j-table"):
        assert name in message
    assert "environment" not in message and "omega_tau" not in message
    assert "\n" not in message
    stub = {27: FinAbGroup.cyclic(2)}
    assert coker_j(27, coker_j_table=stub) == stub[27]
    data = theta_data(13, coker_j_table=stub)
    assert data.coker_j_group == stub[27]
    assert omega_tau(13, data) == stub[27]  # Sigma_Q = 0
    assert minimal_signature(13, data) == 8 * bp_order(28)


def test_coker_j_entry_contradicting_a_builtin_is_refused():
    """The supplied table follows the rule the CLI test checks for the
    flag: a built-in degree keeps its group."""
    with pytest.raises(ValueError) as err:
        coker_j(15, coker_j_table={15: FinAbGroup.cyclic(4)})
    assert str(err.value) == ("coker-J table entry for degree 15 is Z/4, "
                              "but the built-in group in that degree is Z/2")
    assert coker_j(15, {15: FinAbGroup.cyclic(2)}) == FinAbGroup.cyclic(2)


def test_theorem_b_cases():
    assert theorem_b(5) == ("ThmB-case1", "n = 1 mod 4",
                            (("sgn/8", "Sigma_P"),))
    assert theorem_b(7) == ("ThmB-case3", "n = 7",
                            (("(chi2-sgn)/8", "Sigma_Q"),))
    assert theorem_b(3)[:2] == ("ThmB-case3", "n = 3")
    assert theorem_b(15) == ("ThmB-case2", "n = 3 mod 4",
                             (("sgn/8", "Sigma_P"), ("chi2/2", "Sigma_Q")))
    assert theorem_b(11)[0] == "ThmB-case2"


def test_divided_classes_check_their_divisors():
    assert DIVIDED_FUNCTIONALS == ("sgn/8", "chi2/2", "(chi2-sgn)/8")
    assert divided("sgn/8", -16, None) == -2
    assert divided("chi2/2", None, 6) == 3
    assert divided("(chi2-sgn)/8", 1, 9) == 1
    for which, sgn, chi2, message in (
            ("sgn/8", 4, None, "signature 4 not divisible by 8"),
            ("chi2/2", None, 3, "chi2 = 3 not even"),
            ("(chi2-sgn)/8", 0, 3, "chi2 - sgn = 3 not divisible by 8")):
        with pytest.raises(ValueError) as err:
            divided(which, sgn, chi2)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="unknown functional 'sgn/4'"):
        divided("sgn/4", 8, None)


def _with_function(node, name=None):
    """Every node below ``node``, with the name of its enclosing function."""
    for child in ast.iter_child_nodes(node):
        yield name, child
        yield from _with_function(
            child, child.name if isinstance(child, ast.FunctionDef) else name)


def test_theorem_b_is_written_once():
    """The case ids live in ``cases`` alone; the modules that read the
    split reduce only the dimension n (and the 2-cycle length) by 2 or 8,
    never an invariant; the readers branch on no residue; and bA is the
    generators of the rows.  Outside ``cases`` (and the independent
    statements of ``verify`` and ``reference``) no module compares with a
    literal holding 3 and 7, reduces mod 4 (bar the multiple-of-4 check of
    ``bp_order``'s dimension), or reduces mod 8 outside ``s_pi_n_so``; and
    ``verify`` reduces nothing mod 8."""
    src = Path(cases.__file__).parent
    assert not any(isinstance(node, ast.ImportFrom) and node.level
                   for node in ast.walk(ast.parse(
                       (src / "cases.py").read_text())))  # a leaf module
    for path in src.glob("*.py"):
        if path.name != "cases.py":
            assert "ThmB-case" not in path.read_text(), path.name
        if path.name in ("cases.py", "reference.py"):
            continue
        for fn, node in _with_function(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", None))
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.right, ast.Constant)):
                left = ast.unparse(node.left)
                if node.right.value == 8:
                    assert path.name != "verify.py", where
                    assert (path.name, fn, left) == ("mcg.py", "s_pi_n_so",
                                                     "n"), where
                if node.right.value == 4 and path.name != "verify.py":
                    assert (path.name, fn, left) == ("spheres.py", "bp_order",
                                                     "dim"), where
            if isinstance(node, ast.Compare) and path.name != "verify.py":
                for literal in node.comparators:
                    if isinstance(literal, (ast.Tuple, ast.Set)):
                        values = {e.value for e in literal.elts
                                  if isinstance(e, ast.Constant)}
                        assert not {3, 7} <= values, where
    for name in ("cocycles.py", "mcg.py", "cli.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.Mod, ast.FloorDiv))
                    and isinstance(node.right, ast.Constant)
                    and node.right.value in (2, 8)):
                assert ast.unparse(node.left) in ("n", "len(el)"), \
                    (name, node.lineno)
    for reader in (cocycles.divided_eval, mcg.extension_descriptor):
        body = inspect.getsource(reader)
        assert "% 4" not in body and "(3, 7)" not in body, reader.__name__
    for n in (3, 5, 7, 9):
        data = theta_data(n)
        named = {"Sigma_P": data.sigma_p, "Sigma_Q": data.sigma_q}
        assert data.ba_generators == tuple(named[gen]
                                           for _, gen in theorem_b(n)[2])

import ast
import inspect
import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from hdmcg import cases, cocycles, mcg
from hdmcg.abgroups import FinAbGroup, element_order, quotient_by, subgroup_iso
from hdmcg.cases import DIVIDED_FUNCTIONALS, divided, theorem_b
from hdmcg.spheres import (AlmostClosedInvariants, UnsupportedDimension,
                           bernoulli, boundary_of_plumbing, bp_order, coker_j,
                           load_coker_j_file, load_sphere_data,
                           minimal_signature, omega_tau, theta_data)


def is_prime(p):
    return p >= 2 and all(p % q for q in range(2, p))


def test_bernoulli_values():
    assert bernoulli(1) == Fraction(1, 6)
    assert bernoulli(2) == Fraction(1, 30)
    assert bernoulli(5) == Fraction(5, 66)
    with pytest.raises(ValueError):
        bernoulli(0)
    for bad in (1.5, 2.0, True):  # refused, never a TypeError or B_2
        with pytest.raises(ValueError, match="index must be an integer"):
            bernoulli(bad)


def classical_bernoulli(count):
    """B_0 .. B_{count-1} (B_1 = -1/2) by the binomial recurrence over
    Fraction: sum_{j <= m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_bernoulli_matches_the_binomial_recurrence():
    """Every k whose degree 4k-1 is within ``MAX_SPHERE_DEGREE``."""
    from hdmcg.spheres import MAX_SPHERE_DEGREE

    top = (MAX_SPHERE_DEGREE + 1) // 4
    assert top == 64
    b = classical_bernoulli(2 * top + 1)
    assert [bernoulli(k) for k in range(1, top + 1)] \
        == [abs(b[2 * k]) for k in range(1, top + 1)]


def test_von_staudt_clausen():
    for k in range(1, 65):
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


@pytest.mark.parametrize("call, arg", [(bp_order, 260), (bernoulli, 65)],
                         ids=["bp_order", "bernoulli"])
def test_bernoulli_recurrence_is_bounded_at_every_entry(call, arg):
    """bernoulli refuses a degree 4k-1 past ``MAX_SPHERE_DEGREE`` = 255, and
    so bp_order does, in one line and before the tangent-number cache
    grows; degree 255 itself still answers."""
    from hdmcg import spheres

    assert bp_order(256) % 2 ** 126 == 0  # 2^(2k-2) divides it, k = 64
    size = len(spheres._tangent_cache)
    with pytest.raises(UnsupportedDimension) as exc:
        call(arg)
    assert str(exc.value) == ("sphere degree 4k-1 = 259 is past the limit 255 "
                              "(k <= 64); coker J is known only to stem 90")
    assert len(spheres._tangent_cache) == size


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


@pytest.mark.parametrize("orders", [(2, 3), (3, 2), (2, 2)],
                         ids=["builtin-first", "builtin-last", "same-group"])
def test_a_repeated_coker_j_degree_is_refused(tmp_path, orders):
    """Two entries for one degree are refused, whichever comes first and
    even when they agree, so the answer never hangs on entry order."""
    path = tmp_path / "ckj.json"
    path.write_text(json.dumps([{"degree": 15, "torsion": [d]}
                                for d in orders]))
    with pytest.raises(ValueError) as err:
        load_coker_j_file(str(path))
    assert str(err.value) == (f"coker-J table {path}: degree 15 has more "
                              f"than one entry")
    with pytest.raises(ValueError, match="degree 15 has more than one"):
        load_sphere_data(7, coker_j_path=str(path))


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


def test_sphere_degree_past_the_limit_is_refused_before_bp_order(
        monkeypatch, tmp_path, capsys):
    """Degree 2n+1 = 259 is the first one past ``MAX_SPHERE_DEGREE`` = 255;
    it is refused in one line, exit 1, before the Bernoulli recurrence
    starts, while the bound itself reaches ``bp_order``."""
    from hdmcg import spheres
    from hdmcg.cli import main

    def reached(dim):
        raise AssertionError(f"bp_order({dim}) reached")

    monkeypatch.setattr(spheres, "bp_order", reached)
    bound = spheres.MAX_SPHERE_DEGREE
    n = (bound - 1) // 2 + 2
    stub = {2 * n - 3: FinAbGroup.trivial(), 2 * n + 1: FinAbGroup.trivial()}
    line = (f"sphere degree 2n+1 = {2 * n + 1} is past the limit {bound} "
            f"(n <= {bound // 2}); coker J is known only to stem 90")
    with pytest.raises(UnsupportedDimension) as exc:
        theta_data(n, coker_j_table=stub)
    assert str(exc.value) == line
    with pytest.raises(AssertionError, match=f"bp_order\\({2 * n - 2}\\)"):
        theta_data(n - 2, coker_j_table=stub)
    path = tmp_path / "ckj.json"
    path.write_text(json.dumps([{"degree": 2 * n + 1}]))
    assert main(["theta", "--n", str(n), "--coker-j-table", str(path)]) == 1
    assert capsys.readouterr() == ("", line + "\n")


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


@pytest.mark.parametrize("n, kwargs", [(n, {}) for n in (3, 5, 7, 9)] + [
    (15, {"sigma_q_order": order,
          "coker_j_table": {31: FinAbGroup.cyclic(2)}})
    for order in (2, 4, 8)])
def test_theta_mod_sigma_q_has_the_order_lagrange_gives(n, kwargs):
    """Witness for the sphere data's Theta/<Sigma_Q>: by Lagrange its
    order times ord(Sigma_Q), which is read off the coordinates with no
    Smith form, is |Theta|; and its projection kills Sigma_Q."""
    data = theta_data(n, **kwargs)
    quotient, proj = data.theta_mod_sigma_q
    assert quotient.order() * element_order(data.sigma_q) \
        == data.theta.order()
    assert quotient.element(proj.mult_vec(list(data.sigma_q.coords))).is_zero
    assert "theta_mod_sigma_q" not in data.to_json_dict()


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


@pytest.mark.parametrize("n, ambient, table, ba", [
    (7, (2, 0), {}, "bA = <Sigma_Q> (ThmB-case3, n = 7)"),
    (13, (0, 1), {27: FinAbGroup.cyclic(2), 31: FinAbGroup.cyclic(2)},
     "bA = <Sigma_P> (ThmB-case1, n = 1 mod 4)"),
], ids=["n7-twice-sigma-p", "n13-coker-j"])
def test_a_placed_sigma_q_that_breaks_theta_mod_ba_is_refused(
        n, ambient, table, ba):
    """A placed Sigma_Q with Theta/bA != coker J/<Sigma_Q> is a bad input:
    one ValueError naming ``sigma_q_ambient`` and the Theorem B case."""
    with pytest.raises(ValueError) as exc:
        theta_data(n, sigma_q_ambient=ambient, coker_j_table=table)
    assert type(exc.value) is ValueError
    message = str(exc.value)
    assert message.startswith(f"sigma_q_ambient {list(ambient)} makes "
                              f"Theta/bA differ from coker J/<Sigma_Q>")
    assert message.endswith(ba) and "\n" not in message


# two accepted placements with their JSON and H_1 answers, pinned as they
# were when every build formed Theta/bA
PLACED = [
    (7, (1, 0), {}, {
        "n": 7, "theta": {"rank": 0, "torsion": [2, 8128]},
        "sigma_P": [0, 1], "sigma_Q": [0, 1], "bA_generators": [[0, 1]],
        "coker_J": {"rank": 0, "torsion": [2]},
        "omega": {"rank": 0, "torsion": [2]},
        "sigma_q_order_assumed": False},
     ("Z/2 + Z/12", "Z^2 + Z/2", "(Z/2)^2", "Z^4 + Z/2")),
    (15, (0, 1), {31: FinAbGroup.cyclic(2)}, {
        "n": 15, "theta": {"rank": 0, "torsion": [2, 1941802827776]},
        "sigma_P": [0, 1], "sigma_Q": [1, 0],
        "bA_generators": [[0, 1], [1, 0]],
        "coker_J": {"rank": 0, "torsion": [2]},
        "omega": {"rank": 0, "torsion": []},
        "sigma_q_order_assumed": False},
     ("Z + Z/2 + Z/4 + Z/1941802827776", "Z^2 + Z/1941802827776",
      "Z/2 + Z/4", "Z^4 + Z/1941802827776")),
]


@pytest.mark.parametrize("n, ambient, table, blob, h1s", PLACED,
                         ids=["n7", "n15"])
def test_a_placed_sigma_q_that_keeps_theta_mod_ba_is_accepted(
        n, ambient, table, blob, h1s):
    data = theta_data(n, sigma_q_ambient=ambient, coker_j_table=table)
    assert data.to_json_dict() == blob
    got = tuple(h1(g, n, data).describe()
                for g in (1, 2) for h1 in (mcg.h1_mcg, mcg.h1_torelli))
    assert got == h1s


def test_theta_data_forms_theta_mod_ba_only_for_a_placed_sigma_q(
        monkeypatch):
    """A built-in placement forms no quotient of Theta and no element
    order: both identities hold by construction there, and ``verify``
    checks them.  A placed Sigma_Q forms Theta/bA once."""
    from hdmcg import spheres

    calls = []

    def counted(name):
        real = getattr(spheres, name)

        def wrapper(*args):
            calls.append((name, args[0]))
            return real(*args)
        return wrapper
    for name in ("quotient_by", "element_order"):
        monkeypatch.setattr(spheres, name, counted(name))
    stub = {31: FinAbGroup.cyclic(2)}
    for n, kwargs in [(3, {}), (5, {}), (7, {}), (9, {}),
                      (15, {"coker_j_table": stub}),
                      (15, {"sigma_q_order": 8, "coker_j_table": stub})]:
        theta_data(n, **kwargs)
        assert calls == [], n
    data = theta_data(15, sigma_q_ambient=(1, 0), coker_j_table=stub)
    assert calls == [("quotient_by", data.theta)]


def _halved_sigma_p(monkeypatch):
    """The projection onto Theta doubles the bP coordinate, so Sigma_P has
    order |bP|/2 and spans half of bP."""
    from hdmcg import spheres

    real = spheres.cokernel_presentation

    def doubled(relations):
        group, proj = real(relations)
        scale = [2] + [1] * (proj.cols - 1)
        return group, proj @ spheres.IntMatrix.diagonal(scale)
    monkeypatch.setattr(spheres, "cokernel_presentation", doubled)


def _sigma_q_twice_sigma_p(monkeypatch):
    """Sigma_Q at 2 Sigma_P, and bA = <Sigma_Q>, at n = 7."""
    from hdmcg import verify
    from hdmcg.abgroups import quotient_with_projection
    from hdmcg.spheres import SphereData

    real = verify.theta_data

    def placed(n, **kwargs):
        data = real(n, **kwargs)
        if n != 7:
            return data
        twice = 2 * data.sigma_p
        return SphereData._trusted(**{
            **vars(data), "sigma_q": twice, "ba_generators": (twice,),
            "theta_mod_sigma_q": quotient_with_projection(data.theta,
                                                          [twice])})
    monkeypatch.setattr(verify, "theta_data", placed)


def _ba_without_sigma_p(monkeypatch):
    """bA read off the Theorem B rows of n = 3, 7 (Sigma_Q alone) at n = 9,
    where Sigma_Q is 0: only the Theta/bA check sees it."""
    monkeypatch.setattr(cases, "theorem_b", lambda n: theorem_b(
        7 if n == 9 else n))


@pytest.mark.parametrize("mutate, details", [
    (_halved_sigma_p, ["Sigma_P order wrong at n=7",
                       "Theta/bA is not coker J/<Sigma_Q> at n=7"]),
    (_sigma_q_twice_sigma_p, ["Theta/bA is not coker J/<Sigma_Q> at n=7",
                              "Sigma_Q placement wrong at n=7"]),
    (_ba_without_sigma_p, ["Theta/bA is not coker J/<Sigma_Q> at n=9"]),
], ids=["halved-sigma-p", "sigma-q-twice-sigma-p", "ba-without-sigma-p"])
def test_verify_catches_a_mutated_assembly(monkeypatch, capsys, mutate,
                                           details):
    """The checks ``theta_data`` no longer runs on each answer still run in
    ``verify --suite spheres``: each mutated assembly fails its
    theta-assembly check, with the listed details, and the verb exits 1."""
    from hdmcg.cli import main
    from hdmcg.verify import suite_spheres

    mutate(monkeypatch)
    (ok, detail), = [(ok, detail) for name, ok, detail in suite_spheres()
                     if name == "theta-assembly"]
    assert not ok
    for item in details:
        assert item in detail.split("; "), detail
    assert main(["verify", "--suite", "spheres"]) == 1
    assert "[FAIL] theta-assembly" in capsys.readouterr().out
    monkeypatch.undo()
    assert main(["verify", "--suite", "spheres"]) == 0


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


def test_sphere_data_has_no_public_constructor():
    """``theta_data`` is the one builder of sphere data.  Data with Theta
    = Z and a Sigma_P of infinite order, on which ``minimal_signature``
    multiplied 8 by None, can no longer be formed; nor can a copy of
    valid data, or a record with no fields."""
    from hdmcg.abgroups import GroupElement as E
    from hdmcg.spheres import SphereData

    z = FinAbGroup(1, ())
    for call in (lambda: SphereData(5, z, E(z, (1,)), E(z, (0,)),
                                    (E(z, (1,)),), z, z, False),
                 lambda: SphereData(**vars(theta_data(5))),
                 SphereData):
        with pytest.raises(TypeError, match="^SphereData has no public "
                                            "constructor$"):
            call()
    assert type(theta_data(5)) is SphereData


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


def test_n11_refusal_names_both_keywords_it_needs():
    """The first refusal at n = 11 names both pieces of data: following it
    with only ``sigma_q_ambient`` would be refused again for degree 23."""
    with pytest.raises(UnsupportedDimension) as err:
        theta_data(11)
    message = str(err.value)
    assert "exceptional" in message and "\n" not in message
    assert "coker_j_table" in message and "sigma_q_ambient" in message
    with pytest.raises(UnsupportedDimension, match="degree 23"):
        theta_data(11, sigma_q_ambient=(0,))
    stub = {23: FinAbGroup.cyclic(2)}
    assert theta_data(11, sigma_q_ambient=(0, 1), coker_j_table=stub).omega \
        .is_trivial


def test_load_sphere_data_is_one_theta_data_call(tmp_path):
    path = tmp_path / "ck31.json"
    path.write_text(json.dumps([{"degree": 31, "torsion": [2]}]))
    assert load_sphere_data(15, 4, str(path)) == theta_data(
        15, sigma_q_order=4, coker_j_table={31: FinAbGroup.cyclic(2)})
    assert load_sphere_data(7) == theta_data(7)
    with pytest.raises(OSError):
        load_sphere_data(7, coker_j_path=str(tmp_path / "missing.json"))


def test_only_spheres_reads_a_coker_j_file():
    """The route from a coker-J path to sphere data is ``load_sphere_data``:
    no other module calls ``load_coker_j_file``."""
    callers = []
    for path in sorted(Path(cases.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and "load_coker_j_file"
                    in (getattr(node.func, "id", None),
                        getattr(node.func, "attr", None))):
                callers.append(path.name)
    assert callers == ["spheres.py"]

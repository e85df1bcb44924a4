import json
import time

import pytest

from hdmcg import linalg, spheres
from hdmcg.abgroups import FinAbGroup
from hdmcg.mcg import (Decision, MCGParams, UnsupportedCase,
                       coinvariants_closed, extension_descriptor, full_report,
                       h1_Gg, h1_half_mcg, h1_mcg, h1_torelli, haut_report,
                       reproduce_table3, s_pi_n_so, splitting_decisions)


def test_s_pi_n_so_table():
    assert s_pi_n_so(3) == FinAbGroup.free(1)
    assert s_pi_n_so(5).is_trivial
    assert s_pi_n_so(6).is_trivial  # the exceptional vanishing
    assert s_pi_n_so(14) == FinAbGroup.cyclic(2)  # 14 = 6 mod 8, no exception
    assert s_pi_n_so(8) == FinAbGroup(0, (2, 2))
    assert s_pi_n_so(9) == FinAbGroup.cyclic(2)
    with pytest.raises(ValueError):
        s_pi_n_so(2)


def test_h1_Gg_table():
    assert h1_Gg(1, 3) == FinAbGroup.cyclic(12)
    assert h1_Gg(2, 5) == FinAbGroup(0, (2, 4))
    assert h1_Gg(4, 7).is_trivial
    assert h1_Gg(1, 9) == FinAbGroup(1, (4,))
    assert h1_Gg(3, 13) == FinAbGroup.cyclic(4)
    with pytest.raises(UnsupportedCase, match="O_"):
        h1_Gg(2, 8)


def test_coinvariants_closed_examples():
    assert coinvariants_closed(2, 9).is_trivial
    assert coinvariants_closed(1, 9) == FinAbGroup.cyclic(2)
    assert coinvariants_closed(1, 8) == FinAbGroup(0, (2, 2))
    assert coinvariants_closed(1, 3).is_trivial
    assert coinvariants_closed(1, 13).is_trivial
    assert coinvariants_closed(1, 11) == FinAbGroup.cyclic(2)
    assert coinvariants_closed(1, 14) == FinAbGroup.cyclic(2)


def test_h1_torelli_examples():
    assert h1_torelli(0, 7) == FinAbGroup(0, (2, 8128))
    assert h1_torelli(2, 3) == FinAbGroup.free(4)
    assert h1_torelli(1, 9) == FinAbGroup(0, (2, 2, 2, 261632))
    assert h1_torelli(3, 5) == FinAbGroup.cyclic(992)


def test_h1_mcg_examples():
    assert h1_mcg(1, 5) == FinAbGroup(1, (4, 992))
    assert h1_mcg(2, 7) == FinAbGroup(0, (2, 2))
    assert h1_mcg(3, 9) == FinAbGroup(0, (2, 4))
    assert h1_mcg(1, 3) == FinAbGroup.cyclic(12)
    assert h1_mcg(0, 3) == FinAbGroup.cyclic(28)


def test_h1_half_mcg():
    assert h1_half_mcg(1, 9) == FinAbGroup(1, (2, 4))
    assert h1_half_mcg(2, 9) == FinAbGroup(0, (2, 4))
    assert h1_half_mcg(1, 3) == FinAbGroup.cyclic(12)


def test_table3_reproduction():
    rendered, ok, mismatches = reproduce_table3()
    assert ok, mismatches
    assert "n=9" in rendered


def test_high_genus_rows_stable():
    for n in (3, 5, 7, 9):
        assert h1_mcg(3, n) == h1_mcg(4, n)
        assert h1_mcg(4, n) == h1_mcg(5, n)


def test_torelli_complement_independent_of_genus():
    # stripping the 2g tensor copies of SpiSO(n) must leave a g-independent
    # summand (the sphere-group quotient)
    for n in (3, 5, 7, 9):
        module = s_pi_n_so(n)
        complements = []
        for g in (1, 2, 3):
            got = h1_torelli(g, n)
            assert got.rank == module.rank * 2 * g
            torsion = list(got.torsion)
            for d in module.torsion * (2 * g):
                torsion.remove(d)
            complements.append(tuple(torsion))
        assert complements[0] == complements[1] == complements[2]


def test_extension_descriptor():
    d = extension_descriptor(1, 5)
    assert d.case == "ThmB-case1"
    assert d.classes == ("sgn/8 . Sigma_P",)
    assert d.d2_image_name == "<Sigma_Q>"
    assert d.d2_image is not None and d.d2_image.is_trivial
    d = extension_descriptor(2, 7)
    assert d.case == "ThmB-case3"
    assert d.d2_image == FinAbGroup.cyclic(8128)
    assert d.d2_image_name == "bA"
    d = extension_descriptor(1, 9)
    assert d.case == "ThmB-case1"
    assert d.d2_image is not None and d.d2_image.is_trivial
    d = extension_descriptor(2, 11)
    assert d.case == "ThmB-case2"
    assert d.d2_image is None  # sphere data is not built in at n = 11


def test_splitting_decisions():
    d = splitting_decisions(1, 5)
    assert all(d[k].value == "yes" for k in ("ext4", "ext3", "kreck1", "kreck2"))
    d = splitting_decisions(2, 7)
    assert all(d[k].value == "no" for k in ("ext4", "ext3", "kreck1", "kreck2"))
    d = splitting_decisions(1, 7)
    assert d["kreck1"].value == "unknown"
    assert d["kreck1"].citation == "CorC-i-Rem"
    assert d["ext4"].value == "yes"
    d = splitting_decisions(1, 3)
    assert d["kreck1"].value == "no"
    for g in (1, 2, 3):
        for n in (3, 5, 7, 9, 11, 13):
            for dec in splitting_decisions(g, n).values():
                assert isinstance(dec, Decision)
                assert dec.citation


def test_haut_report():
    r = haut_report(1, 3)
    assert r.splits.value == "yes"
    assert r.h1_concrete == FinAbGroup.cyclic(12)
    assert r.h1_symbolic_extra is None
    assert r.spi_2n_sn == FinAbGroup.cyclic(12)
    assert r.j_image_order == 12
    r = haut_report(2, 7)
    assert r.splits.value == "no"
    assert r.h1_concrete == FinAbGroup.cyclic(2)
    assert r.j_image_order == 120
    r = haut_report(1, 9)
    assert r.splits.value == "yes"
    assert r.h1_concrete == FinAbGroup(1, (4,))
    assert r.h1_symbolic_extra == "Spi18S9/2"
    r = haut_report(1, 9, spi_2n_sn=FinAbGroup(0, (2, 4)))
    assert r.h1_symbolic_extra is None
    assert r.h1_concrete == FinAbGroup(1, (2, 2, 4))


def test_full_report_and_provenance():
    rep = full_report(MCGParams(2, 7))
    assert rep.h1_mcg == FinAbGroup(0, (2, 2))
    assert rep.kg_description == "<Sigma_P, Sigma_Q>"
    assert rep.provenance_flags == ()
    blob = rep.to_json_dict()
    assert blob["h1_torelli"] == {"rank": 4, "torsion": [2]}
    with pytest.raises(UnsupportedCase):
        full_report(MCGParams(0, 7))


def test_full_report_flags_defaulted_sigma_q(tmp_path):
    import json
    path = tmp_path / "ckj.json"
    path.write_text(json.dumps([{"degree": 31, "rank": 0, "torsion": [2]}]))
    rep = full_report(MCGParams(1, 15, coker_j_path=str(path)))
    assert "sigma_q_order_defaulted_to_2" in rep.provenance_flags
    rep2 = full_report(MCGParams(1, 15, sigma_q_order=2,
                                 coker_j_path=str(path)))
    assert rep2.provenance_flags == ()


def test_negative_genus_is_refused():
    for h1 in (h1_mcg, h1_torelli):
        with pytest.raises(ValueError, match="genus must be >= 0"):
            h1(-3, 5)
    with pytest.raises(ValueError, match="genus must be >= 1"):
        h1_half_mcg(-3, 5)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(spheres, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(spheres, name, wrapper)
    return calls


def _coker_j_file(tmp_path):
    path = tmp_path / "ckj.json"
    path.write_text(json.dumps([{"degree": 31, "rank": 0, "torsion": [2]}]))
    return str(path)


def test_one_sphere_build_per_answer(monkeypatch, tmp_path):
    builds = _counting(monkeypatch, "theta_data")
    reads = _counting(monkeypatch, "load_coker_j_file")
    full_report(MCGParams(2, 15, coker_j_path=_coker_j_file(tmp_path)))
    assert (len(builds), len(reads)) == (1, 1)
    builds.clear()
    full_report(MCGParams(3, 9, sigma_q_order=4))
    assert len(builds) == 1
    builds.clear()
    assert reproduce_table3()[1]
    assert sorted(args[0] for args in builds) == [3, 5, 7, 9]


def test_full_report_builds_fewer_groups_and_smith_forms(monkeypatch):
    """Table 1 is a constant, Theta/K_g for g >= 2 is the sphere data's
    omega, and Theta is presented straight from its relations.  Over the
    64-report mix (g = 1..8, n = 3, 5, 7, 9, sigma_q_order None and 4),
    with warm caches, a report builds fewer than 14 groups and runs fewer
    than 7 SNFs; re-deriving those values cost 21 and 7.5."""
    mix = [MCGParams(g, n, sigma_q_order=order) for g in range(1, 9)
           for n in (3, 5, 7, 9) for order in (None, 4)]
    for params in mix:
        full_report(params)  # warms the coinvariants cache
    groups, smith_forms = [], []
    post_init, snf = FinAbGroup.__post_init__, linalg.snf

    def counted_post_init(group):
        groups.append(group)
        post_init(group)

    def counted_snf(m):
        smith_forms.append(m)
        return snf(m)

    monkeypatch.setattr(FinAbGroup, "__post_init__", counted_post_init)
    monkeypatch.setattr(linalg, "snf", counted_snf)
    for params in mix:
        full_report(params)
    assert len(groups) < 14 * len(mix)
    assert len(smith_forms) < 7 * len(mix)


def _report_parts(params):
    rep = full_report(params)
    return rep.h1_mcg, rep.h1_torelli, rep.extension


def _public_parts(params):
    g, n, data = params.g, params.n, params.sphere_data()
    return (h1_mcg(g, n, data), h1_torelli(g, n, data),
            extension_descriptor(g, n, data))


def test_full_report_agrees_with_the_public_answers(tmp_path):
    for g in range(1, 9):
        for n in (3, 5, 7, 9):
            for order in (None, 2, 4, 8):
                params = MCGParams(g, n, sigma_q_order=order)
                assert _report_parts(params) == _public_parts(params)
    path = _coker_j_file(tmp_path)
    seen = set()
    for g in (1, 2, 3):
        for order in (None, 2, 4, 8):
            params = MCGParams(g, 15, sigma_q_order=order, coker_j_path=path)
            parts = _report_parts(params)
            assert parts == _public_parts(params)
            seen.add(parts)
    assert len(seen) == 3 * 3  # orders None and 2 agree; 4 and 8 differ


def test_torelli_at_huge_genus_is_linear_in_the_factors():
    start = time.perf_counter()
    got = h1_torelli(10**5, 9)
    elapsed = time.perf_counter() - start
    assert got == FinAbGroup(0, (2,) * (2 * 10**5 + 1) + (261632,))
    assert elapsed < 1.0


@pytest.mark.parametrize("answer", [h1_mcg, h1_torelli, extension_descriptor])
def test_sphere_data_for_another_n_is_refused(answer):
    data = MCGParams(1, 7).sphere_data()
    with pytest.raises(ValueError, match="n = 7.*n = 5"):
        answer(3, 5, data)
    assert answer(3, 7, data) == answer(3, 7)

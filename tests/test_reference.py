"""Every paper table in ``hdmcg.reference`` is read by a check and by no
answer: a wrong table entry fails its check and changes no answer."""

import pytest

from hdmcg import reference
from hdmcg.abgroups import FinAbGroup
from hdmcg.mcg import MCGParams, full_report, h1_Gg, s_pi_n_so
from hdmcg.spheres import theta_data
from hdmcg.verify import run_suites


def _answers():
    return ([full_report(MCGParams(g, n)).to_json_dict()
             for g in (1, 2, 3) for n in (3, 5, 7, 9)],
            [s_pi_n_so(n) for n in range(3, 16)],
            [h1_Gg(g, n) for g in (1, 2, 3) for n in (3, 5, 7, 9)],
            [theta_data(n).to_json_dict() for n in (3, 5, 7, 9)])


def _wrong_entry(table, key, value):
    return lambda monkeypatch: monkeypatch.setitem(table, key, value)


MUTATIONS = {  # table: (the check that reads it, a wrong entry)
    "TABLE1": ("table1-lookup",
               _wrong_entry(reference.TABLE1, 6, FinAbGroup.cyclic(2))),
    "TABLE2": ("table2-lookup",
               _wrong_entry(reference.TABLE2, (2, 9), FinAbGroup.cyclic(4))),
    "TABLE2[1, 3]": ("table2-presentations",
                     _wrong_entry(reference.TABLE2, (1, 3),
                                  FinAbGroup.cyclic(6))),
    "TABLE3_MCG": ("table3-reproduction",
                   _wrong_entry(reference.TABLE3_MCG[9], 2,
                                FinAbGroup(0, (2, 4)))),
    "TABLE3_TORELLI": ("table3-reproduction",
                       _wrong_entry(reference.TABLE3_TORELLI, 7,
                                    (2, (), ()))),
    "SPLITTING": ("splitting-decision-matrix",
                  _wrong_entry(reference.SPLITTING, (1, 7),
                               ("yes", "no", "yes", "no"))),
    "BP_ORDER": ("bp-orders", _wrong_entry(reference.BP_ORDER, 12, 496)),
    "THETA": ("theta-assembly",
              _wrong_entry(reference.THETA, 7, FinAbGroup.cyclic(8128))),
    "OMEGA": ("omega-tau",
              _wrong_entry(reference.OMEGA, 9, FinAbGroup.trivial())),
    "MIN_SIGNATURE": ("minimal-signature",
                      _wrong_entry(reference.MIN_SIGNATURE, 5, 8 * 496)),
}


@pytest.mark.parametrize("table", MUTATIONS)
def test_a_wrong_table_fails_its_check_and_changes_no_answer(
        table, monkeypatch):
    check, mutate = MUTATIONS[table]
    before = _answers()
    assert all(ok for _, ok, _ in run_suites(["tables", "spheres"]))
    mutate(monkeypatch)
    failed = {name for name, ok, _ in run_suites(["tables", "spheres"])
              if not ok}
    assert check in failed
    assert _answers() == before


def test_every_table_has_a_mutation():
    tables = {name for name, value in vars(reference).items()
              if isinstance(value, dict) and not name.startswith("_")}
    assert tables <= set(MUTATIONS)

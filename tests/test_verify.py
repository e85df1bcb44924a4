"""The answers return their closed forms unchecked; ``verify`` compares
each one.  A mutated answer fails its named check, which passes on the
unmutated code."""

import sys

import pytest

from hdmcg import cocycles, cohomology, mcg, spheres, symplectic, verify
from hdmcg.abgroups import FinAbGroup, direct_sum
from hdmcg.verify import run_suites


def _everywhere(monkeypatch, func, wrong):
    """Put ``wrong`` in place of ``func`` in every ``hdmcg`` module that
    holds it, as ``verify`` may have imported it by name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hdmcg.") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, wrong)


def _wrong_quotient(monkeypatch):
    # wrong only on SpiSO(8) = (Z/2)^2, so only at (g, n) = (1, 8)
    real = mcg.mod_two_quotient
    mcg.coinvariants_closed.cache_clear()
    monkeypatch.setattr(mcg, "mod_two_quotient", lambda m: (
        FinAbGroup.cyclic(4) if m == FinAbGroup(0, (2, 2)) else real(m)))


def _wrong_bp_order(monkeypatch):
    real = spheres.bp_order
    _everywhere(monkeypatch, real,
                lambda dim: 2 * real(dim) if dim == 12 else real(dim))


def _wrong_theta_index(monkeypatch):
    real = symplectic.theta_index
    _everywhere(monkeypatch, real, lambda g: real(g) + 1)


def _filling_missing_a_term(monkeypatch):
    # the last term, (1 - 2h) [e | e], which no signature or chi^2 reads
    real = cocycles._filling
    _everywhere(monkeypatch, real, lambda h: real(h)[:-1])


def _h1_with_extra_torsion(monkeypatch):
    # an extra Z/3 over Z only, so the Z/2 checks stay as they were
    real = cohomology.h1
    _everywhere(monkeypatch, real, lambda p, module: direct_sum(
        [real(p, module), FinAbGroup.cyclic(3)]) if module.modulus == 0
        else real(p, module))


MUTATIONS = {  # the mutated answer: (its suite, its check, the mutation)
    "coinvariants_closed": ("appendix", "coinvariants-closed-vs-generators",
                            _wrong_quotient),
    "bp_order": ("spheres", "bp-orders", _wrong_bp_order),
    "theta_index": ("appendix", "theta-characteristic-count",
                    _wrong_theta_index),
    "_filling": ("cocycles", "canonical-filling-boundary",
                 _filling_missing_a_term),
    "h1": ("appendix", "h1-integral-coefficients", _h1_with_extra_torsion),
}


@pytest.fixture
def clear_coinvariants_memo():
    mcg.coinvariants_closed.cache_clear()
    yield
    mcg.coinvariants_closed.cache_clear()


@pytest.mark.parametrize("answer", MUTATIONS)
def test_a_wrong_answer_fails_its_check(answer, monkeypatch,
                                        clear_coinvariants_memo):
    suite, check, mutate = MUTATIONS[answer]
    assert (check, True) in {(name, ok) for name, ok, _ in run_suites([suite])}
    mutate(monkeypatch)
    assert check in {name for name, ok, _ in run_suites([suite]) if not ok}


def test_the_coinvariant_check_names_each_mismatch(monkeypatch,
                                                   clear_coinvariants_memo):
    _wrong_quotient(monkeypatch)
    (detail,) = [detail for name, ok, detail in run_suites(["appendix"])
                 if name == "coinvariants-closed-vs-generators" and not ok]
    assert detail == ("(g=1, n=8): closed form Z/4, generator matrices "
                      "(Z/2)^2")


def test_the_h1_check_names_the_lattice_route_answer(monkeypatch):
    _h1_with_extra_torsion(monkeypatch)
    (detail,) = [detail for name, ok, detail in run_suites(["appendix"])
                 if name == "h1-integral-coefficients" and not ok]
    assert detail == ("theta group: Z/6 (lattice route Z/2), "
                      "symplectic group: Z/3 (lattice route 0)")


def _count_calls(monkeypatch, module, attr, suite):
    """The arguments of each call the suite makes to ``module.attr``."""
    seen = []
    real = getattr(module, attr)

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(module, attr, counted)
    run_suites([suite])
    return seen


def test_the_coinvariant_check_compares_24_cases(monkeypatch):
    seen = _count_calls(monkeypatch, verify, "_coinvariants_by_generators",
                        "appendix")
    assert seen == [(g, n) for g in (1, 2, 3)
                    for n in (3, 5, 7, 8, 9, 11, 13, 14)]


def test_the_filling_check_covers_each_genus_to_16(monkeypatch):
    seen = _count_calls(monkeypatch, cocycles, "_fills_relator", "cocycles")
    assert [h for h, _ in seen] == list(range(1, 17))


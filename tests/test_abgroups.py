import json
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hdmcg.abgroups import (FinAbGroup, _normalize_chain, direct_sum,
                            element_order, mod_two_quotient, quotient_by,
                            quotient_with_projection, subgroup_iso,
                            tensor_with_free)
from hdmcg.linalg import IntMatrix, cokernel_presentation


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 2))  # not a chain
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))
    assert FinAbGroup.of(0, [4, 2]) == FinAbGroup(0, (2, 4))
    assert FinAbGroup.cyclic(1).is_trivial


def test_from_relations_examples():
    """Groups presented by relation columns, through
    ``cokernel_presentation``."""
    g, _ = cokernel_presentation(IntMatrix.diagonal([28, 0]))
    assert g == FinAbGroup(1, (28,))
    g, _ = cokernel_presentation(IntMatrix([[12]]))
    assert g == FinAbGroup.cyclic(12)
    g, _ = cokernel_presentation(IntMatrix([[2, 1], [0, 2]]))
    assert g == FinAbGroup.cyclic(4)


def test_quotient_examples():
    z28 = FinAbGroup.cyclic(28)
    assert quotient_by(z28, [z28.element([1])]).is_trivial
    g = FinAbGroup(0, (2, 8128))
    assert quotient_by(g, [g.element([0, 1])]) == FinAbGroup.cyclic(2)
    assert quotient_by(g, []) == g
    with pytest.raises(ValueError):
        quotient_by(g, [z28.element([1])])  # foreign element


def test_quotient_by_all_generators_is_trivial():
    rng = random.Random(0)
    for _ in range(25):
        g = FinAbGroup.of(rng.randint(0, 2),
                          [rng.randint(2, 9) for _ in range(rng.randint(0, 3))])
        basis = [g.element([int(i == j) for j in range(g.num_coords)])
                 for i in range(g.num_coords)]
        assert quotient_by(g, basis).is_trivial
        assert quotient_by(g, []) == g


def test_quotient_projection_consistency():
    g = FinAbGroup(1, (4, 8))
    x = g.element([0, 2, 0])
    q, proj = quotient_with_projection(g, [x])
    # the killed element maps to zero
    assert q.element(proj.mult_vec(list(x.coords))).is_zero


def test_direct_sum_normalization():
    assert direct_sum([FinAbGroup.cyclic(2), FinAbGroup.cyclic(3)]) \
        == FinAbGroup.cyclic(6)
    got = direct_sum([FinAbGroup(1, (4,)), FinAbGroup.cyclic(992)])
    assert got == FinAbGroup(1, (4, 992))
    assert direct_sum([FinAbGroup.trivial(), FinAbGroup.free(2)]) \
        == FinAbGroup.free(2)


def test_direct_sum_assoc_comm():
    rng = random.Random(1)
    groups = [FinAbGroup.of(rng.randint(0, 1),
                            [rng.randint(2, 12) for _ in range(rng.randint(0, 3))])
              for _ in range(6)]
    a = direct_sum([direct_sum(groups[:3]), direct_sum(groups[3:])])
    b = direct_sum(groups)
    shuffled = groups[:]
    rng.shuffle(shuffled)
    assert a == b == direct_sum(shuffled)


def test_element_orders():
    g = FinAbGroup(1, (28,))
    assert element_order(g.zero()) == 1
    assert element_order(g.element([0, 1])) == 28
    assert element_order(g.element([0, 14])) == 2
    assert element_order(g.element([1, 0])) is None


def test_order_divides_exponent():
    rng = random.Random(2)
    for _ in range(30):
        g = FinAbGroup.of(0, [rng.randint(2, 10) for _ in range(rng.randint(1, 3))])
        x = g.element([rng.randint(-20, 20) for _ in range(g.num_coords)])
        assert g.torsion[-1] % element_order(x) == 0  # the exponent


def test_element_arithmetic():
    g = FinAbGroup(0, (5,))
    x = g.element([3])
    assert (x + x).coords == (1,)
    assert (-x).coords == (2,)
    assert (2 * x).coords == (1,)
    with pytest.raises(ValueError):
        x + FinAbGroup.cyclic(7).element([1])


def test_elements_refuse_what_is_not_an_integer():
    """Floats and bools are refused, never truncated to (1, 2) or (1, 1)."""
    g = FinAbGroup(1, (4,))
    for coords in ([1.7, 2.9], [True, 5], (1, 2.0)):
        with pytest.raises(ValueError, match="element coordinates must hold "
                                             "integers"):
            g.element(coords)
    x = g.element([1, 1])
    for k in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="a multiplier must be an "
                                             "integer"):
            k * x
    with pytest.raises(ValueError,
                       match="^coordinate count does not match the group$"):
        g.element([1])
    assert (3 * x).coords == (3, 3) and type((3 * x).coords[1]) is int


def test_subgroup_iso():
    g = FinAbGroup(0, (2, 8128))
    assert subgroup_iso(g, [g.element([0, 1])]) == FinAbGroup.cyclic(8128)
    assert subgroup_iso(g, [g.element([0, 2])]) == FinAbGroup.cyclic(4064)
    assert subgroup_iso(g, []) == FinAbGroup.trivial()
    free = FinAbGroup.free(2)
    assert subgroup_iso(free, [free.element([2, 0])]) == FinAbGroup.free(1)


def test_generators_of_another_group_are_refused_alike():
    g, other = FinAbGroup(0, (2, 4)), FinAbGroup.cyclic(4)
    for build in (quotient_with_projection, subgroup_iso):
        with pytest.raises(ValueError) as err:
            build(g, [g.element([1, 1]), other.element([1])])
        assert str(err.value) == "generator does not belong to the group"


def test_helpers():
    assert tensor_with_free(FinAbGroup.cyclic(2), 4) == FinAbGroup(0, (2, 2, 2, 2))
    assert tensor_with_free(FinAbGroup.free(1), 3) == FinAbGroup.free(3)
    assert mod_two_quotient(FinAbGroup(1, (3, 12))) == FinAbGroup(0, (2, 2))


def test_json_round_trip():
    g = FinAbGroup(2, (2, 4))
    blob = json.dumps(g.to_json_dict(), sort_keys=True)
    assert blob == '{"rank": 2, "torsion": [2, 4]}'
    assert FinAbGroup(**json.loads(blob)) == g


def pairwise_chain(factors):
    # the former quadratic normalisation, kept as the oracle
    ds = [int(d) for d in factors if int(d) != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                if b % a:
                    g = gcd(a, b)
                    ds[i], ds[j] = g, a * b // g
                    changed = True
        ds = [d for d in ds if d != 1]
    ds.sort()
    return tuple(ds)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 40), st.sampled_from(
    (2, 4, 8, 12, 28, 992, 8128, 261632))), max_size=12))
def test_chain_normalisation_matches_the_pairwise_oracle(factors):
    assert _normalize_chain(factors) == pairwise_chain(factors)


def test_chain_normalisation_refuses_nonpositive_orders():
    for bad in ([0], [2, -4]):
        with pytest.raises(ValueError, match="positive"):
            _normalize_chain(bad)


@pytest.mark.parametrize("build, args", [
    (FinAbGroup, (0, (2.5,))),
    (FinAbGroup, (0, (2, 4.0))),
    (FinAbGroup, (0, (True,))),
    (FinAbGroup, (1.5, ())),
    (FinAbGroup, (True, ())),
    (FinAbGroup, ("1", ())),
    (FinAbGroup.of, (0, [2.9, 4])),
    (FinAbGroup.of, (0, ["4"])),
    (FinAbGroup, (0, [2.7])),
    (FinAbGroup, (1.0, [])),
    (FinAbGroup, (0, ["2"])),
], ids=lambda x: repr(x) if isinstance(x, tuple) else x.__name__)
def test_non_integer_rank_or_torsion_is_refused(build, args):
    with pytest.raises(ValueError, match="must be an integer"):
        build(*args)


def test_group_arithmetic_builds_through_the_trusted_builder(monkeypatch):
    """The sums, tensor powers, mod-2 quotients and cokernels the package
    forms never pass through the public constructor's checks, while a
    group named from outside, or a multiset handed to ``of``, is still
    refused when it is malformed."""
    z4, z6 = FinAbGroup(0, (4,)), FinAbGroup(1, (6,))
    calls = []
    init = FinAbGroup.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinAbGroup, "__init__", counted)
    assert direct_sum([z4, z6]) == FinAbGroup.of(1, (2, 12))
    assert tensor_with_free(z6, 2) == FinAbGroup.of(2, (6, 6))
    assert mod_two_quotient(z6) == FinAbGroup.of(0, (2, 2))
    group, _ = cokernel_presentation(IntMatrix([[2, 1], [0, 2]]))
    assert group == FinAbGroup.of(0, (4,))
    assert calls == []
    for build, args in ((FinAbGroup, (-1,)), (FinAbGroup.of, (-1, ())),
                        (FinAbGroup.of, (0, (1.5,))),
                        (FinAbGroup, (0, (4, 2)))):
        with pytest.raises(ValueError) as err:
            build(*args)
        assert "\n" not in str(err.value)

import random

import pytest

from hdmcg.cocycles import random_symplectic
from hdmcg.linalg import IntMatrix
from hdmcg.mcg import automorphism_family
from hdmcg.symplectic import (GroupFamily, WallForm, is_member, j_matrix,
                              q_eval, sp_inverse, standard_generators,
                              theta_index)


def test_j_matrix_shape():
    j = j_matrix(2, -1)
    assert j == IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1],
                           [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert j_matrix(1, 1) == IntMatrix([[0, 1], [1, 0]])


def test_wall_form_value_groups():
    assert WallForm.for_params(2, 5).q_value_modulus == 2
    assert WallForm.for_params(2, 3).q_value_modulus == 1
    assert WallForm.for_params(2, 7).q_value_modulus == 1
    assert WallForm.for_params(2, 8).q_value_modulus == 0


def test_wall_form_agrees_with_the_automorphism_family_at_n_1():
    """n = 1 is a Hopf dimension: the group is Sp, so q takes no values."""
    assert WallForm.for_params(1, 1).q_value_modulus == 1
    assert automorphism_family(1) is GroupFamily.SP


def test_q_eval_examples():
    w = WallForm.for_params(1, 5)
    assert q_eval(w, (1, 0)) == 0
    assert q_eval(w, (1, 1)) == 1
    w37 = WallForm.for_params(1, 3)
    assert q_eval(w37, (1, 1)) == 0
    weven = WallForm.for_params(1, 8)
    assert q_eval(weven, (3, 2)) == 6


def test_membership_examples():
    ident = IntMatrix.identity(2)
    for fam in GroupFamily:
        assert is_member(fam, ident, 1)
    s = IntMatrix([[0, -1], [1, 0]])
    assert is_member(GroupFamily.SP, s, 1)
    assert is_member(GroupFamily.SPQ, s, 1)
    t = IntMatrix([[1, 1], [0, 1]])
    assert is_member(GroupFamily.SP, t, 1)
    assert not is_member(GroupFamily.SPQ, t, 1)
    with pytest.raises(ValueError):
        is_member(GroupFamily.SP, IntMatrix.identity(3), 1)


def test_standard_generator_lists():
    spq1 = standard_generators(GroupFamily.SPQ, 1)
    assert IntMatrix([[1, 2], [0, 1]]) in spq1
    assert IntMatrix([[0, 1], [-1, 0]]) in spq1
    ogg1 = standard_generators(GroupFamily.OGG, 1)
    assert IntMatrix([[-1, 0], [0, -1]]) in ogg1
    assert IntMatrix([[0, 1], [1, 0]]) in ogg1
    spq2 = standard_generators(GroupFamily.SPQ, 2)
    kinds = {m.data for m in spq2}
    assert len(kinds) == 3  # permutation pair, J-swap, elementary


# Every generator list at g = 1..4, written out row by row, one character
# per entry and "-" for -1.
GENERATORS = {
    (GroupFamily.OGG, 1): ["-0 0-", "01 10"],
    (GroupFamily.OGG, 2): [
        "0100 1000 0001 0010",
        "0010 0001 1000 0100",
        "1000 1100 001- 0001",
        "-000 0-00 00-0 000-",
    ],
    (GroupFamily.OGG, 3): [
        "010000 100000 001000 000010 000100 000001",
        "100000 001000 010000 000100 000001 000010",
        "000100 000010 000001 100000 010000 001000",
        "100000 110000 001000 0001-0 000010 000001",
        "-00000 0-0000 00-000 000-00 0000-0 00000-",
    ],
    (GroupFamily.OGG, 4): [
        ("01000000 10000000 00100000 00010000 "
         "00000100 00001000 00000010 00000001"),
        ("10000000 00100000 01000000 00010000 "
         "00001000 00000010 00000100 00000001"),
        ("10000000 01000000 00010000 00100000 "
         "00001000 00000100 00000001 00000010"),
        ("00001000 00000100 00000010 00000001 "
         "10000000 01000000 00100000 00010000"),
        ("10000000 11000000 00100000 00010000 "
         "00001-00 00000100 00000010 00000001"),
        ("-0000000 0-000000 00-00000 000-0000 "
         "0000-000 00000-00 000000-0 0000000-"),
    ],
    (GroupFamily.SPQ, 1): ["12 01", "01 -0"],
    (GroupFamily.SPQ, 2): [
        "0100 1000 0001 0010",
        "00-0 000- 1000 0100",
        "1000 1100 001- 0001",
    ],
    (GroupFamily.SPQ, 3): [
        "010000 100000 001000 000010 000100 000001",
        "100000 001000 010000 000100 000001 000010",
        "000-00 0000-0 00000- 100000 010000 001000",
        "100000 110000 001000 0001-0 000010 000001",
    ],
    (GroupFamily.SPQ, 4): [
        ("01000000 10000000 00100000 00010000 "
         "00000100 00001000 00000010 00000001"),
        ("10000000 00100000 01000000 00010000 "
         "00001000 00000010 00000100 00000001"),
        ("10000000 01000000 00010000 00100000 "
         "00001000 00000100 00000001 00000010"),
        ("0000-000 00000-00 000000-0 0000000- "
         "10000000 01000000 00100000 00010000"),
        ("10000000 11000000 00100000 00010000 "
         "00001-00 00000100 00000010 00000001"),
    ],
    (GroupFamily.SP, 1): ["12 01", "01 -0", "11 01"],
    (GroupFamily.SP, 2): [
        "0100 1000 0001 0010",
        "00-0 000- 1000 0100",
        "1000 1100 001- 0001",
        "1010 0100 0010 0001",
    ],
    (GroupFamily.SP, 3): [
        "010000 100000 001000 000010 000100 000001",
        "100000 001000 010000 000100 000001 000010",
        "000-00 0000-0 00000- 100000 010000 001000",
        "100000 110000 001000 0001-0 000010 000001",
        "100100 010000 001000 000100 000010 000001",
    ],
    (GroupFamily.SP, 4): [
        ("01000000 10000000 00100000 00010000 "
         "00000100 00001000 00000010 00000001"),
        ("10000000 00100000 01000000 00010000 "
         "00001000 00000010 00000100 00000001"),
        ("10000000 01000000 00010000 00100000 "
         "00001000 00000100 00000001 00000010"),
        ("0000-000 00000-00 000000-0 0000000- "
         "10000000 01000000 00100000 00010000"),
        ("10000000 11000000 00100000 00010000 "
         "00001-00 00000100 00000010 00000001"),
        ("10001000 01000000 00100000 00010000 "
         "00001000 00000100 00000010 00000001"),
    ],
}


def _written(text: str) -> IntMatrix:
    return IntMatrix([[-1 if c == "-" else int(c) for c in row]
                      for row in text.split()])


def test_standard_generators_written_out():
    for (family, g), mats in GENERATORS.items():
        want = [_written(m) for m in mats]
        assert standard_generators(family, g) == want, (family, g)


def test_generators_pass_membership():
    for g in range(1, 5):
        for fam in GroupFamily:
            for m in standard_generators(fam, g):
                assert is_member(fam, m, g), (fam, g, m)


def test_generators_preserve_pairing_exactly():
    for g in range(1, 5):
        jm = j_matrix(g, -1)
        for m in standard_generators(GroupFamily.SP, g):
            assert m.transpose() @ jm @ m == jm
        jp = j_matrix(g, 1)
        for m in standard_generators(GroupFamily.OGG, g):
            assert m.transpose() @ jp @ m == jp


def test_q_preserved_on_basis_by_theta_generators():
    for g in (1, 2, 3):
        w = WallForm.for_params(g, 5)
        n = 2 * g
        basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for m in standard_generators(GroupFamily.SPQ, g):
            for x in basis:
                assert q_eval(w, m.mult_vec(x)) == q_eval(w, x)


def test_random_products_stay_members():
    rng = random.Random(0)
    for g in (1, 2, 3):
        for fam in (GroupFamily.SP, GroupFamily.SPQ):
            gens = standard_generators(fam, g)
            for _ in range(25):
                m = random_symplectic(g, rng, gens, max_length=8)
                assert is_member(fam, m, g)


def test_sp_inverse():
    rng = random.Random(1)
    for g in (1, 2):
        gens = standard_generators(GroupFamily.SP, g)
        for _ in range(20):
            m = random_symplectic(g, rng, gens)
            assert m @ sp_inverse(m, g) == IntMatrix.identity(2 * g)


def test_theta_index_small():
    assert theta_index(1) == 3
    assert theta_index(2) == 10
    assert theta_index(3) == 36
    for g in range(1, 6):
        assert theta_index(g) == 2 ** (2 * g - 1) + 2 ** (g - 1)
    with pytest.raises(ValueError):
        theta_index(7)

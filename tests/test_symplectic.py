import random

import pytest

from hdmcg import symplectic
from hdmcg.cocycles import SurfaceClass, meyer_tau, random_symplectic
from hdmcg.linalg import IntMatrix
from hdmcg.mcg import automorphism_family
from hdmcg.symplectic import (MEMO_SIZE, GroupFamily, _identity_with,
                              is_member, j_matrix, sp_inverse,
                              standard_generators, theta_index)


def test_j_matrix_shape():
    j = j_matrix(2, -1)
    assert j == IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1],
                           [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert j_matrix(1, 1) == IntMatrix([[0, 1], [1, 0]])


def test_automorphism_family_follows_theorem_a():
    """Sp in the Hopf dimensions n = 1, 3, 7 (q takes no values), the theta
    group in the other odd n, and O_{g,g} for even n."""
    assert automorphism_family(1) is GroupFamily.SP
    for n in range(1, 17):
        want = (GroupFamily.OGG if n % 2 == 0 else GroupFamily.SP
                if n in (1, 3, 7) else GroupFamily.SPQ)
        assert automorphism_family(n) is want, n


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
    """q(x) = sum x_i y_i mod 2, written out here rather than read from
    ``symplectic``, is 0 on every basis vector and on its image."""
    for g in (1, 2, 3):
        n = 2 * g
        basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for m in standard_generators(GroupFamily.SPQ, g):
            for x in basis:
                y = m.mult_vec(x)
                assert sum(y[i] * y[g + i] for i in range(g)) % 2 == 0


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


def _list_j(g: int, eps: int) -> list[list[int]]:
    """J = [[0, I], [eps I, 0]] as row lists."""
    return [[int(c == r + g) + eps * int(r == c + g) for c in range(2 * g)]
            for r in range(2 * g)]


def _list_product(*factors: list) -> list:
    out = factors[0]
    for b in factors[1:]:
        out = [[sum(row[t] * b[t][j] for t in range(len(b)))
                for j in range(len(b[0]))] for row in out]
    return out


def _list_verdict(rows: list[list[int]], g: int, family: GroupFamily) -> bool:
    """Reference membership on row lists: every entry of A^T J A, as a
    written-out sum, equals that of J = [[0, I], [eps I, 0]], eps = +1 for
    Ogg and -1 for Sp and SpQ; for the theta group q(x) = sum x_i y_i is
    also even on every column."""
    n = 2 * g
    j = _list_j(g, 1 if family is GroupFamily.OGG else -1)
    form = [[sum(rows[k][i] * j[k][l] * rows[l][c]
                 for k in range(n) for l in range(n)) for c in range(n)]
            for i in range(n)]
    return form == j and (family is not GroupFamily.SPQ or all(
        sum(rows[i][c] * rows[g + i][c] for i in range(g)) % 2 == 0
        for c in range(n)))


def _list_word(g: int, rng, gens: list[IntMatrix], length: int,
               eps: int) -> list:
    """Row lists of a product of ``length`` generators and inverses,
    multiplied out entry by entry; the inverse of A is eps J A^T J, since
    J^2 = eps I."""
    n = 2 * g
    j = _list_j(g, eps)
    word = [[int(i == k) for k in range(n)] for i in range(n)]
    for _ in range(length):
        a = [list(r) for r in rng.choice(gens).data]
        if rng.random() < 0.5:
            a = [[eps * x for x in r]
                 for r in _list_product(j, [list(c) for c in zip(*a)], j)]
        word = _list_product(word, a)
    return word


def test_membership_matches_the_written_out_form():
    """``is_member`` against the list reference for every family at
    g = 1..4, on seeded generator words (short ones keep columns with one
    or two nonzero entries, long ones fill them), the same words with one
    entry moved by 1 or -1, and dense random matrices.  Each family meets
    members and non-members, and columns with at most g and with more than
    g nonzero entries occur among both (the Ogg words hold at most g
    nonzero entries in a column: their generators keep the block form of
    diag(B, B^-T) up to the swap J)."""
    rng = random.Random(29)
    seen = set()
    for g in range(1, 5):
        n = 2 * g
        for fam in GroupFamily:
            gens = standard_generators(fam, g)
            eps = 1 if fam is GroupFamily.OGG else -1
            for length in (1, 2, 3, 5, 8, 13) * 4:
                word = _list_word(g, rng, gens, length, eps)
                moved = [list(row) for row in word]
                moved[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
                dense = [[rng.randint(-3, 3) for _ in range(n)]
                         for _ in range(n)]
                for rows in (word, moved, dense):
                    clear_memos()
                    want = _list_verdict(rows, g, fam)
                    assert is_member(fam, IntMatrix(rows), g) == want, rows
                    for column in zip(*rows):
                        dense_column = 2 * (n - column.count(0)) > n
                        seen.add((fam, want, dense_column))
    assert {(want, dense) for _, want, dense in seen} == {
        (True, True), (True, False), (False, True), (False, False)}
    assert {(fam, want) for fam, want, _ in seen} == {
        (fam, want) for fam in GroupFamily for want in (True, False)}


# ---------------------------------------------------------------------------
# the memos behind is_member and sp_inverse

def clear_memos():
    symplectic._verdict.cache_clear()
    symplectic._inverse.cache_clear()


I2 = IntMatrix.identity(2)
EMPTY = IntMatrix([], 0)
# (call, what the ValueError says); 1.0 and True hash and compare equal to
# 1, so a memo consulted before the checks would answer them from the
# entries of the identity at g = 1
REFUSED = [
    (lambda: is_member(GroupFamily.SP, EMPTY, 0), "genus must be >= 1"),
    (lambda: meyer_tau(EMPTY, EMPTY, 0), "genus must be >= 1"),
    (lambda: sp_inverse(EMPTY, 0), "genus must be >= 1"),
    (lambda: is_member(GroupFamily.SP, I2, -1), "genus must be >= 1"),
    (lambda: is_member(GroupFamily.SPQ, I2, 1.0), "integer, got 1.0"),
    (lambda: sp_inverse(I2, 1.0), "integer, got 1.0"),
    (lambda: meyer_tau(I2, I2, 1.0), "integer, got 1.0"),
    (lambda: SurfaceClass(1.0, ((I2, I2),)), "integer, got 1.0"),
    (lambda: SurfaceClass(0, ((EMPTY, EMPTY),)), "genus g must be >= 1"),
    (lambda: is_member(GroupFamily.SP, I2, True), "integer, got True"),
    (lambda: sp_inverse(I2, True), "integer, got True"),
    (lambda: meyer_tau(I2, I2, True), "integer, got True"),
    (lambda: SurfaceClass(True, ((I2, I2),)), "integer, got True"),
    (lambda: is_member(GroupFamily.SP, [[1, 0], [0, 1]], 1), "IntMatrix"),
    (lambda: sp_inverse([[1, 0], [0, 1]], 1), "IntMatrix"),
    (lambda: meyer_tau([[1, 0], [0, 1]], I2, 1), "IntMatrix"),
    (lambda: is_member(GroupFamily.SP, IntMatrix.identity(3), 1),
     "2x2 IntMatrix"),
]


@pytest.mark.parametrize("call, message", REFUSED,
                         ids=[str(i) for i in range(len(REFUSED))])
def test_arguments_are_refused_cold_and_warm(call, message):
    """Each bad argument raises one ValueError with an empty memo, and again
    once the memo holds the identity at g = 1 for every family."""
    clear_memos()
    with pytest.raises(ValueError, match=message):
        call()
    for fam in GroupFamily:
        assert is_member(fam, I2, 1)
    assert sp_inverse(I2, 1) == I2
    assert meyer_tau(I2, I2, 1) == 0
    with pytest.raises(ValueError, match=message):
        call()


def test_the_verdict_is_kept_per_family():
    """The transvection [[1, 1], [0, 1]] lies in Sp but not in the theta
    group, whichever family is asked first."""
    for g in (1, 2, 3):
        t = _identity_with(g, {(0, g): 1})  # [[1, 1], [0, 1]] on (e_1, f_1)
        for first, second in ((GroupFamily.SP, GroupFamily.SPQ),
                              (GroupFamily.SPQ, GroupFamily.SP)):
            clear_memos()
            assert [is_member(fam, t, g) for fam in (first, second) * 2] \
                == [fam is GroupFamily.SP for fam in (first, second) * 2]


def test_a_matrix_outside_sp_is_refused_on_every_call():
    a = IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    clear_memos()
    for _ in range(3):
        assert not is_member(GroupFamily.SP, a, 2)
        assert not is_member(GroupFamily.SPQ, a, 2)
        with pytest.raises(ValueError, match="symplectic matrices"):
            meyer_tau(a, IntMatrix.identity(4), 2)
        with pytest.raises(ValueError, match="not symplectic"):
            SurfaceClass(2, ((a, IntMatrix.identity(4)),))


def test_the_memos_stay_within_their_bound():
    """A sweep over more distinct matrices than the bound leaves at most
    MEMO_SIZE entries in each memo, and an evicted matrix is answered
    again from scratch."""
    rng = random.Random(3)
    gens = standard_generators(GroupFamily.SP, 2)
    clear_memos()
    seen = {}
    while len(seen) < 2 * MEMO_SIZE:
        m = random_symplectic(2, rng, gens, max_length=10)
        seen[m.data] = m
        assert is_member(GroupFamily.SP, m, 2)
        assert m @ sp_inverse(m, 2) == IntMatrix.identity(4)
    for memo in (symplectic._verdict, symplectic._inverse):
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize <= MEMO_SIZE
    first = next(iter(seen.values()))  # the oldest entry, long evicted
    misses = [m.cache_info().misses for m in (symplectic._verdict,
                                              symplectic._inverse)]
    assert is_member(GroupFamily.SP, first, 2)
    assert first @ sp_inverse(first, 2) == IntMatrix.identity(4)
    assert [m.cache_info().misses for m in (symplectic._verdict,
                                            symplectic._inverse)] \
        == [n + 1 for n in misses]


# the generator lists written out entry by entry: at g = 2 and 3 they are
# the coordinate swaps diag(P, P), then -J_- (Sp, SpQ) or J_+ (Ogg), the
# elementary matrix E = block_diag(B, B^-T), and T on (e_1, f_1) for Sp or
# -I for Ogg
_SWAP_2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
_E_2 = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
_SWAPS_3 = [[[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
             [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]],
            [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0],
             [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]]]
_E_3 = [[1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, -1, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
_THETA_GENERATORS = {
    1: [[[1, 2], [0, 1]], [[0, 1], [-1, 0]]],
    2: [_SWAP_2,
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], _E_2],
    3: _SWAPS_3 + [[[0, 0, 0, -1, 0, 0], [0, 0, 0, 0, -1, 0],
                    [0, 0, 0, 0, 0, -1], [1, 0, 0, 0, 0, 0],
                    [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], _E_3],
}
LITERAL_GENERATORS = {
    GroupFamily.SPQ: _THETA_GENERATORS,
    GroupFamily.SP: {
        1: _THETA_GENERATORS[1] + [[[1, 1], [0, 1]]],
        2: _THETA_GENERATORS[2] + [[[1, 0, 1, 0], [0, 1, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 0, 1]]],
        3: _THETA_GENERATORS[3] + [[[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0],
                                    [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                                    [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]],
    },
    GroupFamily.OGG: {
        1: [[[-1, 0], [0, -1]], [[0, 1], [1, 0]]],
        2: [_SWAP_2,
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], _E_2,
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]],
        3: _SWAPS_3 + [[[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                        [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0],
                        [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], _E_3,
                       [[-1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0],
                        [0, 0, -1, 0, 0, 0], [0, 0, 0, -1, 0, 0],
                        [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, -1]]],
    },
}


@pytest.mark.parametrize("family", list(GroupFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("g", (1, 2, 3))
def test_generator_lists_entry_by_entry(family, g):
    got = standard_generators(family, g)
    assert [m.to_lists() for m in got] == LITERAL_GENERATORS[family][g]
    # each is an IntMatrix of int tuples, as the checked constructor builds
    assert got == [IntMatrix(m.data) for m in got]
    assert all(type(row) is tuple for m in got for row in m.data)

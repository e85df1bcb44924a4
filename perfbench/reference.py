"""Reference answers held as literals, independent of the code under test.

Groups are written as (rank, torsion) with torsion a divisibility chain.
Values come from the source paper's Tables 2 and 3, its theorem
statements, and the classical bP orders.  The coinvariant values were
checked by an independent Smith normal form (sympy) on the same
generator lists.
"""

from __future__ import annotations

TRIVIAL = (0, ())

BP_ORDER = {8: 28, 12: 992, 16: 8128, 20: 261632}

THETA = {3: (0, (28,)), 5: (0, (992,)), 7: (0, (2, 8128)), 9: (0, (2, 261632))}

MIN_SIGNATURE = {3: 1, 5: 7936, 7: 1, 9: 8 * 261632}

# Table 2: abelianisation of the arithmetic group, constant for g >= 3.
_TABLE2 = {
    3: {1: (0, (12,)), 2: (0, (2,)), 3: TRIVIAL},
    5: {1: (1, (4,)), 2: (0, (2, 4)), 3: (0, (4,))},
}
_TABLE2[7] = _TABLE2[3]
_TABLE2[9] = _TABLE2[5]

# Table 3, H1 of the mapping class group, constant for g >= 3.
_TABLE3_MCG = {
    3: {1: (0, (12,)), 2: (0, (2,)), 3: TRIVIAL},
    5: {1: (1, (4, 992)), 2: (0, (2, 4)), 3: (0, (4,))},
    7: {1: (0, (2, 12)), 2: (0, (2, 2)), 3: (0, (2,))},
    9: {1: (1, (2, 2, 4, 261632)), 2: (0, (2, 2, 4)), 3: (0, (2, 4))},
}


def table2(g, n):
    return _TABLE2[n][min(g, 3)]


def h1_torelli(g, n):
    """Table 3, Torelli rows."""
    if g == 0:
        return THETA[n]
    return {3: (2 * g, ()), 5: (0, (992,)), 7: (2 * g, (2,)),
            9: (0, (2,) * (2 * g + 1) + (261632,))}[n]


def h1_mcg(g, n):
    """Table 3, mapping-class-group rows."""
    return THETA[n] if g == 0 else _TABLE3_MCG[n][min(g, 3)]


def h1_half_mcg(g, n):
    """Table 2 plus the coinvariants summand, which is Z/2 only at (1, 9)."""
    rank, tors = table2(g, n)
    if (g, n) == (1, 9):
        return (rank, tuple(sorted(tors + (2,))))
    return (rank, tors)


def d2_image(g, n):
    """The subgroup <Sigma_Q> (g = 1) or bA (g >= 2) of the sphere group."""
    if n in (3, 7):
        return (0, (BP_ORDER[2 * n + 2],))
    return TRIVIAL if g == 1 else (0, (BP_ORDER[2 * n + 2],))


def splittings(g, n):
    """(ext4, ext3, kreck1, kreck2, haut) from Theorems A, B, C and E."""
    ext4 = "no" if n in (3, 7) and g >= 2 else "yes"
    ext3 = "yes" if g == 1 and n % 4 == 1 else "no"
    if g >= 2:
        kreck1 = "no"
    else:
        kreck1 = {3: "no", 7: "unknown"}.get(n, "yes")
    kreck2 = "yes" if n % 4 == 1 else "no"
    haut = "no" if n in (3, 7) and g >= 2 else "yes"
    return ext4, ext3, kreck1, kreck2, haut


# The splitting spot matrix of the paper (Table of decisions).
SPLIT_SPOTS = {
    (1, 5): ("yes", "yes", "yes", "yes"),
    (2, 5): ("yes", "no", "no", "yes"),
    (3, 9): ("yes", "no", "no", "yes"),
    (1, 9): ("yes", "yes", "yes", "yes"),
    (1, 3): ("yes", "no", "no", "no"),
    (2, 3): ("no", "no", "no", "no"),
    (1, 7): ("yes", "no", "unknown", "no"),
    (2, 7): ("no", "no", "no", "no"),
    (3, 7): ("no", "no", "no", "no"),
    (1, 11): ("yes", "no", "yes", "no"),
    (2, 11): ("yes", "no", "no", "no"),
    (4, 13): ("yes", "no", "no", "yes"),
}


def coinvariants(family, g, modulus):
    """Coinvariants of the standard generator list on Z^2g (or (Z/m)^2g)."""
    if g == 1 and family in ("SpQ", "Ogg"):
        return (0, (2,))
    return TRIVIAL


# Appendix presentations (generator letters are signed 1-based indices)
# with the matrices of their actions on Z^2.
S = [[0, -1], [1, 0]]
T = [[0, -1], [1, 1]]
R = [[1, 2], [0, 1]]
APPENDIX = {
    # name: (generators, relators, actions, modulus, expected or None)
    "sp2": (2, ((1, 1, 1, 1), (1, 1, -2, -2, -2)), (S, T), 0, TRIVIAL),
    "sp2q": (2, ((1, 1, 1, 1), (1, 1, 2, -1, -1, -2)), (S, R), 0, (0, (2,))),
    # projective groups are free products Z/2 * Z/3 and Z/2 * Z; their H^1
    # is checked against the free-product route (orders give the factors)
    "psp2": (2, ((1, 1), (2, 2, 2)), (S, T), 2, None),
    "psp2q": (2, ((1, 1),), (S, R), 2, (0, (2, 2))),
}
FREE_PRODUCT_ORDERS = {"psp2": (2, 3), "psp2q": (2, 0)}

# boundary --n N --sgn S [--chi2 C] -> label printed by the CLI
BOUNDARY_VALID = (
    (7, 0, 8, "Sigma_Q"), (7, 8, 0, "Sigma_P"), (3, 1, 1, "0"),
    (3, 0, 8, "Sigma_Q"), (5, 8, None, "Sigma_P"), (5, -8, None, "-Sigma_P"),
    (9, 16, None, "2.Sigma_P"),
)
# invariants outside their regime's divisibility or definedness rules
BOUNDARY_INVALID = (
    (5, 4, None), (3, 0, 1), (7, 3, 0), (9, 3, None), (5, 8, 0),
)

"""The values the paper states, one copy of each table.

Only checks read this module: the ``verify`` suites and
``reproduce_table3``, which imports it when it runs.  Code that computes an
answer never reads it, so every check compares two independent sources.
"""

from .abgroups import FinAbGroup

_Z, _Z1, _c = FinAbGroup.trivial(), FinAbGroup.free(1), FinAbGroup.cyclic


# Table 1: SpiSO(n), the image of pi_n SO(n) in pi_n SO, for n = 3..15
TABLE1 = {3: _Z1, 4: _c(2), 5: _Z, 6: _Z, 7: _Z1, 8: FinAbGroup(0, (2, 2)),
          9: _c(2), 10: _c(2), 11: _Z1, 12: _c(2), 13: _Z, 14: _c(2),
          15: _Z1}

# Table 2 spot values: H_1(G_g) at (g, n)
TABLE2 = {(1, 3): _c(12), (2, 3): _c(2), (3, 3): _Z, (4, 7): _Z,
          (1, 5): FinAbGroup(1, (4,)), (2, 5): FinAbGroup(0, (2, 4)),
          (3, 5): _c(4), (1, 7): _c(12), (2, 9): FinAbGroup(0, (2, 4)),
          (5, 9): _c(4)}

# |bP_dim|, the boundaries of parallelisable manifolds, by dimension
BP_ORDER = {8: 28, 12: 992, 16: 8128, 20: 261632}

# the homotopy-sphere groups Theta_{2n+1}
THETA = {3: _c(28), 5: _c(992), 7: FinAbGroup(0, (2, 8128)),
         9: FinAbGroup(0, (2, 261632))}

# Omega: coker J modulo the class of Sigma_Q
OMEGA = {3: _Z, 5: _Z, 7: _c(2), 9: _c(2)}

# minimal positive signature of a closed n-connected (2n+2)-manifold
MIN_SIGNATURE = {3: 1, 7: 1, 5: 7936, 9: 8 * 261632}

# the splitting spot matrix: (ext4, ext3, kreck1, kreck2) at (g, n)
SPLITTING = {
    (1, 5): ("yes", "yes", "yes", "yes"), (2, 5): ("yes", "no", "no", "yes"),
    (3, 9): ("yes", "no", "no", "yes"), (1, 9): ("yes", "yes", "yes", "yes"),
    (1, 3): ("yes", "no", "no", "no"), (2, 3): ("no", "no", "no", "no"),
    (1, 7): ("yes", "no", "unknown", "no"), (2, 7): ("no", "no", "no", "no"),
    (3, 7): ("no", "no", "no", "no"), (1, 11): ("yes", "no", "yes", "no"),
    (2, 11): ("yes", "no", "no", "no"), (4, 13): ("yes", "no", "no", "yes"),
}

# Table 3, H_1(Gamma_g) for g = 1, 2 and g >= 3 (row 3); g = 0 is Theta
TABLE3_MCG = {
    3: {1: _c(12), 2: _c(2), 3: _Z},
    5: {1: FinAbGroup(1, (4, 992)), 2: FinAbGroup(0, (2, 4)), 3: _c(4)},
    7: {1: FinAbGroup(0, (2, 12)), 2: FinAbGroup(0, (2, 2)), 3: _c(2)},
    9: {1: FinAbGroup(1, (2, 2, 4, 261632)), 2: FinAbGroup(0, (2, 2, 4)),
        3: FinAbGroup(0, (2, 4))},
}

# Table 3, H_1(T_g) for g >= 1: Z^(rank g) plus the torsion orders
# per_genus repeated g times plus the fixed ones; g = 0 is Theta
TABLE3_TORELLI = {3: (2, (), ()), 5: (0, (), (992,)), 7: (2, (), (2,)),
                  9: (0, (2, 2), (2, 261632))}


def table3_torelli(g: int, n: int) -> FinAbGroup:
    if g == 0:
        return THETA[n]
    rank, per_genus, fixed = TABLE3_TORELLI[n]
    return FinAbGroup.of(rank * g, per_genus * g + fixed)


def table3_mcg(g: int, n: int) -> FinAbGroup:
    return THETA[n] if g == 0 else TABLE3_MCG[n][min(g, 3)]

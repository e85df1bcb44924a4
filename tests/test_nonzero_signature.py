"""The first class with nonzero signature: a genus-2 class in Sp_4(Z).

The commutator trick of Endo, Korkmaz, Kotschick, Ozbagci and Stipsicz
(Topology 41, 2002): two words in the transvections of a chain,
W1 = (T1 T2)^30 = x_1 ... x_60 and W2 = ((T1 ... T5)^6)^2 = y_1 ... y_60,
both multiply to I.  Conjugators z_i with z_i x_i z_i^-1 = y_i turn
W1 W2^-1 into a product of 60 commutators, and the signature of that
class is the difference of the Meyer sums of the two words, 40 - 36.

``python tests/test_nonzero_signature.py`` rewrites
``examples/nonzero.json`` from the builder.
"""

import json
import random
from collections import deque
from functools import cache
from pathlib import Path

import pytest

from hdmcg.cocycles import (SurfaceClass, load_class_file, meyer_tau,
                            random_symplectic, signature_of_class)
from hdmcg.linalg import IntMatrix
from hdmcg.spheres import AlmostClosedInvariants, boundary_of_plumbing
from hdmcg.symplectic import (GroupFamily, j_matrix, sp_inverse,
                              standard_generators)

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "nonzero.json"
G = 2
# the chain e1, f1, e2 - e1, f2, e2 in the coordinates (e1, e2, f1, f2)
CHAIN = ((1, 0, 0, 0), (0, 0, 1, 0), (-1, 1, 0, 0), (0, 0, 0, 1),
         (0, 1, 0, 0))
W1 = (0, 1) * 30  # (T1 T2)^30, as indices into CHAIN
W2 = (0, 1, 2, 3, 4) * 12  # ((T1 ... T5)^6)^2


def transvection(c) -> IntMatrix:
    """T_c = I + c c^T J, so that T_c x = x + omega(c, x) c."""
    col = IntMatrix([[x] for x in c])
    return IntMatrix.identity(2 * G) + col @ col.transpose() @ j_matrix(G, -1)


T = tuple(transvection(c) for c in CHAIN)


@cache
def conjugator(i: int, k: int) -> IntMatrix:
    """A product z of the T_c^{+-1} with z c_i = +-c_k, so that
    z T_i z^-1 = T_k; breadth-first over vectors with entries at most 3."""
    steps = [m for t in T for m in (t, sp_inverse(t, G))]
    seen = {CHAIN[i]: IntMatrix.identity(2 * G)}
    queue = deque([CHAIN[i]])
    while queue:
        v = queue.popleft()
        if v in (CHAIN[k], tuple(-x for x in CHAIN[k])):
            return seen[v]
        for step in steps:
            w = tuple(step.mult_vec(list(v)))
            if w not in seen and max(map(abs, w)) <= 3:
                seen[w] = step @ seen[v]
                queue.append(w)
    raise AssertionError(f"no conjugator from c{i + 1} to c{k + 1}")


def nonzero_class() -> SurfaceClass:
    """The pairs (Y x_i Y^-1, Y z_i Y^-1) with Y = y_1 ... y_{i-1}; the
    i-th commutator is Y x_i y_i^-1 Y^-1, so the product telescopes to
    W1 W2^-1 = I."""
    pairs, y = [], IntMatrix.identity(2 * G)
    for i, k in zip(W1, W2):
        yinv = sp_inverse(y, G)
        pairs.append((y @ T[i] @ yinv, y @ conjugator(i, k) @ yinv))
        y = y @ T[k]
    return SurfaceClass(G, tuple(pairs))


def meyer_sum(word) -> int:
    """sum_k tau(x_1 ... x_{k-1}, x_k) over a word whose product is I."""
    total, prefix = 0, IntMatrix.identity(2 * G)
    for i in word:
        total += meyer_tau(prefix, T[i], G)
        prefix = prefix @ T[i]
    assert prefix == IntMatrix.identity(2 * G)
    return total


def stabilised(m: IntMatrix) -> IntMatrix:
    """m on (e1, e2, f1, f2), extended by the identity on e3 and f3."""
    place = (0, 1, 3, 4)
    out = IntMatrix.identity(6).to_lists()
    for r, row in enumerate(m.data):
        for c, x in enumerate(row):
            out[place[r]][place[c]] = x
    return IntMatrix(out)


@pytest.fixture(scope="module")
def cls() -> SurfaceClass:
    return nonzero_class()


def test_the_class_has_genus_60_and_small_entries(cls):
    assert (cls.g, cls.h) == (2, 60)
    assert max(abs(x) for p in cls.pairs for m in p
               for row in m.data for x in row) <= 4


def test_signature_is_the_difference_of_the_meyer_sums(cls):
    assert (meyer_sum(W1), meyer_sum(W2)) == (40, 36)
    assert signature_of_class(cls) == 4 == meyer_sum(W1) - meyer_sum(W2)


def test_signature_survives_conjugation_and_stabilisation(cls):
    rng = random.Random(12)
    gens = standard_generators(GroupFamily.SP, G)
    for _ in range(3):
        p = random_symplectic(G, rng, gens)
        assert signature_of_class(cls.conjugated(p)) == 4
    big = SurfaceClass(3, tuple((stabilised(a), stabilised(b))
                                for a, b in cls.pairs))
    assert signature_of_class(big) == 4


def test_boundary_refuses_signature_4_at_n_5(cls):
    inv = AlmostClosedInvariants(signature_of_class(cls))
    with pytest.raises(ValueError, match="signature 4 not divisible by 8"):
        boundary_of_plumbing(inv, 5)


def test_example_file_is_the_built_class(cls):
    assert load_class_file(str(EXAMPLE)).pairs == cls.pairs


if __name__ == "__main__":
    EXAMPLE.write_text(json.dumps(nonzero_class().to_json_dict()) + "\n")

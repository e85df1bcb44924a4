"""Classes with nonzero signature, built by one recipe in two genera.

The commutator trick of Endo, Korkmaz, Kotschick, Ozbagci and Stipsicz
(Topology 41, 2002): two words W1 = x_1 ... x_m and W2 = y_1 ... y_m in
the transvections of a chain both multiply to I.  Conjugators z_i with
z_i x_i z_i^-1 = y_i turn W1 W2^-1 into a product of m commutators, and
the signature of that class is the difference of the Meyer sums of the
two words.

- Genus 2, a class in Sp_4(Z): W1 = (T1 T2)^30 and W2 = ((T1 ... T5)^6)^2,
  60 letters each, signature 40 - 36 = 4.
- Genus 3, a class in the theta group: the chain is 7 vectors with q odd,
  so every transvection and conjugator lies in the theta group.
  W1 = (T1 T2)^42 and W2 = (T1 ... T7)^8 (T1 ... T6 T7^2 T6 ... T1)^2,
  84 letters each, signature 56 - 48 = 8, so sgn/8 = 1.

``python tests/test_nonzero_signature.py`` rewrites
``examples/nonzero.json`` from the genus-2 builder.
"""

import json
import random
from collections import deque
from functools import cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

import pytest

from hdmcg.cocycles import (SurfaceClass, divided_eval, load_class_file,
                            meyer_tau, random_symplectic, signature_of_class)
from hdmcg.linalg import IntMatrix
from hdmcg.spheres import (AlmostClosedInvariants, boundary_of_plumbing,
                           theta_data)
from hdmcg.symplectic import (GroupFamily, j_matrix, sp_inverse,
                              standard_generators)

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "nonzero.json"


class Recipe(NamedTuple):
    """A chain of vectors, two words in its transvections (indices into
    the chain) and the entry bound of the conjugator search."""

    g: int
    chain: tuple[tuple[int, ...], ...]
    w1: tuple[int, ...]
    w2: tuple[int, ...]
    bound: int


def omega(g: int, a, b) -> int:
    return sum(x * y for x, y in zip(a, j_matrix(g, -1).mult_vec(list(b))))


def q_odd(g: int, v) -> bool:
    """q(v) = sum x_i y_i is odd, so T_v lies in the theta group."""
    return sum(v[i] * v[g + i] for i in range(g)) % 2 == 1


@cache
def transvections(g: int, chain) -> tuple[IntMatrix, ...]:
    """T_c = I + c c^T J for each c of the chain, so T_c x = x + omega(c, x) c."""
    out = []
    for c in chain:
        col = IntMatrix([[x] for x in c])
        out.append(IntMatrix.identity(2 * g)
                   + col @ col.transpose() @ j_matrix(g, -1))
    return tuple(out)


@cache
def conjugator(recipe: Recipe, i: int, k: int) -> IntMatrix:
    """A product z of the T_c^{+-1} with z c_i = +-c_k, so that
    z T_i z^-1 = T_k; breadth-first over vectors with entries at most
    the recipe's bound."""
    g, chain = recipe.g, recipe.chain
    steps = [m for t in transvections(g, chain) for m in (t, sp_inverse(t, g))]
    seen = {chain[i]: IntMatrix.identity(2 * g)}
    queue = deque([chain[i]])
    while queue:
        v = queue.popleft()
        if v in (chain[k], tuple(-x for x in chain[k])):
            return seen[v]
        for step in steps:
            w = tuple(step.mult_vec(list(v)))
            if w not in seen and max(map(abs, w)) <= recipe.bound:
                seen[w] = step @ seen[v]
                queue.append(w)
    raise AssertionError(f"no conjugator from c{i + 1} to c{k + 1}")


def build_class(recipe: Recipe) -> SurfaceClass:
    """The pairs (Y x_i Y^-1, Y z_i Y^-1) with Y = y_1 ... y_{i-1}; the
    i-th commutator is Y x_i y_i^-1 Y^-1, so the product telescopes to
    W1 W2^-1 = I."""
    g = recipe.g
    t = transvections(g, recipe.chain)
    pairs, y = [], IntMatrix.identity(2 * g)
    for i, k in zip(recipe.w1, recipe.w2):
        yinv = sp_inverse(y, g)
        pairs.append((y @ t[i] @ yinv, y @ conjugator(recipe, i, k) @ yinv))
        y = y @ t[k]
    return SurfaceClass(g, tuple(pairs))


def meyer_sum(recipe: Recipe, word) -> int:
    """sum_k tau(x_1 ... x_{k-1}, x_k) over a word whose product is I."""
    g = recipe.g
    t = transvections(g, recipe.chain)
    total, prefix = 0, IntMatrix.identity(2 * g)
    for i in word:
        total += meyer_tau(prefix, t[i], g)
        prefix = prefix @ t[i]
    assert prefix == IntMatrix.identity(2 * g)
    return total


def q_odd_chain(g: int) -> tuple[tuple[int, ...], ...]:
    """The first chain c_1 ... c_{2g+1} of vectors in {-1, 0, 1}^{2g} with
    q(c) = sum x_i y_i odd, found by backtracking: omega(c_i, c_j) = +-1
    for |i - j| = 1 and 0 otherwise, and the last vector is
    c_1 +- c_3 +- ... +- c_{2g-1}."""
    odd = [v for v in product((-1, 0, 1), repeat=2 * g) if q_odd(g, v)]

    def fits(chain, v) -> bool:
        return (max(map(abs, v)) <= 1 and abs(omega(g, chain[-1], v)) == 1
                and not any(omega(g, c, v) for c in chain[:-1]))

    def extend(chain):
        if len(chain) == 2 * g:
            for signs in product((1, -1), repeat=g - 1):
                last = tuple(a + sum(s * x for s, x in zip(signs, rest))
                             for a, *rest in zip(*chain[0::2]))
                if fits(chain, last):
                    return chain + (last,)
            return None
        for v in odd:
            if not chain or fits(chain, v):
                found = extend(chain + (v,))
                if found:
                    return found
        return None
    return extend(())


# the chain e1, f1, e2 - e1, f2, e2 in the coordinates (e1, e2, f1, f2)
GENUS_2 = Recipe(2, ((1, 0, 0, 0), (0, 0, 1, 0), (-1, 1, 0, 0), (0, 0, 0, 1),
                     (0, 1, 0, 0)),
                 w1=(0, 1) * 30,  # (T1 T2)^30
                 w2=(0, 1, 2, 3, 4) * 12,  # ((T1 ... T5)^6)^2
                 bound=3)
G = GENUS_2.g
W1, W2 = GENUS_2.w1, GENUS_2.w2
UP = (0, 1, 2, 3, 4, 5)  # T1 ... T6


def nonzero_class() -> SurfaceClass:
    """The genus-2 class of signature 4."""
    return build_class(GENUS_2)


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


@pytest.fixture(scope="module")
def theta_recipe() -> Recipe:
    return Recipe(3, q_odd_chain(3),
                  w1=(0, 1) * 42,  # (T1 T2)^42
                  # (T1 ... T7)^8 (T1 ... T6 T7^2 T6 ... T1)^2
                  w2=(*UP, 6) * 8 + (*UP, 6, 6, *UP[::-1]) * 2,
                  bound=2)


@pytest.fixture(scope="module")
def theta_cls(theta_recipe) -> SurfaceClass:
    return build_class(theta_recipe)


def test_the_class_has_genus_60_and_small_entries(cls):
    assert (cls.g, cls.h) == (2, 60)
    assert max(abs(x) for p in cls.pairs for m in p
               for row in m.data for x in row) <= 4


def test_signature_is_the_difference_of_the_meyer_sums(cls):
    s1, s2 = meyer_sum(GENUS_2, W1), meyer_sum(GENUS_2, W2)
    assert (s1, s2) == (40, 36)
    assert signature_of_class(cls) == 4 == s1 - s2


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


def test_the_theta_group_class_has_genus_84(theta_recipe, theta_cls):
    assert all(q_odd(3, c) for c in theta_recipe.chain)
    assert len(theta_recipe.w1) == len(theta_recipe.w2) == 84
    assert (theta_cls.g, theta_cls.h) == (3, 84)
    assert theta_cls.all_in_theta_group()


def test_theta_group_signature_is_8(theta_recipe, theta_cls):
    s1 = meyer_sum(theta_recipe, theta_recipe.w1)
    s2 = meyer_sum(theta_recipe, theta_recipe.w2)
    assert (s1, s2) == (56, 48)
    assert signature_of_class(theta_cls) == 8 == s1 - s2


def test_theta_group_signature_survives_conjugation(theta_cls):
    rng = random.Random(13)
    p = random_symplectic(3, rng, standard_generators(GroupFamily.SP, 3))
    assert signature_of_class(theta_cls.conjugated(p)) == 8


def test_theta_group_class_gives_sgn_over_8_equal_1(theta_cls):
    assert divided_eval("sgn/8", theta_cls) == 1
    inv = AlmostClosedInvariants(signature_of_class(theta_cls))
    assert boundary_of_plumbing(inv, 5) == theta_data(5).sigma_p


if __name__ == "__main__":
    EXAMPLE.write_text(json.dumps(nonzero_class().to_json_dict()) + "\n")

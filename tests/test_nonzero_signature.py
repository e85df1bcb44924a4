"""Classes with nonzero signature, built by one recipe in two genera, and
the same recipe's genus-1 classes, whose signature must be 0.

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
- Genus 1, classes in Sp_2(Z): (T1 T2)^6 against (T1 T2 T1)^4, and
  (T2 T1)^6 against (T2 T1 T2)^4, 12 letters each, signature 8 - 8 = 0,
  as H_2(Sp_2(Z); Q) = 0 (Meyer 1973) requires.

``python tests/test_nonzero_signature.py`` rewrites
``examples/nonzero.json`` from the genus-2 builder and
``examples/theta_nonzero.json`` from the genus-3 one.

Each class is also a witness for the two routes to a signature: the
Maslov route of ``signature_of_class`` and Meyer's tau summed over the
canonical 2-cycle must agree, and their common sign is pinned by the
classes of signature +-4 and +-8.
"""

import json
import random
from collections import deque
from functools import cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

import pytest

from hdmcg import cocycles
from hdmcg.cocycles import (SurfaceClass, divided_eval, load_class_file,
                            meyer_tau, random_surface_class,
                            random_symplectic, signature_of_class,
                            surface_two_cycle)
from hdmcg.linalg import IntMatrix
from hdmcg.spheres import (AlmostClosedInvariants, boundary_of_plumbing,
                           theta_data)
from hdmcg.symplectic import (GroupFamily, j_matrix, sp_inverse,
                              standard_generators)

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
EXAMPLE = EXAMPLES / "nonzero.json"
THETA_EXAMPLE = EXAMPLES / "theta_nonzero.json"


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


def stabilised_class(c: SurfaceClass) -> SurfaceClass:
    """A genus-2 class carried to genus 3 by ``stabilised``."""
    return SurfaceClass(3, tuple((stabilised(a), stabilised(b))
                                 for a, b in c.pairs))


@cache
def genus_3_theta_recipe() -> Recipe:
    return Recipe(3, q_odd_chain(3),
                  w1=(0, 1) * 42,  # (T1 T2)^42
                  # (T1 ... T7)^8 (T1 ... T6 T7^2 T6 ... T1)^2
                  w2=(*UP, 6) * 8 + (*UP, 6, 6, *UP[::-1]) * 2,
                  bound=2)


def meyer_route(c: SurfaceClass) -> int:
    """The signature as Meyer's tau summed over the canonical 2-cycle."""
    t = c.table
    return sum(k * meyer_tau(t[i], t[j], c.g)
               for i, j, k in surface_two_cycle(c))


@pytest.fixture(scope="module")
def cls() -> SurfaceClass:
    return nonzero_class()


@pytest.fixture(scope="module")
def theta_recipe() -> Recipe:
    return genus_3_theta_recipe()


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
    assert signature_of_class(stabilised_class(cls)) == 4


def test_boundary_refuses_signature_4_at_n_5(cls):
    inv = AlmostClosedInvariants(signature_of_class(cls))
    with pytest.raises(ValueError, match="signature 4 not divisible by 8"):
        boundary_of_plumbing(inv, 5)


def test_example_file_is_the_built_class(cls):
    assert load_class_file(str(EXAMPLE)).pairs == cls.pairs


def twisted(c: SurfaceClass, rng: random.Random, twists: int) -> SurfaceClass:
    """c after random handle twists (A, B) -> (A, BA) and (A, B) -> (AB, B),
    each of which keeps the commutator [A, B]: the action of Dehn twists on
    Hom(pi_1 Sigma_h, Sp), which keeps the class in H_2."""
    pairs = list(c.pairs)
    for _ in range(twists):
        i = rng.randrange(len(pairs))
        a, b = pairs[i]
        pairs[i] = (a, b @ a) if rng.random() < 0.5 else (a @ b, b)
    return SurfaceClass(c.g, tuple(pairs))


@pytest.fixture(scope="module")
def example() -> SurfaceClass:
    return load_class_file(str(EXAMPLE))


def reversed_class(c: SurfaceClass) -> SurfaceClass:
    """[B_h, A_h] ... [B_1, A_1], the inverse of the relator: the class -c."""
    return SurfaceClass(c.g, tuple((b, a) for a, b in reversed(c.pairs)))


def doubled(c: SurfaceClass) -> SurfaceClass:
    return SurfaceClass(c.g, c.pairs + c.pairs)


# the genus-2 example of signature 4 and the genus-3 theta-group class of 8
BOTH_CLASSES = pytest.mark.parametrize("name, sgn", [("example", 4),
                                                     ("theta_cls", 8)],
                                       ids=["example", "theta_cls"])


@BOTH_CLASSES
def test_handle_twists_keep_the_signature(request, name, sgn):
    c = request.getfixturevalue(name)
    rng = random.Random(21)
    for twists in (1, 10, 40):
        moved = twisted(c, rng, twists)
        assert moved.pairs != c.pairs
        assert signature_of_class(moved) == sgn


@BOTH_CLASSES
def test_reversal_negates_and_doubling_doubles_the_signature(request, name,
                                                             sgn):
    c = request.getfixturevalue(name)
    assert signature_of_class(reversed_class(c)) == -sgn
    twice = doubled(c)
    assert (twice.h, signature_of_class(twice)) == (2 * c.h, 2 * sgn)


def with_null_classes(c: SurfaceClass, family: GroupFamily, seed: int):
    """c with a seeded random class of signature 0 (a product of blocks
    that each factor through a free group) put before it, and another put
    after it: the class c plus two null classes."""
    rng = random.Random(seed)
    gens = standard_generators(family, c.g)
    before, after = (random_surface_class(c.g, h, rng, gens) for h in (2, 3))
    assert signature_of_class(before) == signature_of_class(after) == 0
    return (SurfaceClass(c.g, before.pairs + c.pairs),
            SurfaceClass(c.g, c.pairs + after.pairs),
            SurfaceClass(c.g, before.pairs + c.pairs + after.pairs))


@pytest.mark.parametrize("seed", [31, 32])
def test_concatenating_null_classes_keeps_the_signature(example, seed):
    for joined in with_null_classes(example, GroupFamily.SP, seed):
        assert signature_of_class(joined) == 4


@pytest.mark.parametrize("seed", [33, 34])
def test_theta_group_class_with_null_classes_keeps_sgn_over_8(theta_cls,
                                                              seed):
    for joined in with_null_classes(theta_cls, GroupFamily.SPQ, seed):
        assert joined.all_in_theta_group()
        assert signature_of_class(joined) == 8
        assert divided_eval("sgn/8", joined) == 1


def test_theta_group_class_moves_sgn_over_8_and_its_boundary(theta_cls):
    """Twists keep sgn/8 = 1 and the boundary Sigma_P at n = 5; reversal
    gives -1 and -Sigma_P, doubling 2 and 2 Sigma_P."""
    sigma_p = theta_data(5).sigma_p
    for moved, k in ((twisted(theta_cls, random.Random(22), 10), 1),
                     (reversed_class(theta_cls), -1), (doubled(theta_cls), 2)):
        assert divided_eval("sgn/8", moved) == k
        inv = AlmostClosedInvariants(signature_of_class(moved))
        assert boundary_of_plumbing(inv, 5) == k * sigma_p


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


# H_2(Sp_2(Z); Q) = 0 (Meyer 1973), so every class in genus 1 has
# signature 0: here from the relations (T1 T2)^6 = I against
# (T1 T2 T1)^4 = I, and (T2 T1)^6 = I against (T2 T1 T2)^4 = I, in the
# transvections of e1 and f1
GENUS_1 = (Recipe(1, ((1, 0), (0, 1)), (0, 1) * 6, (0, 1, 0) * 4, 3),
           Recipe(1, ((1, 0), (0, 1)), (1, 0) * 6, (1, 0, 1) * 4, 3))


@pytest.mark.parametrize("recipe", GENUS_1, ids=["T1T2", "T2T1"])
def test_genus_one_classes_have_signature_0(recipe):
    c = build_class(recipe)
    s1, s2 = meyer_sum(recipe, recipe.w1), meyer_sum(recipe, recipe.w2)
    assert (c.g, c.h, s1, s2) == (1, 12, 8, 8)
    assert signature_of_class(c) == 0


def test_theta_example_file_is_the_built_class(theta_cls):
    c = load_class_file(str(THETA_EXAMPLE))
    assert c.pairs == theta_cls.pairs
    assert signature_of_class(c) == 8


@BOTH_CLASSES
def test_maslov_and_meyer_routes_agree_on_the_nonzero_classes(request, name,
                                                              sgn):
    """Both classes and their reversals; the genus-2 class also doubled,
    twisted and stabilised to genus 3."""
    c = request.getfixturevalue(name)
    cases = [(c, sgn), (reversed_class(c), -sgn)]
    if name == "example":
        rng = random.Random(23)
        cases += [(doubled(c), 2 * sgn), (stabilised_class(c), sgn),
                  *((twisted(c, rng, k), sgn) for k in (5, 30))]
    for moved, want in cases:
        assert signature_of_class(moved) == meyer_route(moved) == want


def test_flipping_j_in_the_maslov_term_flips_the_sign(example, monkeypatch):
    """The mutation -J for J in each term: the sign is pinned."""
    real = cocycles.j_matrix
    monkeypatch.setattr(cocycles, "j_matrix", lambda g, eps: -real(g, eps))
    assert signature_of_class(example) == -4


def test_the_maslov_route_calls_neither_tau_nor_an_inverse(example,
                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("called on the class-signature path")

    monkeypatch.setattr(cocycles, "_tau", refuse)
    monkeypatch.setattr(cocycles, "sp_inverse", refuse)
    assert signature_of_class(example) == 4


if __name__ == "__main__":
    for path, recipe in ((EXAMPLE, GENUS_2), (THETA_EXAMPLE,
                                              genus_3_theta_recipe())):
        path.write_text(json.dumps(build_class(recipe).to_json_dict()) + "\n")

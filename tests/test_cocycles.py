import json
import random
from pathlib import Path

import pytest

from hdmcg import cocycles
from hdmcg.cocycles import (SurfaceClass, _fills_relator, _tau,
                            beta_is_symmetric_on_kernel, chi2_of_class,
                            class_from_json_dict, divided_eval, load_class_file,
                            meyer_tau, random_affine_class,
                            random_surface_class, random_symplectic,
                            signature_of_class, surface_two_cycle)
from hdmcg.linalg import IntMatrix
from hdmcg.symplectic import (GroupFamily, j_matrix, sp_inverse,
                              standard_generators)


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SP2 = standard_generators(GroupFamily.SP, 2)
SPQ2 = standard_generators(GroupFamily.SPQ, 2)


def torus_class(g, a, b):
    return SurfaceClass(g, ((a, b),))


def test_class_validation():
    ident = IntMatrix.identity(4)
    # commutator of non-commuting matrices does not close a genus-1 relator
    a, b = SP2[1], SP2[2]
    assert a @ b != b @ a
    with pytest.raises(ValueError, match="commutator relator does not close up"):
        SurfaceClass(2, ((a, b),))
    with pytest.raises(ValueError, match="commutator relator does not close up"):
        SurfaceClass(2, ((a, b), (a, b)))
    with pytest.raises(ValueError, match="not symplectic"):
        SurfaceClass(2, ((ident, IntMatrix.identity(4).scaled(2)),))


def size(cycle):
    return sum(abs(c) for _, _, c in cycle)


def test_two_cycle_shape_and_boundary():
    ident = IntMatrix.identity(2)
    cls = torus_class(1, ident, ident)
    cycle = surface_two_cycle(cls)
    assert size(cycle) == 6
    assert _fills_relator(1, cycle) and cls.table[-2] == cls.table[-1]
    rng = random.Random(0)
    for h in (1, 2, 3):
        cls = random_surface_class(2, h, rng, SP2)
        cycle = surface_two_cycle(cls)
        assert size(cycle) == 8 * h - 2
        # [e] - [relator] on the words, and the relator closes on the table
        assert _fills_relator(h, cycle) and cls.table[-2] == cls.table[-1]


def test_meyer_normalization_and_inverse_vanishing():
    rng = random.Random(1)
    ident = IntMatrix.identity(4)
    for _ in range(100):
        a = random_symplectic(2, rng, SP2)
        assert meyer_tau(ident, a, 2) == 0
        assert meyer_tau(a, ident, 2) == 0
        assert meyer_tau(a, sp_inverse(a, 2), 2) == 0


def test_meyer_rejects_non_symplectic():
    with pytest.raises(ValueError):
        meyer_tau(IntMatrix.identity(4).scaled(2), IntMatrix.identity(4), 2)


def test_meyer_cocycle_identity_sample():
    rng = random.Random(2)
    for g in (2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        for _ in range(60):
            a = random_symplectic(g, rng, gens)
            b = random_symplectic(g, rng, gens)
            c = random_symplectic(g, rng, gens)
            assert (meyer_tau(b, c, g) - meyer_tau(a @ b, c, g)
                    + meyer_tau(a, b @ c, g) - meyer_tau(a, b, g)) == 0


def test_meyer_form_symmetric_on_kernel():
    rng = random.Random(3)
    for _ in range(100):
        a = random_symplectic(2, rng, SP2)
        b = random_symplectic(2, rng, SP2)
        assert beta_is_symmetric_on_kernel(a, b, 2)


def test_meyer_form_asymmetric_on_the_radical_only():
    """A non-symplectic B = diag(1, 0) fixes e_1, so u_1 = (0, e_1) spans a
    kernel column with w = 0; yet beta(u_1, u_2) = 1 for u_2 = (x, e_2),
    while beta(u_2, u_1) = 0.  The check on all of V reports it."""
    a = IntMatrix([[2, 1], [-1, 1]])
    b = IntMatrix([[1, 0], [0, 0]])
    assert not beta_is_symmetric_on_kernel(a, b, 1)
    with pytest.raises(ValueError, match="symmetric"):
        _tau(a, b, 1)


def test_commuting_torus_classes_vanish():
    rng = random.Random(4)
    for _ in range(20):
        a = random_symplectic(2, rng, SP2)
        k = rng.choice([-2, -1, 0, 1, 2])
        b = IntMatrix.identity(4)
        step = a if k >= 0 else sp_inverse(a, 2)
        for _ in range(abs(k)):
            b = b @ step
        assert signature_of_class(torus_class(2, a, b)) == 0


def test_signature_divisibility_and_conjugation():
    rng = random.Random(5)
    for _ in range(40):
        cls = random_surface_class(2, rng.choice([1, 2, 3]), rng, SP2)
        s = signature_of_class(cls)
        assert s % 4 == 0
        qcls = random_surface_class(2, 2, rng, SPQ2)
        assert qcls.all_in_theta_group()
        assert signature_of_class(qcls) % 8 == 0
    for _ in range(10):
        cls = random_surface_class(2, 2, rng, SP2)
        p = random_symplectic(2, rng, SP2)
        assert signature_of_class(cls) == signature_of_class(cls.conjugated(p))


def test_genus_one_symplectic_classes_vanish():
    # the signature functional is zero on every class of the rank-2 group
    rng = random.Random(6)
    gens = standard_generators(GroupFamily.SP, 1)
    for _ in range(25):
        cls = random_surface_class(1, rng.choice([1, 2]), rng, gens)
        assert signature_of_class(cls) == 0


def test_affine_validation():
    ident = IntMatrix.identity(4)
    SurfaceClass(2, ((ident, ident),), (((1, 0, 0, 0), (0, 0, 1, 0)),))
    a = SP2[-1]
    b = SP2[0]
    with pytest.raises(ValueError, match="affine relator does not close up"):
        # non-principal translations on a noncommutative pair break the relator
        SurfaceClass(
            2, ((a, b), (b, a)),
            (((1, 0, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0))))


def test_chi2_torus_generator():
    ident = IntMatrix.identity(2)
    cls = SurfaceClass(1, ((ident, ident),), (((1, 0), (0, 1)),))
    assert abs(chi2_of_class(cls)) == 2
    zero = SurfaceClass(1, ((ident, ident),), (((0, 0), (0, 0)),))
    assert chi2_of_class(zero) == 0


def test_chi2_quadratic_scaling():
    rng = random.Random(7)
    for _ in range(40):
        cls = random_affine_class(2, rng.choice([1, 2, 3]), rng, SP2)
        base = chi2_of_class(cls)
        assert chi2_of_class(cls.scaled_translations(2)) == 4 * base
        t = rng.choice([3, -2, 5])
        assert chi2_of_class(cls.scaled_translations(t)) == t * t * base


def affine_twisted(c: SurfaceClass, rng, twists: int) -> SurfaceClass:
    """c after random affine handle twists, with (v, A)(w, B) = (v + A w,
    AB): ((v, A), (w, B)) -> ((v, A), (w + B v, BA)) or -> ((v + A w, AB),
    (w, B)).  Each keeps the commutator of the pair, as a Dehn twist of
    the handle does, so it keeps the class and both of its pairings."""
    pairs, translations = list(c.pairs), list(c.translations)
    for _ in range(twists):
        i = rng.randrange(len(pairs))
        (a, b), (v, w) = pairs[i], translations[i]
        if rng.random() < 0.5:
            bv = b.mult_vec(v)
            pairs[i] = (a, b @ a)
            translations[i] = (v, tuple(x + y for x, y in zip(w, bv)))
        else:
            aw = a.mult_vec(w)
            pairs[i] = (a @ b, b)
            translations[i] = (tuple(x + y for x, y in zip(v, aw)), w)
    return SurfaceClass(c.g, tuple(pairs), tuple(translations))


def test_affine_handle_twists_keep_chi2_and_the_signature():
    rng = random.Random(31)
    gens = {g: standard_generators(GroupFamily.SP, g) for g in (1, 2)}
    nonzero = 0
    for k in range(60):
        g = 1 + k % 2
        cls = random_affine_class(g, rng.randint(1, 4), rng, gens[g])
        chi2, sgn = chi2_of_class(cls), signature_of_class(cls)
        moved = affine_twisted(cls, rng, 10)
        assert (chi2_of_class(moved), signature_of_class(moved)) \
            == (chi2, sgn), (k, cls)
        nonzero += chi2 != 0
    assert nonzero >= 40  # the witness is not read on zeros alone


def test_divided_eval():
    ident = IntMatrix.identity(2)
    torus = SurfaceClass(1, ((ident, ident),), (((1, 0), (0, 1)),))
    assert abs(divided_eval("chi2/2", torus)) == 1
    # (chi2 - sgn)/8 on the undoubled torus generator fails loudly
    with pytest.raises(ValueError, match="not divisible by 8"):
        divided_eval("(chi2-sgn)/8", torus)
    assert abs(divided_eval("(chi2-sgn)/8", torus.scaled_translations(2))) == 1
    # sgn/8 requires theta-group holonomies
    rng = random.Random(8)
    qcls = random_surface_class(2, 2, rng, SPQ2)
    assert divided_eval("sgn/8", qcls) == signature_of_class(qcls) // 8
    t_mat = SP2[-1]  # the unipotent that fails q-preservation
    bad = SurfaceClass(2, ((t_mat, t_mat),))
    assert not bad.all_in_theta_group()
    with pytest.raises(ValueError, match="theta group"):
        divided_eval("sgn/8", bad)
    with pytest.raises(ValueError, match="unknown functional"):
        divided_eval("sgn/4", torus)


@pytest.mark.parametrize("which", ["sgn", "chi2", "sgn/4", "chi2/2 "])
def test_an_unknown_functional_is_refused_before_any_pairing(monkeypatch,
                                                            which):
    def no_pairing(cls):
        raise AssertionError("a pairing was computed")

    for name in ("signature_of_class", "chi2_of_class"):
        monkeypatch.setattr(cocycles, name, no_pairing)
    with pytest.raises(ValueError, match="unknown functional"):
        divided_eval(which, load_class_file(EXAMPLES / "theta_nonzero.json"))


def test_divided_eval_doubled_genus_one_classes():
    rng = random.Random(9)
    gens = standard_generators(GroupFamily.SP, 1)
    for _ in range(25):
        cls = random_affine_class(1, 2, rng, gens).scaled_translations(2)
        value = divided_eval("(chi2-sgn)/8", cls)
        assert 8 * value == chi2_of_class(cls) - signature_of_class(cls)


def test_class_json_round_trip(tmp_path):
    rng = random.Random(10)
    cls = random_affine_class(2, 2, rng, SP2)
    blob = cls.to_json_dict()
    again = class_from_json_dict(json.loads(json.dumps(blob)))
    assert again == cls and hash(again) == hash(cls)
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(blob))
    assert load_class_file(str(path)) == cls
    plain = class_from_json_dict(SurfaceClass(2, cls.pairs).to_json_dict())
    assert plain.translations is None and plain.table == cls.table


def same_class(x, y):
    """Equal as classes, and equal in everything the relator walk kept."""
    return x == y and (x.table, x.vectors) == (y.table, y.vectors)


@pytest.mark.parametrize("bad", [0.5, 1.5, 2.0, True])
def test_non_integer_translation_data_is_refused(bad):
    ident = IntMatrix.identity(2)
    torus = SurfaceClass(1, ((ident, ident),), (((1, 0), (0, 1)),))
    with pytest.raises(ValueError, match="scale factor must be an integer"):
        torus.scaled_translations(bad)
    with pytest.raises(ValueError, match="translation vectors"):
        SurfaceClass(1, ((ident, ident),), (((bad, 0), (0, 1)),))


def test_translation_functionals_refuse_a_class_without_translations():
    plain = torus_class(1, IntMatrix.identity(2), IntMatrix.identity(2))
    with pytest.raises(ValueError, match="translation"):
        chi2_of_class(plain)
    with pytest.raises(ValueError, match="translation"):
        plain.scaled_translations(2)


def test_conjugation_checks_only_the_conjugator():
    cls = random_surface_class(2, 2, random.Random(20), SP2)
    with pytest.raises(ValueError, match="not symplectic"):
        cls.conjugated(IntMatrix.identity(4).scaled(2))


def test_unchecked_constructors_match_the_validated_one(monkeypatch):
    """Conjugation checks only p (one is_member call) and scaling checks
    nothing, yet both give the class the validated constructor gives."""
    import hdmcg.cocycles
    is_member, calls = hdmcg.cocycles.is_member, []

    def counted(*args):
        calls.append(args)
        return is_member(*args)

    def count(make):
        calls.clear()
        monkeypatch.setattr(hdmcg.cocycles, "is_member", counted)
        made = make()
        monkeypatch.setattr(hdmcg.cocycles, "is_member", is_member)
        return made, len(calls)

    rng = random.Random(21)
    for g in (1, 2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        for h in (1, 2, 3):
            p = random_symplectic(g, rng, gens)
            pinv = sp_inverse(p, g)
            aff = random_affine_class(g, h, rng, gens)
            for cls in (random_surface_class(g, h, rng, gens), aff):
                conj, n = count(lambda: cls.conjugated(p))
                assert n == 1
                tr = None if cls.translations is None else tuple(
                    (tuple(p.mult_vec(v)), tuple(p.mult_vec(w)))
                    for v, w in cls.translations)
                assert same_class(conj, SurfaceClass(
                    g, tuple((p @ a @ pinv, p @ b @ pinv)
                             for a, b in cls.pairs), tr))
            t = rng.choice([-3, -1, 0, 2, 5])
            scaled, n = count(lambda: aff.scaled_translations(t))
            assert n == 0
            assert same_class(scaled, SurfaceClass(g, aff.pairs, tuple(
                (tuple(t * x for x in v), tuple(t * x for x in w))
                for v, w in aff.translations)))


def bar_boundary(terms, mul):
    """sum(coeff * ([b] - [ab] + [a])) with the group's own product."""
    chain = {}
    for a, b, c in terms:
        for x, s in ((b, c), (mul(a, b), -c), (a, c)):
            chain[x] = chain.get(x, 0) + s
    return {x: c for x, c in chain.items() if c}


def affine_product(x, y):
    (v, a), (w, b) = x, y
    return tuple(p + q for p, q in zip(v, a.mult_vec(w))), a @ b


def test_two_cycle_boundary_vanishes_under_the_group_product():
    rng = random.Random(22)
    for g in (1, 2, 3):
        gens = standard_generators(GroupFamily.SP, g)
        for h in range(1, 7):
            for cls, mul in ((random_surface_class(g, h, rng, gens),
                              lambda x, y: x @ y),
                             (random_affine_class(g, h, rng, gens),
                              affine_product)):
                cycle = surface_two_cycle(cls)
                el = cls.table if cls.vectors is None else tuple(
                    zip(cls.vectors, cls.table))
                assert size(cycle) == 8 * h - 2
                assert bar_boundary([(el[i], el[j], c) for i, j, c in cycle],
                                    mul) == {}


def test_word_level_check_rejects_a_broken_filling():
    rng = random.Random(23)
    for h in (1, 2, 3):
        terms = surface_two_cycle(random_affine_class(2, h, rng, SP2))
        assert _fills_relator(h, terms)
        for k in range(len(terms)):
            assert not _fills_relator(h, terms[:k] + terms[k + 1:])
        i, j, c = terms[-1]
        assert not _fills_relator(h, terms[:-1] + ((i, j, c + 1),))


def test_class_signature_routes_agree_on_seeded_classes():
    """The Maslov route of ``signature_of_class`` against Meyer's tau summed
    over the 2-cycle, at g = 1..4 in Sp and the theta group."""
    rng = random.Random(2030)
    for i in range(160):
        g = 1 + i % 4
        fam = (GroupFamily.SP, GroupFamily.SPQ)[(i // 4) % 2]
        cls = random_surface_class(g, rng.choice([1, 2, 3]), rng,
                                   standard_generators(fam, g))
        t = cls.table
        assert signature_of_class(cls) == sum(
            c * meyer_tau(t[a], t[b], g) for a, b, c in surface_two_cycle(cls))


def test_a_prefix_that_is_not_lagrangian_is_refused():
    """Past the class's validation, a prefix whose first columns e1 + f1
    and e2 + f1 pair to 1 makes the Gram of its term asymmetric."""
    ident, j = IntMatrix.identity(4), j_matrix(2, -1)
    p0 = IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 0, 1]])
    cls = SurfaceClass._trusted(
        g=2, pairs=((j, j),), translations=None,
        table=(j, j, j, j, p0, j, ident, ident, ident), vectors=None)
    with pytest.raises(ValueError, match="symmetric"):
        signature_of_class(cls)

import json
import random

import pytest

from hdmcg.cocycles import (AffineSurfaceClass, SurfaceClass,
                            beta_is_symmetric_on_kernel, chi2_of_class,
                            class_from_json_dict, divided_eval, load_class_file,
                            meyer_tau, random_affine_class,
                            random_surface_class, random_symplectic,
                            signature_of_class, surface_two_cycle)
from hdmcg.linalg import IntMatrix
from hdmcg.symplectic import GroupFamily, sp_inverse, standard_generators


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


def test_two_cycle_shape_and_boundary():
    ident = IntMatrix.identity(2)
    cls = torus_class(1, ident, ident)
    cycle = surface_two_cycle(cls)
    assert cycle.size == 6
    assert cycle.boundary_is_zero()
    rng = random.Random(0)
    for h in (1, 2, 3):
        cls = random_surface_class(2, h, rng, SP2)
        cycle = surface_two_cycle(cls)
        assert cycle.size == 8 * h - 2
        assert cycle.boundary_is_zero()


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
    AffineSurfaceClass(2, ((ident, ident),), (((1, 0, 0, 0), (0, 0, 1, 0)),))
    a = SP2[-1]
    b = SP2[0]
    with pytest.raises(ValueError, match="affine relator does not close up"):
        # non-principal translations on a noncommutative pair break the relator
        AffineSurfaceClass(
            2, ((a, b), (b, a)),
            (((1, 0, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0))))


def test_chi2_torus_generator():
    ident = IntMatrix.identity(2)
    cls = AffineSurfaceClass(1, ((ident, ident),), (((1, 0), (0, 1)),))
    assert abs(chi2_of_class(cls)) == 2
    zero = AffineSurfaceClass(1, ((ident, ident),), (((0, 0), (0, 0)),))
    assert chi2_of_class(zero) == 0


def test_chi2_quadratic_scaling():
    rng = random.Random(7)
    for _ in range(40):
        cls = random_affine_class(2, rng.choice([1, 2, 3]), rng, SP2)
        base = chi2_of_class(cls)
        assert chi2_of_class(cls.scaled_translations(2)) == 4 * base
        t = rng.choice([3, -2, 5])
        assert chi2_of_class(cls.scaled_translations(t)) == t * t * base


def test_divided_eval():
    ident = IntMatrix.identity(2)
    torus = AffineSurfaceClass(1, ((ident, ident),), (((1, 0), (0, 1)),))
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


def test_divided_eval_doubled_genus_one_classes():
    rng = random.Random(9)
    gens = standard_generators(GroupFamily.SP, 1)
    for _ in range(25):
        cls = random_affine_class(1, 2, rng, gens, even_translations=True)
        value = divided_eval("(chi2-sgn)/8", cls)
        assert 8 * value == chi2_of_class(cls) - signature_of_class(cls)


def test_class_json_round_trip(tmp_path):
    rng = random.Random(10)
    cls = random_affine_class(2, 2, rng, SP2)
    blob = cls.to_json_dict()
    again = class_from_json_dict(json.loads(json.dumps(blob)))
    assert again == cls
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(blob))
    assert load_class_file(str(path)) == cls
    plain = class_from_json_dict(cls.matrix_class().to_json_dict())
    assert isinstance(plain, SurfaceClass)

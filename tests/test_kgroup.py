import random
from fractions import Fraction as F

import pytest

from twistdet import (
    FLAVORS,
    AugmentationNotOne,
    CycLogVector,
    FlavorViolated,
    NeedsTrace,
    NotInvertible,
    SeriesRing,
    c_generator,
    commutator_as_c_generator,
    coset_probably_equal,
    cyc_log,
    dieudonne_det,
    endo_class_invariant,
    parse_series,
    render_series,
    vaserstein_transform,
)
from twistdet.kgroup import least_rotation
from twistdet.randgen import (
    random_fiber_one,
    random_flavor_pair,
    random_kernel_matrix,
    random_unit,
)

from conftest import one_letter


def two_letter(coeff, order):
    return SeriesRing(coeff, alphabet=("x", "y"), order=order)


# -- C generators ------------------------------------------------------------

def test_c_generator_default_flavor(qq):
    R = SeriesRing(qq, order=3)
    x = R.letter("x")
    g = c_generator(x, x)
    # (1+x^2)*(1+x^2)^-1 with both kernels equal: the generator is 1
    assert g.is_one()


def test_c_generator_degree_one_term(free_yz):
    # the commutator of coefficients survives at degree 1: (yz-zy)x
    R = one_letter(free_yz, 2)
    a = R.lift(free_yz.parse_element_literal("y"))
    b = R.from_terms([("x", free_yz.parse_element_literal("z"))])
    g = c_generator(a, b, flavor="ba_in_kernel")
    assert g.coefficient("x") == free_yz.parse_element_literal("yz-zy")
    assert g.coefficient(()) == free_yz.one


def test_flavor_conditions_enforced(qq):
    R = SeriesRing(qq, order=3)
    x = R.letter("x")
    u = R.one() + x
    with pytest.raises(FlavorViolated):
        c_generator(u, x, flavor="a_in_kernel")
    with pytest.raises(FlavorViolated):
        c_generator(u, R.one(), flavor="ab_ba_in_kernel")
    with pytest.raises(FlavorViolated):
        c_generator(R.one(), u, flavor="ba_in_kernel")
    with pytest.raises(FlavorViolated):
        c_generator(x, x, flavor="b_unit")
    with pytest.raises(FlavorViolated):
        c_generator(x, x, flavor="no_such_flavor")


def test_fiber_violation_rejected(m2):
    # eps(ab) != eps(ba) would leave the augmentation fiber
    R = one_letter(m2, 2)
    e12 = R.lift(m2.parse_element_literal("0,1;0,0"))
    e21 = R.lift(m2.parse_element_literal("0,0;1,0"))
    with pytest.raises(FlavorViolated):
        c_generator(e12, e21, flavor="one_plus_ba_unit")


def test_not_invertible_rejected(qq):
    R = SeriesRing(qq, order=3)
    a = R.lift(F(1))
    b = R.lift(F(-1))
    # 1+ba = 0
    with pytest.raises(NotInvertible):
        c_generator(a, b, flavor="b_unit")


def test_random_generators_land_in_fiber(free_yz, m2):
    rng = random.Random(41)
    for coeff in (free_yz, m2):
        R = two_letter(coeff, 3)
        for flavor in FLAVORS:
            for _ in range(5):
                a, b = random_flavor_pair(R, rng, flavor)
                g = c_generator(a, b, flavor=flavor)
                assert g.augmentation() == coeff.one
                assert g * (R.one() + b * a) == R.one() + a * b


# -- vaserstein --------------------------------------------------------------

def test_vaserstein_frozen(qq):
    R = SeriesRing(qq, order=4)
    x = R.letter("x")
    c = R.lift(F(2))
    b2, ok = vaserstein_transform(x, x, c)
    assert ok
    # b' = b + c + bac = x + 2 + 2x^2
    assert b2 == x + c + (x * x).scale(F(2))


def test_vaserstein_needs_commuting_c(m2):
    R = one_letter(m2, 3)
    a = R.lift(m2.parse_element_literal("0,1;0,0"))
    c = R.lift(m2.parse_element_literal("0,0;1,0"))
    with pytest.raises(Exception) as exc:
        vaserstein_transform(a, R.letter("x"), c)
    assert type(exc.value).__name__ == "CommutationFailed"


def test_vaserstein_random(qq, qc4, free_yz):
    rng = random.Random(42)
    for coeff in (qq, qc4, free_yz):
        R = two_letter(coeff, 3)
        for _ in range(8):
            a = random_unit(R, rng)
            b = random_unit(R, rng)
            c = R.lift(coeff.random_central(rng))
            try:
                _, ok = vaserstein_transform(a, b, c)
            except NotInvertible:
                continue
            assert ok


# -- commutators -------------------------------------------------------------

def test_commutator_realization(m2, free_yz):
    rng = random.Random(43)
    for coeff in (m2, free_yz):
        R = two_letter(coeff, 3)
        for _ in range(6):
            alpha = random_unit(R, rng)
            beta = random_fiber_one(R, rng)
            a, b = commutator_as_c_generator(alpha, beta)
            assert R.one() + a * b == alpha * beta * alpha.inverse()
            assert R.one() + b * a == beta


# -- cyc_log -----------------------------------------------------------------

def test_least_rotation():
    assert least_rotation((1, 0)) == 1
    assert least_rotation((0, 1)) == 0
    # periodic word: smallest rotation index wins
    assert least_rotation((0, 1, 0, 1)) == 0
    assert least_rotation((1, 0, 1, 0)) == 1
    assert least_rotation(()) == 0


def test_cyc_log_frozen(qq):
    R = SeriesRing(qq, order=3)
    v = cyc_log(R.one() + R.letter("x"))
    assert v.entries == {("1", "x"): F(1), ("1", "xx"): F(-1, 2),
                         ("1", "xxx"): F(1, 3)}


def test_cyc_log_buckets_rotations_together(qq):
    R = two_letter(qq, 4)
    x, y = R.letter("x"), R.letter("y")
    assert cyc_log(R.one() + x * y) == cyc_log(R.one() + y * x)


def test_cyc_log_requires_fiber_and_trace(qq, z6):
    R = SeriesRing(qq, order=3)
    with pytest.raises(AugmentationNotOne):
        cyc_log(R.lift(F(2)) + R.letter("x"))
    Rz = SeriesRing(z6, order=2)
    with pytest.raises(NeedsTrace):
        cyc_log(Rz.one() + Rz.letter("x"))


def test_cyc_log_additive(free_yz, m2):
    rng = random.Random(44)
    for coeff in (free_yz, m2):
        R = two_letter(coeff, 4)
        for _ in range(6):
            u = random_fiber_one(R, rng)
            v = random_fiber_one(R, rng)
            assert cyc_log(u * v) == cyc_log(u) + cyc_log(v)


def test_cyc_log_kills_generators(free_yz, m2):
    rng = random.Random(45)
    for coeff in (free_yz, m2):
        R = two_letter(coeff, 4)
        for flavor in FLAVORS:
            for _ in range(5):
                a, b = random_flavor_pair(R, rng, flavor)
                assert cyc_log(c_generator(a, b, flavor=flavor)).is_zero()


def test_cyc_log_vector_algebra():
    v = CycLogVector(3, {("1", "x"): F(1)})
    w = CycLogVector(3, {("1", "x"): F(-1), ("1", "xx"): F(2)})
    assert (v + w).entries == {("1", "xx"): F(2)}
    assert (v - v).is_zero()
    assert v.sorted_items() == [(("1", "x"), F(1))]


def test_det_multiplicative_mod_c(free_yz):
    rng = random.Random(46)
    R = two_letter(free_yz, 3)
    from twistdet.randgen import random_unipotent_matrix
    for _ in range(4):
        m = random_unipotent_matrix(R, rng, 2)
        n = random_unipotent_matrix(R, rng, 2)
        lhs = cyc_log(dieudonne_det(m * n))
        rhs = cyc_log(dieudonne_det(m)) + cyc_log(dieudonne_det(n))
        assert lhs == rhs


def test_det_cyclic_symmetry(m2):
    rng = random.Random(47)
    R = one_letter(m2, 3)
    from twistdet import SeriesMatrix
    for n, k in ((2, 2), (2, 1), (3, 2)):
        for _ in range(4):
            a = random_kernel_matrix(R, rng, n, k)
            b = random_kernel_matrix(R, rng, k, n)
            lhs = cyc_log(dieudonne_det(SeriesMatrix.identity(R, n) + a * b))
            rhs = cyc_log(dieudonne_det(SeriesMatrix.identity(R, k) + b * a))
            assert lhs == rhs


# -- cosets ------------------------------------------------------------------

def test_coset_verdicts(free_yz):
    R = one_letter(free_yz, 3)
    rng = random.Random(48)
    u = random_fiber_one(R, rng)
    a, b = random_flavor_pair(R, rng, "ab_ba_in_kernel")
    g = c_generator(a, b)
    assert coset_probably_equal(u, u * g) == "indistinguishable"
    x = R.from_terms([("x", free_yz.one)])
    assert coset_probably_equal(R.one() + x, R.one()) == "distinct"


def test_coset_refuses_twisted_rings(qc4):
    # g lies in C, but the plain-trace cyc_log does not vanish on it, so a
    # verdict against 1 would be a false "distinct"
    R = one_letter(qc4, 2, twist="inv")
    a = parse_series('[g1-3*g3]*w("x")+[-3*g1-2*g2]*w("xx")', R)
    b = parse_series('[3*g0]+[-2*g1+3*g2+3*g3]*w("x")+[-2*g3]*w("xx")', R)
    g = c_generator(a, b)
    assert render_series(g) == '1+[-12*g1+12*g3]*w("xx")'
    with pytest.raises(NeedsTrace):
        coset_probably_equal(g, R.one())


# -- endomorphism invariants ---------------------------------------------------

def test_endo_invariant_frozen(qq):
    def poly(s):
        return {len(w): c for w, c in s.terms.items()}
    # nilpotent: invariant collapses to 1
    assert endo_class_invariant(qq, [[F(0), F(1)], [F(0), F(0)]], 4).is_one()
    # scalar 2: 1-2x
    assert poly(endo_class_invariant(qq, [[F(2)]], 3)) == {0: F(1), 1: F(-2)}
    # swap matrix: det(1 - ax) = 1 - x^2
    assert poly(endo_class_invariant(qq, [[F(0), F(1)], [F(1), F(0)]], 4)) \
        == {0: F(1), 2: F(-1)}

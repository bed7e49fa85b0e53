import random
from fractions import Fraction as F

import pytest

from twistdet import (
    FLAVORS,
    AugmentationNotOne,
    CGenerator,
    CycLogVector,
    FlavorViolated,
    IntegersMod,
    NeedsTrace,
    NotInvertible,
    RingMismatch,
    SeriesRing,
    c_generator,
    commutator_as_c_generator,
    coset_probably_equal,
    cyc_log,
    endo_class_invariant,
    formal_log,
    parse_series,
    render_series,
    vaserstein_transform,
)
from twistdet.kgroup import least_rotation
from twistdet.novikov import OrbitCountReport
from twistdet.randgen import random_fiber_one, random_flavor_pair
from twistdet.rings import RationalField, sum_by_key
from twistdet.selftest import free_yz as make_free_yz
from twistdet.selftest import m2_nonintegral, m2_swap, m3_cyclic, qc4_inv, qs3_conj

from conftest import assert_folded, one_letter, two_letter


# -- result records ------------------------------------------------------------

def test_records_compare_by_field_and_repr_every_field():
    v = CycLogVector(3, {("1", "x"): F(1, 2), ("1", "xx"): F(0)})
    assert repr(v) == "CycLogVector(order=3, entries={('1', 'x'): Fraction(1, 2)})"
    assert v == CycLogVector(3, {("1", "x"): F(1, 2)}) != CycLogVector(4, v.entries)
    r = OrbitCountReport(2, "C4", "inv", False, {(1, "g0"): F(1), (2, "g1"): F(0)})
    assert repr(r) == ("OrbitCountReport(order=2, group_name='C4', twist_name='inv', "
                       "lefschetz=False, entries={(1, 'g0'): Fraction(1, 1)})")
    assert r == OrbitCountReport(2, "C4", "inv", False, {(1, "g0"): F(1)})
    assert r != OrbitCountReport(2, "C4", "inv", True, {(1, "g0"): F(1)})
    # a record of another class is not equal, whatever its fields
    assert v.__eq__(r) is NotImplemented and v != r
    with pytest.raises(TypeError):
        hash(v)


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
    with pytest.raises(RingMismatch, match="different series rings"):
        CGenerator(x, SeriesRing(qq, order=2).letter("x"))
    g = CGenerator(a=x, b=x)
    assert g == CGenerator(x, R.letter("x"), "ab_ba_in_kernel")
    assert g != CGenerator(x, x, "ba_in_kernel")
    with pytest.raises(TypeError):
        hash(g)


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



def test_each_unit_is_eliminated_once(m2, eliminations):
    # the check that 1+ba is a unit is its inversion, which the generator
    # then uses: one fraction-free elimination, not a unit test and then an
    # inverse; the inverse is no field of the record
    R = one_letter(m2, 3, twist="swap")
    x = R.letter("x")
    b = R.lift(m2.parse_element_literal("1,2;3,4")) + x
    g = c_generator(x, b, "a_in_kernel")
    assert len(eliminations) == 1
    record = CGenerator(x, b, "a_in_kernel")
    assert record.element() == g and record == CGenerator(x, b, "a_in_kernel")
    assert "_ba_inverse" not in repr(record)
    minus_one = R.lift(m2.parse_element_literal("-1,0;0,-1"))
    with pytest.raises(NotInvertible, match=r"^1 \+ ba is not invertible$"):
        c_generator(R.one(), minus_one, "b_unit")
    with pytest.raises(NotInvertible, match=r"^1 \+ ba is not invertible$"):
        vaserstein_transform(R.one(), minus_one, R.zero())
    with pytest.raises(NotInvertible, match=r"^beta is not a unit$"):
        commutator_as_c_generator(R.one(), x)

def test_random_generators_land_in_fiber(free_yz, m2):
    assert_folded("annihilation", [two_letter(free_yz, 3), two_letter(m2, 3)], 5,
                  shapes=[(flavor,) for flavor in FLAVORS])


# -- vaserstein --------------------------------------------------------------

def test_vaserstein_frozen(qq):
    R = SeriesRing(qq, order=4)
    x = R.letter("x")
    c = R.lift(F(2))
    b2, ok = vaserstein_transform(x, x, c)
    assert ok
    # b' = b + c + bac = x + 2 + 2x^2
    assert b2 == x + c + (x * x).scale(F(2))


def test_vaserstein_computes_ac_once(kernel_calls, qq):
    R = SeriesRing(qq, order=4)
    x, c = R.letter("x"), R.lift(F(2))
    vaserstein_transform(x, x, c)
    # nine products: a*c and c*a (the commutation test), b*a, b*ac, b'*a,
    # a*b, a*b' and the two with the inverses; and per inverse one product
    # and one solve pass
    assert [tag for tag, _ in kernel_calls].count("product") == 11
    assert [tag for tag, _ in kernel_calls].count("solve") == 2
    assert sum(sums == [[(x, c)]] for tag, sums in kernel_calls if tag == "product") == 1


def test_vaserstein_needs_commuting_c(m2):
    R = one_letter(m2, 3)
    a = R.lift(m2.parse_element_literal("0,1;0,0"))
    c = R.lift(m2.parse_element_literal("0,0;1,0"))
    with pytest.raises(Exception) as exc:
        vaserstein_transform(a, R.letter("x"), c)
    assert type(exc.value).__name__ == "CommutationFailed"


def test_vaserstein_random(qq, qc4, free_yz):
    assert_folded("vaserstein", [two_letter(c, 3) for c in (qq, qc4, free_yz)], 8,
                  shapes=[("unit",)])


# -- commutators -------------------------------------------------------------

def test_commutator_realization(m2, free_yz):
    assert_folded("commutator-inclusion", [two_letter(m2, 3), two_letter(free_yz, 3)], 6,
                  shapes=[(True,)])


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


# -- the integer trace against the value trace ---------------------------------------
# The reference is the bucket code from before the trace moved to the integer
# view: each moved log coefficient is rebuilt into a value and traced there.

def ref_value_trace(A, a) -> dict:
    if A.kind == "rational":
        return {} if a == 0 else {"1": F(a)}
    if A.kind == "matrix":
        t = sum((a[i][i] for i in range(A.size)), F(0))
        return {} if t == 0 else {"tr": t}
    return dict(sorted(sum_by_key((A._trace_label(k), c) for k, c in a).items()))


def ref_cyc_log(u) -> CycLogVector:
    ring, A = u.ring, u.ring.coeff

    def buckets():
        log = formal_log(u)
        for word, vec in log.vecs.items():
            if word:
                r = least_rotation(word)
                key = ring.word_to_str(word[r:] + word[:r])
                moved, den = ring._moved(word[:r], {(): vec}, log.den, right=True)
                for label, val in ref_value_trace(A, A.rebuild(moved[()], den)).items():
                    yield (label, key), val
    return CycLogVector(ring.order, sum_by_key(buckets()))


TRACE_RINGS = [
    two_letter(RationalField(), 4),
    two_letter(m2_swap(), 4),
    two_letter(m2_swap(), 3, twist={"x": "swap"}),
    one_letter(m3_cyclic(), 4, twist="cyc"),
    two_letter(qc4_inv(), 4, twist={"x": "inv"}),
    two_letter(qs3_conj(), 3),
    one_letter(qs3_conj(), 4, twist="conj"),
    two_letter(make_free_yz(), 4),
    two_letter(make_free_yz(), 3, twist={"y": "flip"}),
    # x's move by p = [[2,1],[0,1/3]] puts a coefficient over 6 times its
    # denominator, so buckets sum terms over different moved denominators
    two_letter(m2_nonintegral(), 4, twist={"x": "p"}),
    two_letter(m2_nonintegral(), 3, twist={"x": "p", "y": "p^-1"}),
]


@pytest.mark.parametrize("ring", TRACE_RINGS,
                         ids=lambda R: f"{R.coeff.name}:{'/'.join(R.twist_names)}")
def test_integer_trace_matches_value_trace(ring):
    R, A, rng = ring, ring.coeff, random.Random(41)
    for a in [A.zero, A.one] + [A.random_element(rng) for _ in range(20)]:
        assert A.trace(a) == ref_value_trace(A, a), a
    for _ in range(4):
        u = random_fiber_one(R, rng, terms=6)
        assert cyc_log(u).entries == ref_cyc_log(u).entries, (R, u)


def test_cyc_log_bucket_sums_over_moved_denominators():
    # over M2(Q):p the log terms at xxy, xyx and yxx share the bucket xxy,
    # and only xyx is moved (past xy), over 6 times the log's denominator
    A = m2_nonintegral()
    R = two_letter(A, 3, twist={"x": "p"})
    g = A.parse_element_literal
    u = R.from_terms([((), A.one), ("xxy", g("1,2;0,3")), ("xyx", g("1/2,0;1,1")),
                      ("yxx", g("0,1;1/5,0"))])
    log = formal_log(u)
    dens = {R._moved(w[:least_rotation(w)], {}, log.den, right=True)[1]
            for w in map(R.word_from_str, ("xxy", "xyx", "yxx"))}
    assert dens == {log.den, 6 * log.den}
    assert cyc_log(u).entries == ref_cyc_log(u).entries
    assert ("tr", "xxy") in cyc_log(u).entries


def test_trace_needs_rational_coefficients():
    z6 = IntegersMod(6)
    with pytest.raises(NeedsTrace, match=r"^ring Z/6 has no trace$"):
        z6.trace(1)
    with pytest.raises(NeedsTrace):
        z6.trace_vector(1)


def test_cyc_log_additive(free_yz, m2):
    assert_folded("additivity", [two_letter(free_yz, 4), two_letter(m2, 4)], 6)


def test_cyc_log_kills_generators(free_yz, m2):
    assert_folded("annihilation", [two_letter(free_yz, 4), two_letter(m2, 4)], 5,
                  shapes=[(flavor,) for flavor in FLAVORS])


def test_cyc_log_vector_algebra():
    v = CycLogVector(3, {("1", "x"): F(1)})
    w = CycLogVector(3, {("1", "x"): F(-1), ("1", "xx"): F(2)})
    assert (v + w).entries == {("1", "xx"): F(2)}
    assert (v - v).is_zero()
    assert v.sorted_items() == [(("1", "x"), F(1))]
    assert v == CycLogVector(3, {("1", "x"): F(1), ("1", "y"): F(0)})
    assert v != CycLogVector(4, v.entries)


def test_det_multiplicative_mod_c(free_yz):
    assert_folded("det-multiplicative-mod-C", [two_letter(free_yz, 3)], 4, shapes=[(2,)])


def test_det_cyclic_symmetry(m2):
    assert_folded("det-cyclic-symmetry", [one_letter(m2, 3)], 4,
                  shapes=[(2, 2), (2, 1), (3, 2)])


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

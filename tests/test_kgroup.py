import random
from fractions import Fraction as F

import pytest

from twistdet import (
    FLAVORS,
    AugmentationNotOne,
    CGenerator,
    CycLogVector,
    DimensionMismatch,
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
    exact_sequence_additivity_check,
    formal_log,
    parse_series,
    render_series,
    vaserstein_transform,
)
from twistdet.kgroup import least_rotation, one_minus_alpha_x
from twistdet.novikov import OrbitCountReport
from twistdet.rings import RationalField, sum_by_key
from twistdet.selftest import free_yz as make_free_yz
from twistdet.selftest import m2_nonintegral, m2_swap, m3_cyclic, qc4_inv, qs3_conj
from twistdet.selftest import random_fiber_one, random_flavor_pair

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
    # then uses: where eps(1+ba) is not 1, one fraction-free elimination,
    # not a unit test and then an inverse; where it is 1 (a in the kernel,
    # so 1+ba is in W1), none. The inverse is no field of the record
    R = one_letter(m2, 3, twist="swap")
    x = R.letter("x")
    b = R.lift(m2.parse_element_literal("1,2;3,4")) + x
    two = R.lift(m2.parse_element_literal("2,0;0,2")) + x  # eps(1+ba) = 1,0;0,1 + 2*(1,2;3,4)
    c_generator(two, b, "one_plus_ba_unit")
    assert len(eliminations) == 1
    del eliminations[:]
    g = c_generator(x, b, "a_in_kernel")
    assert len(eliminations) == 0
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
    # a*b, a*b' and the two with the inverses; and per inverse one solve pass
    assert [tag for tag, _ in kernel_calls].count("product") == 9
    assert [tag for tag, _ in kernel_calls].count("solve") == 2
    assert sum(sums == [[(x, c)]] for tag, sums in kernel_calls if tag == "product") == 1


def test_vaserstein_needs_commuting_c(m2):
    R = one_letter(m2, 3)
    a = R.lift(m2.parse_element_literal("0,1;0,0"))
    c = R.lift(m2.parse_element_literal("0,0;1,0"))
    with pytest.raises(Exception) as exc:
        vaserstein_transform(a, R.letter("x"), c)
    assert type(exc.value).__name__ == "CommutationFailed"


def test_vaserstein_eliminates_nothing_when_a_is_in_the_kernel(m2, qc4, eliminations):
    # eps(a) = 0 makes eps(ac) = 0, so 1 + eps(ac) = 1 needs no unit test, and
    # 1+ba and 1+b'a have identity constants, which are inverted by reading them
    for A in (m2, qc4):
        R = one_letter(A, 3)
        x = R.letter("x")
        a = x + R.from_terms([("xx", A.one)])
        b = R.lift(A.add(A.one, A.one)) + x
        c = x.scale(F(3))
        b2, ok = vaserstein_transform(a, b, c)
        assert ok and b2 == b + c + b * a * c
    assert len(eliminations) == 0


def test_vaserstein_refuses_a_non_unit_one_plus_ac(qq, m2):
    for A in (qq, m2):
        R = one_letter(A, 2)
        one = R.one()
        with pytest.raises(NotInvertible, match=r"^1 \+ ac is not invertible$"):
            vaserstein_transform(one, R.letter("x"), -one)


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


def euler_oracle(u) -> dict:
    """The buckets of cyc_log(u) on an untwisted ring, without a log: E is
    the Euler derivation (w -> |w| w) and tr is cyclic, so the degree-n part
    of tr(E(log u)) = n tr((log u)_n) is that of tr(u^-1 E(u)). u^-1 E(u) is
    multiplied out pair by pair over values, and each bucket is 1/n of its
    cyclic projection."""
    R, A = u.ring, u.ring.coeff
    inv = u.inverse()
    product = {}
    for v, a in inv.terms.items():
        for w, b in u.terms.items():
            if w and len(v) + len(w) <= R.order:
                word = v + w
                term = A.mul(a, A.scalar_mul(len(w), b))
                product[word] = A.add(product.get(word, A.zero), term)
    buckets = {}
    for word, c in product.items():
        r = least_rotation(word)
        for label, t in A.trace(c).items():
            key = (label, R.word_to_str(word[r:] + word[:r]))
            buckets[key] = buckets.get(key, 0) + t / len(word)
    return {k: v for k, v in buckets.items() if v}


@pytest.mark.parametrize("coeff", [RationalField(), m2_swap(), qc4_inv()],
                         ids=lambda A: A.name)
def test_cyc_log_matches_euler_derivation_oracle(coeff):
    R, rng, degrees = two_letter(coeff, 5), random.Random(47), set()
    for _ in range(20):
        u = random_fiber_one(R, rng, terms=6)
        want = euler_oracle(u)
        assert cyc_log(u).entries == want, u
        degrees |= {len(necklace) for _, necklace in want}
    assert degrees == {1, 2, 3, 4, 5}


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


@pytest.mark.parametrize("order", [0, 1, 3])
@pytest.mark.parametrize("make", [RationalField, lambda: IntegersMod(7), m2_swap, qc4_inv,
                                  make_free_yz], ids=["Q", "Z/7", "M2(Q)", "Q[C4]", "Q<y,z>"])
def test_pencil_entries_match_their_terms(make, order):
    # each entry of 1 - alpha*x, built from alpha's cleared vectors, has the
    # vectors and den of the series of its terms 1 or 0 and -alpha_ij at x,
    # for alpha with zero entries, a zero row and all zero
    A = make()
    ring = SeriesRing(A, ("x",), order=order)
    rng = random.Random(order)
    alphas = [[[A.zero]], [[A.zero] * 2, [A.random_element(rng), A.one]]]
    alphas += [[[A.zero if rng.random() < 0.3 else A.random_element(rng) for _ in range(n)]
                for _ in range(n)] for n in (1, 2, 3, 3)]
    for alpha in alphas:
        m = one_minus_alpha_x(A, alpha, order)
        assert m.ring == ring
        for i, row in enumerate(m.rows):
            for j, e in enumerate(row):
                ref = ring.from_terms([((), A.one if i == j else A.zero),
                                       ((0,), A.neg(alpha[i][j]))])
                assert (e.vecs, e.den) == (ref.vecs, ref.den), (alpha, i, j)


# -- typed errors -------------------------------------------------------------

@pytest.mark.parametrize("make, error, message", [
    (lambda R, S: vaserstein_transform(R.letter("x"), S.letter("x"), R.letter("x")),
     RingMismatch, "a, b, c must share one series ring"),
    (lambda R, S: commutator_as_c_generator(R.one(), S.one()),
     RingMismatch, "alpha and beta live in different series rings"),
    (lambda R, S: CycLogVector(3, {}) + CycLogVector(4, {}),
     RingMismatch, "cannot add cyclic-log vectors of different orders"),
    (lambda R, S: coset_probably_equal(R.one(), S.one()),
     RingMismatch, "u and v live in different series rings"),
    (lambda R, S: endo_class_invariant(R.coeff, [[F(1), F(2)]], 3),
     DimensionMismatch, "alpha must be square and nonempty"),
    (lambda R, S: endo_class_invariant(R.coeff, [], 3),
     DimensionMismatch, "alpha must be square and nonempty"),
    (lambda R, S: exact_sequence_additivity_check(R.coeff, [[F(1)]], [[F(1)]],
                                                  [[F(1), F(2)]], 3),
     DimensionMismatch, "coupling must be 1x1"),
], ids=["vaserstein-rings", "commutator-rings", "cyclog-orders", "coset-rings",
        "alpha-not-square", "alpha-empty", "coupling-shape"])
def test_kgroup_errors(qq, make, error, message):
    # R and S differ only in their order
    R, S = SeriesRing(qq, order=3), SeriesRing(qq, order=4)
    with pytest.raises(error) as caught:
        make(R, S)
    assert str(caught.value) == message

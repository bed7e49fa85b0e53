import random
from fractions import Fraction as F

import pytest

from twistdet import (
    ClassRegroupIncompatible,
    LeadingCoeffNotUnit,
    NotInWOne,
    NovikovSeries,
    OrbitCountReport,
    RingMismatch,
    SeriesRing,
    WindowUnderflow,
    cyclic_group,
    nov_add,
    nov_invert,
    nov_mul,
    nov_neg,
    orbit_counts,
    twisted_conjugacy_classes,
    w1_invariant,
)

from twistdet.selftest import m2_nonintegral, qc4_inv, qs3_conj, random_unit

from conftest import assert_folded


def zring(coeff, order, twist=None):
    tw = {"z": twist} if twist else None
    return SeriesRing(coeff, alphabet=("z",), twist=tw, order=order)


def poly(s):
    return {len(w): c for w, c in s.terms.items()}


# M2(Q) twisted by conjugation with [[2,1],[0,1/3]], where xi != xi^-1; the
# expected values below are pinned outputs of the Novikov layer
M2P_A, M2P_B, M2P_C = "1,2;3,4", "0,1;0,0", "2,0;1,1"


@pytest.fixture
def m2p():
    return m2_nonintegral()


def p_series(m2p, order, literals):
    """{z-degree: element literal} as a series of M2(Q)<<z>>:p at `order`."""
    return zring(m2p, order, twist="p").from_terms(
        [((0,) * d, m2p.parse_element_literal(lit)) for d, lit in literals.items()])


def p_read(u):
    """(shift, base order, {base degree: element literal}) of a Novikov element."""
    A = u.base.ring.coeff
    return (u.shift, u.base.ring.order,
            {len(w): A.element_to_literal(c) for w, c in u.base.terms.items()})


# -- representation ----------------------------------------------------------

def test_normalization_strips_leading_zeros(qq):
    R = zring(qq, 3)
    z = R.letter("z")
    # z + z^2 at shift 2 normalizes to 1 + z at shift 1 with one order spent
    u = NovikovSeries(z + z * z, shift=2)
    assert u.shift == 1
    assert poly(u.base) == {0: F(1), 1: F(1)}
    assert u.base.ring.order == 2
    assert u.min_degree == -1 and u.max_degree == 1


@pytest.mark.parametrize("degrees, shift, expect", [
    # z^-3 (a z^2 + b z^3): two degrees stripped at once, shift 1 left
    ({2: M2P_A, 3: M2P_B}, 3, (1, 2, {0: "11/4,393/4;1/12,9/4", 1: "0,36;0,0"})),
    # z^-2 a z^3: the whole shift is stripped
    ({3: M2P_A}, 2, (0, 2, {1: "11/4,393/4;1/12,9/4"})),
], ids=["shift-left", "shift-spent"])
def test_normalization_strips_leading_zeros_under_twist(m2p, degrees, shift, expect):
    u = NovikovSeries(p_series(m2p, 4, degrees), shift)
    assert p_read(u) == expect
    # z^-shift a z^2 = xi^shift(a) z^(2-shift)
    xi, a = m2p.automorphism("p"), m2p.parse_element_literal(M2P_A)
    for _ in range(shift):
        a = xi.apply(a)
    assert u.coefficient(min(degrees) - shift) == a


def test_zero_base_keeps_window(qq):
    R = zring(qq, 3)
    u = NovikovSeries(R.zero(), shift=2)
    assert u.shift == 2 and u.is_zero()
    # the window only certifies degrees -2..1
    assert u.coefficient(-2) == F(0) and u.coefficient(1) == F(0)
    from twistdet import WindowUnderflow
    with pytest.raises(WindowUnderflow):
        u.coefficient(2)


def test_coefficient_reads_through_twist(qc4):
    R = zring(qc4, 3, twist="inv")
    g1 = qc4.parse_element_literal("g1")
    u = NovikovSeries(R.lift(g1) + R.letter("z"), shift=1)
    # base coeff at degree d+shift gets the twist applied `shift` times
    assert u.coefficient(-1) == qc4.parse_element_literal("g3")
    assert u.coefficient(0) == qc4.one
    assert u.coefficient(-2) == qc4.zero


def test_from_degree_map_roundtrip(qq):
    R = zring(qq, 4)
    u = NovikovSeries.from_degree_map(R, {-2: F(3), 0: F(1), 1: F(-1, 2)})
    assert u.shift == 2
    assert u.coefficient(-2) == F(3)
    assert u.coefficient(1) == F(-1, 2)
    assert u.coefficient(-1) == F(0)
    from twistdet import WindowUnderflow
    with pytest.raises(WindowUnderflow):
        NovikovSeries.from_degree_map(R, {-3: F(1), 3: F(1)})
    # the window holds z^0: a degree below -order is refused before any work
    with pytest.raises(WindowUnderflow):
        NovikovSeries.from_degree_map(zring(qq, 3), {-1000000: F(1)})


# -- arithmetic --------------------------------------------------------------

def test_add_aligns_windows(qq):
    R = zring(qq, 4)
    z = R.letter("z")
    u = NovikovSeries(R.one(), shift=1)            # z^-1
    v = NovikovSeries(z)                           # z
    s = nov_add(u, v)
    assert s.coefficient(-1) == F(1) and s.coefficient(1) == F(1)
    assert s.coefficient(0) == F(0)
    d = nov_add(s, nov_neg(v))
    assert d.coefficient(-1) == F(1) and d.coefficient(1) == F(0)


@pytest.mark.parametrize("op, expect", [
    (nov_add, (2, 4, {0: "1,2;3,4", 1: "-1,0;6,4", 3: "0,1/6;0,0"})),
    (lambda u, v: nov_add(u, nov_neg(v)),
     (2, 4, {0: "1,2;3,4", 1: "1,2;-6,-4", 3: "0,-1/6;0,0"})),
], ids=["add", "sub"])
def test_add_aligns_windows_under_twist(m2p, op, expect):
    u = NovikovSeries(p_series(m2p, 4, {0: M2P_A, 1: M2P_B}), 2)    # z^-2 (a + b z)
    v = NovikovSeries(p_series(m2p, 4, {0: M2P_C, 2: M2P_B}), 1)    # z^-1 (c + b z^2)
    assert p_read(op(u, v)) == expect


def test_mul_twisted_monomials(qc4):
    R = zring(qc4, 3, twist="inv")
    g1 = R.lift(qc4.parse_element_literal("g1"))
    u = NovikovSeries(g1, shift=1)                 # z^-1 g1
    v = NovikovSeries(g1, shift=1)
    p = nov_mul(u, v)
    # z^-1 g1 z^-1 g1 = z^-2 inv(g1) g1 = z^-2 (g3 g1) = z^-2 g0
    assert p.shift == 2 and p.coefficient(-2) == qc4.one


@pytest.mark.parametrize("left, right, expect", [
    (({0: M2P_A}, 1), ({0: M2P_C}, 1), (2, 3, {0: "-65/3,-17/3;49,13"})),
    (({1: M2P_A}, 0), ({0: M2P_C}, 1), (0, 2, {0: "4,2;10,4"})),
    (({0: M2P_A}, 2), ({1: M2P_C}, 0), (1, 2, {0: "9,-3;5/3,-1"})),
], ids=["z^-1a*z^-1c", "az*z^-1c", "z^-2a*cz"])
def test_mul_twisted_monomials_under_twist(m2p, left, right, expect):
    u, v = (NovikovSeries(p_series(m2p, 3, degrees), shift) for degrees, shift in (left, right))
    assert p_read(nov_mul(u, v)) == expect


def test_invert_frozen_monomial(qc2):
    # (g z)^-1 = z^-1 g over Q[C2], identity twist
    R = zring(qc2, 3)
    g = R.lift(qc2.parse_element_literal("g1"))
    u = NovikovSeries(g * R.letter("z"))
    v = nov_invert(u)
    assert v.shift == 1
    assert v.coefficient(-1) == qc2.parse_element_literal("g1")
    assert nov_mul(u, v).matches_one_on_window()


def test_invert_frozen_strip(qq):
    # z(1-z) at order 3: inverse is z^-1(1+z+z^2), one order spent stripping
    R = zring(qq, 3)
    z = R.letter("z")
    v = nov_invert(NovikovSeries(z - z * z))
    assert v.shift == 1
    assert poly(v.base) == {0: F(1), 1: F(1), 2: F(1)}


@pytest.mark.parametrize("degrees, shift, expect", [
    # t = shift - (lowest base degree) >= 0: z^-1 (c + a z) has inverse (c + a z)^-1 z
    ({0: M2P_C, 1: M2P_A}, 1, (0, 4, {1: "1/2,0;-1/2,1", 2: "2,1/4;4,1/4",
                                      3: "-19,-233/24;-47,-577/24",
                                      4: "221,18625/144;541,45593/144"})),
    # t < 0: c z^2 + a z^3, two orders spent stripping
    ({2: M2P_C, 3: M2P_A}, 0, (2, 2, {0: "1/2,0;-1/2,1", 1: "2,1/4;4,1/4",
                                      2: "-19,-233/24;-47,-577/24"})),
], ids=["t>=0", "t<0"])
def test_invert_frozen_strip_under_twist(m2p, degrees, shift, expect):
    assert p_read(nov_invert(NovikovSeries(p_series(m2p, 4, degrees), shift))) == expect


def test_invert_rejects_non_unit_leading(z6):
    R = zring(z6, 3)
    u = NovikovSeries(R.lift(2) + R.letter("z"))
    with pytest.raises(LeadingCoeffNotUnit):
        nov_invert(u)


def test_invert_eliminates_once(m2, eliminations):
    # z^-1 * [1,2;3,4] + 1 over swap-twisted M2(Q): the leading coefficient is
    # inverted by one fraction-free elimination, with no unit test first, and
    # a singular one still gets the error it had
    R = zring(m2, 3, twist="swap")
    f = m2.parse_element_literal
    u = NovikovSeries.from_degree_map(R, {-1: f("1,2;3,4"), 0: m2.one})
    singular = NovikovSeries.from_degree_map(R, {-1: f("1,1;1,1"), 0: m2.one})
    nov_invert(u)
    assert len(eliminations) == 1
    with pytest.raises(LeadingCoeffNotUnit,
                       match=r"^leading coefficient at degree -1 is not a unit of M2\(Q\)$"):
        nov_invert(singular)


def test_invert_roundtrip_twisted(qc4):
    # fiber-one draws (each the product of two) at every shift 0-2
    assert_folded("inverse-roundtrip", [zring(qc4, 4, twist="inv")], 3,
                  shapes=[(shift, "one") for shift in (0, 1, 2)])


def reads_one(u):
    """The per-degree reading: every coefficient of the window against 1."""
    A = u.base.ring.coeff
    return all(u.coefficient(d) == (A.one if d == 0 else A.zero)
               for d in range(u.min_degree, u.max_degree + 1))


def test_matches_one_reads_the_normal_form(monkeypatch, qq):
    R = zring(qq, 3)
    elements = [NovikovSeries(R.one()), NovikovSeries(R.one() + R.letter("z")),
                NovikovSeries(R.one(), 2), NovikovSeries(R.zero(), 4),
                NovikovSeries(R.zero(), 1)]
    calls = []
    read = NovikovSeries.coefficient
    monkeypatch.setattr(NovikovSeries, "coefficient",
                        lambda u, d: calls.append(d) or read(u, d))
    assert [u.matches_one_on_window() for u in elements] == [True, False, False, True, False]
    assert calls == []


@pytest.mark.parametrize("make, twist", [(qc4_inv, "inv"), (m2_nonintegral, "p")],
                         ids=["Q[C4]:inv", "M2(Q):p"])
def test_matches_one_agrees_with_the_coefficients(make, twist):
    # u * u^-1 at shifts 0-2, then each with one term added at a degree from
    # -2 to the top of its window; and a zero base at every shift up to two
    # past the order
    A = make()
    R = zring(A, 4, twist=twist)
    rng = random.Random(44)
    for shift in (0, 1, 2):
        for _ in range(3):
            u = NovikovSeries(random_unit(R, rng), shift)
            p = nov_mul(u, nov_invert(u))
            assert p.matches_one_on_window() and reads_one(p)
            c = A.random_unit(rng)
            for d in range(-2, p.max_degree + 1):
                q = nov_add(p, NovikovSeries.from_degree_map(R, {d: c}))
                assert not q.matches_one_on_window() and not reads_one(q), (shift, d)
    for shift in range(R.order + 3):
        u = NovikovSeries(R.zero(), shift)
        assert u.matches_one_on_window() is reads_one(u) is (shift > R.order)


# -- w1 ----------------------------------------------------------------------

def test_w1_frozen(qq):
    R = zring(qq, 5)
    u = NovikovSeries(R.one() - R.letter("z"))
    v = w1_invariant(u)
    assert v.entries == {("1", "z" * n): F(-1, n) for n in range(1, 6)}


def test_w1_domain_checks(qq):
    R = zring(qq, 3)
    with pytest.raises(NotInWOne):
        w1_invariant(NovikovSeries(R.one(), shift=1))
    with pytest.raises(NotInWOne):
        w1_invariant(NovikovSeries(R.lift(F(2)) + R.letter("z")))


def test_w1_additive(qq):
    assert_folded("w1-additivity", [zring(qq, 4)], 8)


# -- orbit counts ------------------------------------------------------------

def test_twisted_classes_c4_inversion():
    C4 = cyclic_group(4)
    odd = sorted(sorted(c) for c in twisted_conjugacy_classes(C4, [0, 3, 2, 1], 1))
    even = sorted(sorted(c) for c in twisted_conjugacy_classes(C4, [0, 3, 2, 1], 2))
    assert odd == [[0, 2], [1, 3]]
    assert even == [[0], [1], [2], [3]]


def test_orbit_counts_frozen(qc2):
    R = zring(qc2, 3)
    g = R.lift(qc2.parse_element_literal("g1"))
    u = NovikovSeries(R.one() - g * R.letter("z"))
    rep = orbit_counts(u)
    assert rep.entries == {(1, "g1"): F(-1), (2, "g0"): F(-1, 2),
                           (3, "g1"): F(-1, 3)}
    # lefschetz weighting multiplies the degree-n bucket by n
    lef = orbit_counts(u, lefschetz=True)
    assert lef.entries == {(1, "g1"): F(-1), (2, "g0"): F(-1),
                           (3, "g1"): F(-1)}
    assert rep == OrbitCountReport(3, "C2", "id", False, {**rep.entries, (2, "g1"): F(0)})
    assert rep != lef


def test_orbit_counts_twisted_merges_classes(qc4):
    # under the inversion twist, odd z-degrees bucket g1 with g3
    R = zring(qc4, 2, twist="inv")
    g1 = R.lift(qc4.parse_element_literal("g1"))
    u = NovikovSeries(R.one() - g1 * R.letter("z"))
    rep = orbit_counts(u)
    assert set(rep.entries) == {(1, "g1"), (2, "g0")}
    assert rep.entries[(1, "g1")] == F(-1)


def test_orbit_counts_needs_group_algebra(qq):
    R = zring(qq, 2)
    u = NovikovSeries(R.one() - R.letter("z"))
    with pytest.raises(ClassRegroupIncompatible):
        orbit_counts(u)


def test_orbit_counts_refuses_a_class_split_by_the_twist():
    # Q[S3] twisted by conjugation with a 3-cycle: at z-degree 1 the plain class
    # of the 3-cycle g3 meets two twisted classes, and w1 has already merged its
    # elements. ROADMAP item 1(c) will replace these classes.
    A = qs3_conj()
    R = zring(A, 3, twist="conj")
    g3 = R.lift(A.parse_element_literal("g3"))
    with pytest.raises(ClassRegroupIncompatible,
                       match=r"^plain class g3 splits across xi\^1-twisted classes; "):
        orbit_counts(NovikovSeries(R.one() - g3 * R.letter("z")))


def test_orbit_report_sorted_items(qc2):
    R = zring(qc2, 3)
    g = R.lift(qc2.parse_element_literal("g1"))
    rep = orbit_counts(NovikovSeries(R.one() - g * R.letter("z")))
    keys = [k for k, _ in rep.sorted_items()]
    assert keys == sorted(keys)


@pytest.mark.parametrize("make, error, message", [
    (lambda R, R2: nov_invert(NovikovSeries(R.zero())),
     LeadingCoeffNotUnit, "zero has no inverse"),
    (lambda R, R2: nov_invert(NovikovSeries(R.one(), 3)),
     WindowUnderflow, "the inverse starts beyond the representable window"),
    (lambda R, R2: NovikovSeries(R2.one()),
     RingMismatch, "Novikov elements need a one-letter series ring"),
    (lambda R, R2: NovikovSeries.from_degree_map(R2, {0: F(1)}),
     RingMismatch, "Novikov elements need a one-letter series ring"),
    (lambda R, R2: NovikovSeries(R.one(), -1),
     ValueError, "shift must be >= 0"),
    (lambda R, R2: nov_add(NovikovSeries(R.one()),
                           NovikovSeries(zring(m2_nonintegral(), 2).one())),
     RingMismatch, "Novikov operands live over different rings"),
], ids=["invert-zero", "inverse-past-window", "two-letters", "two-letter-degree-map",
        "negative-shift", "different-rings"])
def test_novikov_errors(qq, make, error, message):
    # R is Q<<z>> at order 2; R2 has two letters
    R, R2 = zring(qq, 2), SeriesRing(qq, alphabet=("y", "z"), order=2)
    with pytest.raises(error) as caught:
        make(R, R2)
    assert str(caught.value) == message


def test_degree_map_of_zeros_is_zero(qq):
    # zero coefficients set no shift, even at degrees outside the window
    R = zring(qq, 2)
    u = NovikovSeries.from_degree_map(R, {-5: F(0), 0: F(0), 9: F(0)})
    assert u == NovikovSeries(R.zero(), 0) and u.is_zero() and u.shift == 0

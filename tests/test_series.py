import itertools
import math
import random
from fractions import Fraction as F

import pytest

from twistdet import (
    AugmentationNotOne,
    AugmentationNotUnit,
    IntegersMod,
    NeedsRationalCoefficients,
    NotAUnit,
    NotInvertible,
    RationalField,
    RingAutomorphism,
    RingMismatch,
    SeriesMatrix,
    SeriesRing,
    TwistedSeries,
    dieudonne_det,
    formal_exp,
    formal_log,
    ldu_decompose,
    mat_invert,
)
from twistdet import matrices as matrices_module
from twistdet import series as series_module
from twistdet.randgen import (
    random_fiber_one,
    random_invertible_matrix,
    random_kernel,
    random_kernel_matrix,
    random_series,
    random_unipotent_matrix,
    random_unit,
)
from twistdet.selftest import free_yz, m2_nonintegral, m2_swap, m2_two_twists, qc4_inv

from conftest import assert_folded, one_letter, two_letter


def poly(s):
    # one-letter series as {degree: coeff}
    return {len(w): c for w, c in s.terms.items()}


def test_from_terms_merges_and_truncates(qq):
    R = SeriesRing(qq, order=2)
    s = R.from_terms([("x", F(1)), ("x", F(2)), ("xxx", F(7)), ((), F(0))])
    assert s.terms == {(0,): F(3)}


def test_augmentation_and_lift(qq):
    R = SeriesRing(qq, order=3)
    assert R.lift(F(5)).augmentation() == F(5)
    assert R.zero().is_zero() and R.one().is_one()
    assert (R.one() + R.letter("x")).augmentation() == F(1)


def test_product_rule_untwisted(qq):
    R = SeriesRing(qq, order=4)
    x = R.letter("x")
    assert poly((R.one() + x) * (R.one() - x)) == {0: F(1), 2: F(-1)}
    assert poly(x.power(2)) == {2: F(1)}
    assert x.power(5).is_zero()


def test_twist_relation(m2):
    # defining rule: a*x = x*swap(a)
    R = one_letter(m2, 3, twist="swap")
    a = tuple(tuple(F(v) for v in row) for row in [[1, 2], [3, 4]])
    x = R.letter("x")
    assert R.lift(a) * x == x * R.lift(m2.automorphism("swap").apply(a))


def test_moved_left_and_right_are_inverse():
    # p is not an involution, so a move the wrong way round shows; each word
    # has two twisted letters, and a leftward move past it is p^-1 twice
    A = m2_nonintegral()
    R = SeriesRing(A, alphabet=("x", "y"), twist={"x": "p"}, order=4)
    a = A.parse_element_literal("0,1;2,5")
    (vec,), den = A.clear([a])
    back = A.automorphism("p").inverse
    for word in ((0, 0), (0, 1, 0), (1, 0, 1, 0)):
        left, right = R._moved(word, {(): vec}, den), R._moved(word, {(): vec}, den, right=True)
        assert A.rebuild(left[0][()], left[1]) == back.apply(back.apply(a))
        assert A.rebuild(right[0][()], right[1]) != A.rebuild(left[0][()], left[1])
        for moved, there in ((left, False), (right, True)):
            vecs, d = R._moved(word, *moved, right=not there)
            assert A.rebuild(vecs[()], d) == a


def test_twisted_word_product(m2):
    # (x*a)*(x*b) collects coefficients on the left: x a x b = xx swap(a) b
    R = one_letter(m2, 4, twist="swap")
    swap = m2.automorphism("swap")
    a = tuple(tuple(F(v) for v in row) for row in [[1, 1], [0, 1]])
    b = tuple(tuple(F(v) for v in row) for row in [[2, 0], [1, 1]])
    x = R.letter("x")
    lhs = (x * R.lift(a)) * (x * R.lift(b))
    rhs = R.from_terms([((0, 0), m2.mul(swap.inverse.apply(a), b))])
    # coefficient sits left of the word: x a = swap^-1(a) x
    assert lhs == rhs


def test_inverse_frozen_geometric(qq):
    R = SeriesRing(qq, order=4)
    u = R.one() + R.letter("x")
    assert poly(u.inverse()) == {0: F(1), 1: F(-1), 2: F(1), 3: F(-1), 4: F(1)}


def test_inverse_requires_unit_augmentation(qq, z6):
    R = SeriesRing(qq, order=3)
    with pytest.raises(AugmentationNotUnit):
        R.letter("x").inverse()
    Rz = SeriesRing(z6, order=3)
    u = Rz.lift(2) + Rz.letter("x")
    with pytest.raises(AugmentationNotUnit):
        u.inverse()


def test_inverse_random_two_sided(qq, m2, qc4, free_yz):
    rings = [
        two_letter(qq, 3),
        one_letter(m2, 3, twist="swap"),
        one_letter(qc4, 3, twist="inv"),
        one_letter(free_yz, 3, twist="flip"),
        two_letter(m2, 3, twist={"x": "swap"}),
        SeriesRing(m2, alphabet=("x", "y"), order=3, letters_commute=True),
    ]
    assert_folded("series-inverse", rings, 10)


def test_scale(qc4):
    R = one_letter(qc4, 2)
    g = R.lift(qc4.parse_element_literal("g1"))
    s = (g * R.letter("x")).scale(F(3))
    assert s.coefficient("x") == qc4.parse_element_literal("3*g1")
    Rz = one_letter(IntegersMod(12), 2)
    t = Rz.from_terms([((), 3), ("x", 2)])
    assert t.scale(6).terms == {(): 6} and t.scale(4).terms == {(0,): 8} and t.scale(0).is_zero()


def test_log_frozen(qq):
    R = SeriesRing(qq, order=5)
    u = R.one() + R.letter("x")
    assert poly(formal_log(u)) == {
        1: F(1), 2: F(-1, 2), 3: F(1, 3), 4: F(-1, 4), 5: F(1, 5)}


def test_log_exp_roundtrip(qq, m2, free_yz):
    assert_folded("log-exp-roundtrip", [two_letter(c, 4) for c in (qq, m2, free_yz)], 8)


def test_log_needs_fiber_and_rationals(qq, z6):
    R = SeriesRing(qq, order=3)
    with pytest.raises(AugmentationNotOne):
        formal_log(R.lift(F(2)) + R.letter("x"))
    Rz = SeriesRing(z6, order=3)
    with pytest.raises(NeedsRationalCoefficients):
        formal_log(Rz.one() + Rz.letter("x"))


def test_commuting_letters_normalize(qq):
    R = SeriesRing(qq, alphabet=("x", "y"), order=3, letters_commute=True)
    x, y = R.letter("x"), R.letter("y")
    assert x * y == y * x
    assert (x * y).support() == [(0, 1)]


def test_commuting_letters_reject_twists(m2):
    with pytest.raises(ValueError):
        SeriesRing(m2, alphabet=("x",), twist={"x": "swap"}, order=2,
                   letters_commute=True)


def test_twist_of_a_letter_outside_the_alphabet_rejected(m2):
    with pytest.raises(ValueError, match="'q'"):
        SeriesRing(m2, alphabet=("x",), twist={"q": "swap"}, order=2)


def test_with_order_truncates(qq):
    R = SeriesRing(qq, order=4)
    u = (R.one() + R.letter("x")).power(3)
    v = u.truncated(2)
    assert poly(v) == {0: F(1), 1: F(3), 2: F(3)}
    assert R.with_order(2).order == 2


def test_cross_ring_operations_rejected(qq):
    R3 = SeriesRing(qq, order=3)
    R4 = SeriesRing(qq, order=4)
    with pytest.raises(RingMismatch):
        R3.one() + R4.one()


# -- the kernel against the per-pair loop ---------------------------------------------
# The reference is the product by definition, a per-pair loop: one A.mul and
# one A.add per pair of terms that fits, each right coefficient moved leftward
# past the left word one letter at a time. Log, exp and series-matrix products
# are built on it; inverses are checked with it from both sides.

def moved_left(R, word, b):
    """b moved from the right of word to its left, x * b = xi_x^-1(b) * x, by
    the values of each letter's automorphism, last letter first."""
    for i in reversed(word):
        b = R.coeff.automorphism(R.twist_names[i]).inverse.apply(b)
    return b


def all_pairs_product(s, t):
    """s*t by definition: every pair of terms, each right coefficient moved
    leftward past the left word one letter at a time."""
    R = s.ring
    A = R.coeff
    acc = {}
    for v, a in s.terms.items():
        for w, b in t.terms.items():
            if len(v) + len(w) > R.order:
                continue
            word = R.normalize_word(v + w)
            acc[word] = A.add(acc.get(word, A.zero), A.mul(a, moved_left(R, v, b)))
    return {w: c for w, c in acc.items() if c != A.zero}


def dense_series(R, rng, max_len):
    words = [w for n in range(min(max_len, R.order) + 1)
             for w in itertools.product(range(len(R.alphabet)), repeat=n)]
    return R.from_terms([(w, R.coeff.random_element(rng)) for w in words])


m2_two_twists = pytest.fixture(m2_two_twists)


def kernel_rings(qq, m2, m2_two_twists):
    z12 = IntegersMod(12)
    xy = ("x", "y")
    return [
        SeriesRing(qq, alphabet=xy, order=5),
        SeriesRing(m2, alphabet=xy, twist={"x": "swap"}, order=3),
        SeriesRing(m2, alphabet=xy, twist={"x": "swap", "y": "swap"}, order=3),
        SeriesRing(m2_two_twists, alphabet=xy, twist={"x": "swap", "y": "shear"}, order=3),
        SeriesRing(qq, alphabet=("x", "y", "z"), order=4, letters_commute=True),
        SeriesRing(z12, alphabet=xy, order=4),
        SeriesRing(qq, alphabet=xy, order=0),
        SeriesRing(m2_two_twists, alphabet=xy, twist={"x": "shear"}, order=1),
        SeriesRing(m2_nonintegral(), alphabet=("x",), twist={"x": "p"}, order=4),
        SeriesRing(m2, alphabet=xy, order=3, letters_commute=True),
        SeriesRing(qc4_inv(), alphabet=xy, twist={"x": "inv"}, order=3),
        SeriesRing(free_yz(), alphabet=xy, twist={"x": "flip"}, order=3),
        # a partly twisted ring: keys of one twisted letter meet untwisted letters
        SeriesRing(m2_nonintegral(), alphabet=xy, twist={"x": "p"}, order=4),
        # p and p^-1 both have factor 6, so keys with factors 6 and 36 meet in one sum
        SeriesRing(m2_nonintegral(), alphabet=xy, twist={"x": "p", "y": "p^-1"}, order=3),
    ]


def ref_mul(s, t):
    return s.ring.from_terms(all_pairs_product(s, t))


def ref_add(s, t):
    A = s.ring.coeff
    acc = dict(s.terms)
    for w, c in t.terms.items():
        acc[w] = A.add(acc.get(w, A.zero), c)
    return s.ring.from_terms(acc)


def ref_power_sum(theta, coeff):
    R = theta.ring
    acc, power = R.zero(), R.one()
    for k in range(1, R.order + 1):
        power = ref_mul(power, theta)
        acc = ref_add(acc, power.scale(coeff(k)))
    return acc


def ref_mat_mul(a, b):
    R = a.ring
    rows = []
    for row in a.rows:
        rows.append([])
        for col in zip(*b.rows):
            acc = R.zero()
            for x, y in zip(row, col):
                acc = ref_add(acc, ref_mul(x, y))
            rows[-1].append(acc)
    return SeriesMatrix(R, rows)


def dense_kernel(R, rng):
    return R.from_terms({w: c for w, c in dense_series(R, rng, R.order).terms.items() if w})


def test_product_matches_all_pairs_reference(qq, m2, m2_two_twists):
    rng = random.Random(13)
    for R in kernel_rings(qq, m2, m2_two_twists):
        operands = [R.zero(), R.one()]
        for _ in range(4):
            operands.append(random_series(R, rng, terms=rng.randint(1, 6)))
            operands.append(dense_series(R, rng, rng.randint(0, R.order)))
        for s in operands:
            for t in rng.sample(operands, 4) + [R.zero()]:
                assert (s * t).terms == all_pairs_product(s, t), (R, s, t)


def test_inverse_log_exp_match_per_pair_reference(qq, m2, m2_two_twists):
    rng = random.Random(17)
    edge_orders = [one_letter(qq, order) for order in (0, 1, 20)]
    for R in kernel_rings(qq, m2, m2_two_twists) + edge_orders:
        A, one = R.coeff, R.one()
        units = [random_unit(R, rng, terms=5) for _ in range(3)]
        units.append(R.lift(A.random_unit(rng)) + dense_kernel(R, rng))
        for u in units:
            inv = u.inverse()
            assert ref_mul(u, inv) == one == ref_mul(inv, u), (R, u)
        if A.contains_rationals:
            for _ in range(3):
                u, k = random_fiber_one(R, rng, terms=5), random_kernel(R, rng, terms=5)
                assert formal_log(u) == ref_power_sum(u - one, lambda n: F((-1) ** (n + 1), n))
                assert formal_exp(k) == ref_add(one, ref_power_sum(
                    k, lambda n: F(1, math.factorial(n))))
            k = dense_kernel(R, rng)
            assert formal_log(one + k) == ref_power_sum(k, lambda n: F((-1) ** (n + 1), n))


@pytest.mark.parametrize("order", [0, 1, 4, 6])
def test_log_and_exp_set_theta_up_once_and_run_order_plus_one_pair_loops(
        monkeypatch, kernel_calls, m2, order):
    # Horner's rule runs inside the kernel: theta's rows are set up once, and
    # each of its N + 1 steps is one pair loop, cut at degree N - k for
    # k = N down to 0, with no product kernel call
    R, rng = two_letter(m2, order, twist={"x": "swap"}), random.Random(order)
    setups, loops = [], []
    left_rows, convolve = series_module._left_rows, series_module._convolve

    def counted_rows(A, left, top):
        setups.append(list(left.values()))
        return left_rows(A, left, top)

    def counted_convolve(R, pairs, room, *args):
        loops.append(room)
        return convolve(R, pairs, room, *args)
    monkeypatch.setattr(series_module, "_left_rows", counted_rows)
    monkeypatch.setattr(series_module, "_convolve", counted_convolve)
    u, k = random_fiber_one(R, rng, terms=5), random_kernel(R, rng, terms=5)
    for f, arg, theta in ((formal_log, u, u - R.one()), (formal_exp, k, k)):
        del kernel_calls[:], setups[:], loops[:]
        f(arg)
        assert kernel_calls == [("power", theta)]
        assert setups == [[theta]]
        assert loops == list(range(order + 1))


def test_series_matrices_match_per_pair_reference(qq, m2, m2_two_twists):
    rng = random.Random(19)
    for R in kernel_rings(qq, m2, m2_two_twists):
        for n, m in ((1, 1), (2, 2), (2, 3), (3, 3)):
            a, b = random_kernel_matrix(R, rng, n, m, 3), random_kernel_matrix(R, rng, m, n, 3)
            assert a * b == ref_mat_mul(a, b), R
            assert b * a == ref_mat_mul(b, a), R
            if n == m:
                u = random_invertible_matrix(R, rng, n)
                inv, ident = mat_invert(u), SeriesMatrix.identity(R, n)
                assert ref_mat_mul(u, inv) == ident == ref_mat_mul(inv, u), R


def _sparse_invertible_matrix(R, rng, words):
    """A 3x3 matrix with an invertible augmentation, whose entries' other
    terms sit at `words` only (so that its inverse stays small)."""
    A = R.coeff
    while True:
        aug = [[A.random_element(rng) for _ in range(3)] for _ in range(3)]
        if A.mat_is_invertible(tuple(map(tuple, aug))):
            return SeriesMatrix(R, [[R.from_terms([((), c)] + [(w, A.random_element(rng))
                                                               for w in words])
                                     for c in row] for row in aug])


def test_solve_pass_matches_per_pair_reference(qq):
    rng = random.Random(29)
    z101, z12 = IntegersMod(101), IntegersMod(12)
    q20, r40, r6 = one_letter(qq, 20), one_letter(z101, 40), one_letter(z12, 6)
    units = [
        # the constant 3/2 makes the denominators grow at every degree
        q20.from_terms([((), F(3, 2))] + [("x" * d, F(rng.randint(-5, 5), rng.randint(1, 4)))
                                          for d in range(1, 21)]),
        r40.from_terms([("x" * d, rng.randrange(1, 101)) for d in range(41)]),
        # q1*y1 = 4 and q2*y0 = -4 cancel, so degree 2 of the inverse is empty (and 5 too)
        r6.from_terms([((), 1), ("x", 2), ("xx", 4)]),
    ]
    for u in units:
        inv, R = u.inverse(), u.ring
        assert ref_mul(u, inv) == R.one() == ref_mul(inv, u), R
        assert inv == R.from_terms(inv.terms)
    assert sorted({len(w) for w in units[2].inverse().vecs}) == [0, 1, 3, 4, 6]
    # keys of factors 36 (xy) and 216 (yyy) meet in the pass
    p = SeriesRing(m2_nonintegral(), alphabet=("x", "y"), twist={"x": "p", "y": "p^-1"},
                   order=12)
    for m in (random_invertible_matrix(one_letter(z101, 12), rng, 3),
              _sparse_invertible_matrix(p, rng, ["xy", "yyy"])):
        inv, ident = mat_invert(m), SeriesMatrix.identity(m.ring, 3)
        assert ref_mat_mul(m, inv) == ident == ref_mat_mul(inv, m), m.ring
        assert all(e == m.ring.from_terms(e.terms) for row in inv.rows for e in row)


def test_kernel_sums_that_cancel_leave_no_zero_terms(qq, m2):
    R = SeriesRing(qq, alphabet=("x", "y"), order=3)
    s = R.from_terms([((), 1), ("x", F(1, 2)), ("xy", F(-2, 3))])
    t = R.from_terms([("y", 3), ("yx", F(1, 5)), ((), F(-7, 2))])
    # s*t - s*t as one sum of products over a row times a column
    assert (SeriesMatrix(R, [[s, -s]]) * SeriesMatrix(R, [[t], [t]])).rows[0][0].terms == {}
    # the pairs (1, -x) and (x, 1) cancel within the output word x
    one, x = R.one(), R.letter("x")
    assert ((one + x) * (one - x)).terms == {(): F(1), (0, 0): F(-1)}
    # over M2(Q) every pair of e12 * x^i and e12 * x^j multiplies to 0
    e12 = ((F(0), F(1)), (F(0), F(0)))
    Rm = SeriesRing(m2, alphabet=("x", "y"), order=3)
    u = Rm.from_terms([((), e12), ("x", e12), ("xy", e12)])
    assert (u * u).terms == {}
    # over Z/12: 6*2 at xx and 4*3 at yy vanish, and 6 + 6*3 cancels at xy
    Rz = SeriesRing(IntegersMod(12), alphabet=("x", "y"), order=2)
    v = Rz.from_terms([((), 1), ("x", 6), ("y", 4)])
    w = Rz.from_terms([((), 1), ("x", 2), ("y", 3), ("xy", 6)])
    assert (v * w).terms == ref_mul(v, w).terms == {(): 1, (0,): 8, (1,): 7, (1, 0): 8}


def _forbidden(*args):
    raise AssertionError("a per-pair coefficient call")


def test_kernel_makes_no_per_pair_ring_calls(monkeypatch, qq, m2, m2_two_twists):
    # nor does it apply an automorphism to a value: twisted coefficients move
    # as integer vectors (over M2(Q):swap, :shear and :p, Q[C4]:inv and
    # Q<y,z>:flip among the kernel rings)
    rng = random.Random(23)
    for R in kernel_rings(qq, m2, m2_two_twists):
        A = R.coeff
        s, t = dense_series(R, rng, R.order), dense_series(R, rng, R.order)
        u = R.lift(A.random_unit(rng)) + dense_kernel(R, rng)
        a, b = random_kernel_matrix(R, rng, 2, 2, 3), random_kernel_matrix(R, rng, 2, 2, 3)
        m = random_invertible_matrix(R, rng, 2)
        expected = (ref_mul(s, t), ref_mat_mul(a, b))
        monkeypatch.setattr(A, "mul", _forbidden)
        monkeypatch.setattr(A, "add", _forbidden)
        monkeypatch.setattr(RingAutomorphism, "apply", _forbidden)
        assert (s * t, a * b) == expected
        inv, m_inv = u.inverse(), mat_invert(m)
        monkeypatch.undo()
        assert ref_mul(u, inv) == R.one() and ref_mat_mul(m, m_inv) == SeriesMatrix.identity(R, 2)


@pytest.mark.parametrize("order", [0, 1, 4, 7])
def test_inverse_makes_one_product_call_and_one_solve_pass(kernel_calls, m2, order):
    # the products -inv0 * x+ are one kernel call and the degrees of the
    # inverse one solve pass, for series and for series matrices alike
    rng = random.Random(order)
    R = SeriesRing(m2, alphabet=("x", "y"), twist={"x": "swap"}, order=order)
    u, m = random_unit(R, rng, terms=6), random_invertible_matrix(R, rng, 3)
    for invert, x, n in ((TwistedSeries.inverse, u, 1), (mat_invert, m, 3)):
        del kernel_calls[:]
        invert(x)
        assert [tag for tag, _ in kernel_calls] == ["product", "solve"]
        (_, sums), (_, q) = kernel_calls
        assert [len(pairs) for pairs in sums] == [n] * (n * n)
        assert len(q) == n * n


def test_inverse_eliminates_once_over_m2(m2, eliminations):
    # the inverse of a series or of a series matrix over M2(Q) inverts its
    # augmentation by one fraction-free elimination, with no unit test first,
    # and a singular augmentation still gets the error it had
    R = one_letter(m2, 3, twist="swap")
    u = R.lift(m2.parse_element_literal("1,2;3,4")) + R.letter("x")
    m = SeriesMatrix(R, [[u, R.letter("x")], [R.zero(), u]])
    singular = R.lift(m2.parse_element_literal("1,1;1,1")) + R.letter("x")
    for invert, x in ((TwistedSeries.inverse, u), (mat_invert, m)):
        del eliminations[:]
        invert(x)
        assert len(eliminations) == 1
    with pytest.raises(AugmentationNotUnit,
                       match=r"^augmentation 1,1;1,1 is not a unit of M2\(Q\)$"):
        singular.inverse()
    with pytest.raises(NotInvertible,
                       match=r"^augmentation matrix is not invertible over M2\(Q\)$"):
        mat_invert(SeriesMatrix(R, [[singular]]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ldu_inverts_pivot_by_one_solve_pass_and_l_u_in_one_call(kernel_calls, qq, n):
    R = SeriesRing(qq, alphabet=("x", "y"), order=3)
    m = random_unipotent_matrix(R, random.Random(n), n)
    ldu_decompose(m)
    # the inverse of the pivot (one product, one solve pass), then l and u, then d2
    assert [tag for tag, _ in kernel_calls] == ["product", "solve", "product", "product"]
    assert len(kernel_calls[2][1]) == 2 * (n - 1)


def ref_schur(m):
    """d2 = a22 - a21 a11^-1 a12 of m by per-pair products."""
    R = m.ring
    inv = m.rows[0][0].inverse()
    return SeriesMatrix(R, [[ref_add(e, ref_mul(ref_mul(row[0], inv), a).scale(-1))
                             for e, a in zip(row[1:], m.rows[0][1:])] for row in m.rows[1:]])


@pytest.mark.parametrize("n", [2, 3])
def test_det_steps_compute_no_l(kernel_calls, m2, n):
    # each step of D: the pivot's inverse (one product, one solve pass), -u =
    # -a11^-1 a12 in one call, and d2 = a22 - a21 u in one call with a22
    # folded in as (a22_ij, 1) pairs; then the products a11 * D(d2). No call
    # carries the sums of l = a21 a11^-1.
    R = two_letter(m2, 3, twist={"x": "swap"})
    m = random_unipotent_matrix(R, random.Random(n), n, terms=3)
    det = dieudonne_det(m)
    calls = list(kernel_calls)
    assert [tag for tag, _ in calls] == (["product", "solve", "product", "product"] * (n - 1)
                                         + ["product"] * (n - 1))
    one, step, pivots = R.one(), m, []
    for i in range(n - 1):
        (_, u_sums), (_, d2_sums) = calls[4 * i + 2:4 * i + 4]
        a11, inv = step.rows[0][0], step.rows[0][0].inverse()
        assert u_sums == [[(-inv, a)] for a in step.rows[0][1:]]
        neg_u = [ref_mul(inv, a).scale(-1) for a in step.rows[0][1:]]
        assert d2_sums == [[(row[j + 1], one), (row[0], v)]
                           for row in step.rows[1:] for j, v in enumerate(neg_u)]
        assert not any(t == inv for tag, sums in calls if tag == "product"
                       for pairs in sums for _, t in pairs)
        pivots.append(a11)
        step = ref_schur(step)
    want = step.rows[0][0]
    for a11 in reversed(pivots):
        want = ref_mul(a11, want)
    assert det == want


def test_letters_sharing_a_twist_share_a_key(m2, m2_two_twists):
    shared = SeriesRing(m2, alphabet=("x", "y"), twist={"x": "swap", "y": "swap"}, order=3)
    assert shared.twist_key((0, 1)) == shared.twist_key((1, 0)) == shared.twist_key((1, 1))
    mixed = SeriesRing(m2_two_twists, alphabet=("x", "y", "t"),
                       twist={"x": "swap", "y": "shear"}, order=3)
    assert mixed.twist_key((0, 2, 1)) != mixed.twist_key((1, 2, 0))
    assert mixed.twist_key((2, 0)) == mixed.twist_key((0,))
    assert mixed.twist_key((2, 2)) == ()


def test_product_cancels_to_zero_over_z12():
    R = SeriesRing(IntegersMod(12), alphabet=("x", "y"), order=3)
    u = R.from_terms([((), 1), ("x", 6), ("y", 4)])
    v = R.from_terms([((), 1), ("x", 6), ("y", 8)])
    # 6*6, 6*8 and 4*6 vanish; the sums 6+6 at x and 8+4 at y cancel
    assert (u * v).terms == all_pairs_product(u, v) == {(): 1, (1, 1): 8}


def test_twisted_product_is_associative(m2_two_twists, qc4):
    rings = [two_letter(m2_two_twists, 5, twist={"x": "swap", "y": "shear"}),
             two_letter(qc4, 6, twist={"x": "inv"})]
    assert_folded("product-associative", rings, 5)


def test_free_algebra_matrix_inverse_eliminates_once(eliminations):
    # a 2x2 matrix over Q<y,z>/deg>2 is inverted through one elimination of
    # its scalar part, with no invertibility test first
    A = free_yz(2)
    f = A.parse_element_literal
    rows = ((f("1+y"), f("z")), (f("2*yz"), f("3-z")))
    inv = A.mat_invert(rows)
    assert len(eliminations) == 1
    assert A.emat_mul(rows, inv) == A.emat_identity(2) == A.emat_mul(inv, rows)
    with pytest.raises(NotAUnit, match=r"^matrix has singular scalar part over Q<y,z>/deg>2$"):
        A.mat_invert(((f("y"), f("1")), (f("z"), f("1+y"))))


def test_free_algebra_inverses_skip_the_matrix_layer(monkeypatch, kernel_calls):
    # a unit and a 2x2 matrix over Q<y,z>/deg>2 each go straight to
    # inverse_entries over Q<<y,z>>: one product kernel call and one solve pass
    def refuse(m):
        raise AssertionError("matrices.mat_invert reached")
    monkeypatch.setattr(matrices_module, "mat_invert", refuse)
    A = free_yz(2)
    f = A.parse_element_literal
    u = f("2+y-3*zy")
    inv_u = A.invert(u)
    assert [kind for kind, _ in kernel_calls] == ["product", "solve"]
    assert A.mul(u, inv_u) == A.one == A.mul(inv_u, u)
    kernel_calls.clear()
    rows = ((f("1+y"), f("z")), (f("2*yz"), f("3-z")))
    inv = A.mat_invert(rows)
    assert [kind for kind, _ in kernel_calls] == ["product", "solve"]
    assert A.emat_mul(rows, inv) == A.emat_identity(2) == A.emat_mul(inv, rows)


def test_rearrange_check_eliminates_twice(m2, eliminations):
    # 1 - b(1+ab)^-1 a == (1+ba)^-1 needs the two inverses and nothing else
    R = one_letter(m2, 3, twist="swap")
    rng = random.Random(3)
    a, b = (SeriesMatrix(R, [[random_series(R, rng)]]) for _ in range(2))
    assert matrices_module.rearrange_inverses_check(a, b)
    assert len(eliminations) == 2
    minus_one = SeriesMatrix(R, [[R.lift(m2.parse_element_literal("-1,0;0,-1"))]])
    one = SeriesMatrix.identity(R, 1)
    with pytest.raises(NotInvertible, match=r"^1 \+ ab is not invertible$"):
        matrices_module.rearrange_inverses_check(minus_one, one)


def five_rings():
    """One ring of each coefficient kind, twisted where the kind has a twist."""
    return [SeriesRing(RationalField(), ("x", "y"), order=3),
            SeriesRing(IntegersMod(12), ("x", "y"), order=3),
            one_letter(m2_swap(), 3, twist="swap"),
            one_letter(qc4_inv(), 3, twist="inv"),
            one_letter(free_yz(2), 3, twist="flip")]


def assert_canonical(s):
    A = s.ring.coeff
    assert s.den > 0 and all(A.nonzero(v) for v in s.vecs.values())
    if A.contains_rationals:
        assert math.gcd(s.den, *[A.content(v) for v in s.vecs.values()]) == 1
    else:
        assert s.den == 1 and all(0 <= v < A.modulus for v in s.vecs.values())


def hand_built(R):
    """(series, its value) pairs whose series is built from values that are
    not canonical: over Q[C4] pairs unsorted, a repeated key and a zero
    coefficient; over Q<y,z>/deg>2 the product y * (yz + y), with yz + y
    unsorted, as values and as series (yyz drops, yy stays)."""
    A = R.coeff
    if A.kind == "group_algebra":
        return [(R.lift(((2, F(1)), (0, F(3)))), ((0, F(3)), (2, F(1)))),
                (R.lift(((1, F(1)), (1, F(2)))), ((1, F(3)),)),
                (R.lift(((0, F(1)), (3, F(0)))), ((0, F(1)),))]
    if A.kind == "free_trunc":
        y, yz, yy = ((A.word("y"), F(1)),), (A.word("yz"), F(1)), ((A.word("yy"), F(1)),)
        return [(R.lift(A.mul(y, (yz, y[0]))), yy), (R.lift(y) * R.lift((yz, y[0])), yy)]
    return []


@pytest.mark.parametrize("ring", five_rings(), ids=lambda R: R.coeff.kind)
def test_equality_does_not_depend_on_construction(ring):
    # a series built through the kernel, or from values that are not in
    # canonical form, equals the same element built from its canonical
    # values, and reads the same terms, support and literal
    R, A = ring, ring.coeff
    rng = random.Random(7)

    def agree(built, want):
        fresh = R.from_terms(dict(want.terms))
        assert_canonical(built)
        assert built == fresh and fresh == built
        assert built.terms == fresh.terms and built.support() == fresh.support()
        assert repr(built) == repr(fresh)

    for _ in range(6):
        u, v = random_series(R, rng, terms=4), random_unit(R, rng, terms=4)
        agree((u * v) * v.inverse(), u)
        assert (u + (-u)).is_zero() and u + (-u) == R.zero() == u - u
        q, back = (F(3, 2), F(2, 3)) if A.contains_rationals else (5, 5)  # 5 * 5 = 1 mod 12
        agree(u.scale(q).scale(back), u)
        agree(v.inverse().inverse(), v)
        if A.contains_rationals:
            w = random_fiber_one(R, rng, terms=4)
            agree(formal_exp(formal_log(w)), w)
    for built, value in hand_built(R):
        agree(built, R.lift(value))


@pytest.mark.parametrize("make,twist", [(m2_swap, "swap"), (qc4_inv, "inv")])
def test_inverse_and_log_stay_in_the_integer_view(monkeypatch, make, twist):
    # an operand built from values is cleared once, by from_terms; an order-4
    # inverse and a formal log of it clear nothing more and build no value
    # until .terms or augmentation() is read
    A = make()
    R = one_letter(A, 4, twist=twist)
    terms = dict(random_fiber_one(R, random.Random(11), terms=5).terms)
    cleared, rebuilt = [], []
    clear, rebuild = A.clear, A.rebuild

    def counted_clear(values):
        cleared.append(list(values))
        return clear(values)

    def counted_rebuild(vec, den):
        rebuilt.append(vec)
        return rebuild(vec, den)
    monkeypatch.setattr(A, "clear", counted_clear)
    monkeypatch.setattr(A, "rebuild", counted_rebuild)
    u = R.from_terms(terms)
    inv, log = u.inverse(), formal_log(u)
    assert cleared == [list(terms.values())] and rebuilt == []
    assert inv.augmentation() == A.one and len(rebuilt) == 1
    del rebuilt[:]
    words = len(inv.terms) + len(log.terms)
    assert len(rebuilt) == words and inv.terms == inv.terms  # built once, on first read
    assert len(rebuilt) == words and cleared == [list(terms.values())]

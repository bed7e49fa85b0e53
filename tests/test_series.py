import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

from twistdet import (
    AugmentationNotOne,
    AugmentationNotUnit,
    IntegersMod,
    LiteralSyntaxError,
    NeedsRationalCoefficients,
    NotAUnit,
    NotInvertible,
    RationalField,
    RationalMatrixRing,
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
from twistdet.cli import main
from twistdet.errors import ValidationError
from twistdet.selftest import (
    free_yz,
    m2_nonintegral,
    m2_swap,
    m2_two_twists,
    qc4_inv,
    random_fiber_one,
    random_invertible_matrix,
    random_kernel,
    random_kernel_matrix,
    random_series,
    random_unipotent_matrix,
    random_unit,
)

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


def test_a_repeated_letter_is_refused_with_its_document_path(qq):
    # SeriesRing's own refusal names the field of a series ring document
    with pytest.raises(ValidationError) as caught:
        SeriesRing(qq, alphabet=("x", "y", "x"), order=2)
    assert caught.value.path == ("alphabet",)
    assert str(caught.value) == "alphabet letters must be distinct single characters"


def test_with_order_truncates(qq):
    R = SeriesRing(qq, order=4)
    u = (R.one() + R.letter("x")).power(3)
    v = u.truncated(2)
    assert poly(v) == {0: F(1), 1: F(3), 2: F(3)}
    assert R.with_order(2).order == 2


def test_truncated_refuses_an_order_above_the_rings(qq):
    # the inverse of 1 + x at order 2 knows nothing of degrees 3 to 5: read
    # at order 5 it would be 1 - x + x^2, whose product with 1 + x is 1 + x^3
    R = SeriesRing(qq, order=2)
    inv = (R.one() + R.letter("x")).inverse()
    with pytest.raises(ValueError, match="order"):
        inv.truncated(5)
    assert inv.truncated(2) == inv
    assert poly(inv.truncated(1)) == {0: F(1), 1: F(-1)}


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
        # one twisted letter, at orders that cross several shifts: the
        # kernel pairs terms by degree and moves by shift (M2(Q):p above too)
        SeriesRing(m2, alphabet=("x",), twist={"x": "swap"}, order=8),
        SeriesRing(m2_two_twists, alphabet=("x",), twist={"x": "shear"}, order=8),
        SeriesRing(qc4_inv(), alphabet=("x",), twist={"x": "inv"}, order=6),
        # one untwisted letter: the kernel pairs terms by degree
        SeriesRing(z12, alphabet=("x",), order=12),
        SeriesRing(qq, alphabet=("x",), order=8),
        SeriesRing(m2, alphabet=("x",), order=5),
        SeriesRing(qc4_inv(), alphabet=("x",), order=5),
        SeriesRing(free_yz(), alphabet=("x",), order=4),
        SeriesRing(qq, alphabet=("x",), order=6, letters_commute=True),
        # twists of distinct factors, 2 and 3: their lcm 6 is no factor of either
        SeriesRing(m2_factors_2_3(), alphabet=xy, twist={"x": "two", "y": "three"}, order=4),
        SeriesRing(m2_factors_2_3(), alphabet=("x",), twist={"x": "two"}, order=6),
    ]


def m2_factors_2_3():
    """M2(Q) with conjugations whose inverses have factors 2 and 3."""
    ring = RationalMatrixRing(2)
    ring.register_conjugation("two", [[2, 0], [0, 1]])
    ring.register_conjugation("three", [[3, 1], [0, 1]])
    assert [ring.automorphism(n).inverse.factor for n in ("two", "three")] == [2, 3]
    return ring


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
    # Horner's rule runs inside the kernel as h = h*theta + c_k: theta is
    # set up once, as the one right operand of all N + 1 steps, each one pair
    # loop cut at degree N - k for k = N down to 0, with h's rows (starting
    # from 0) as its left rows and no product kernel call
    R, rng = two_letter(m2, order, twist={"x": "swap"}), random.Random(order)
    setups, loops = [], []
    left_rows, convolve = series_module._left_rows, series_module._convolve

    def counted_rows(R, ops, *args):
        operands = list(ops.values())
        den = left_rows(R, ops, *args)
        setups.append((operands, args, list(ops.values())))
        return den

    def counted_convolve(R, pairs, *args):
        loops.append((*args[:2], [right for _, right in pairs], [rows for rows, _ in pairs]))
        return convolve(R, pairs, *args)
    monkeypatch.setattr(series_module, "_left_rows", counted_rows)
    monkeypatch.setattr(series_module, "_convolve", counted_convolve)
    u, k = random_fiber_one(R, rng, terms=5), random_kernel(R, rng, terms=5)
    for f, arg, theta in ((formal_log, u, u - R.one()), (formal_exp, k, k)):
        del kernel_calls[:], setups[:], loops[:]
        f(arg)
        assert kernel_calls == [("power", theta)]
        assert [(lo, room) for lo, room, *_ in loops] == [(0, room) for room in range(order + 1)]
        assert len({tuple(map(id, rights)) for _, _, rights, _ in loops}) == 1
        assert [by_key[()] for _, _, ((by_key, _),), _ in loops[:1]] == [theta._kernel_rows()]
        (thetas, args, _), *steps = setups
        assert thetas == [theta] and args == (None, 1)  # swap has factor 1, so M = 1
        assert len(steps) == order + 1 and all(len(ops) == 1 and not args for ops, args, _ in steps)
        assert steps[0][0] == [R.zero()]
        assert all(rows is lefts[0] for (_, _, (rows,)), (*_, lefts) in zip(steps, loops))


def _recorded_moves(monkeypatch):
    """A list that gets (table id, key, word) for each row that
    `series._moved_rows` appends to by_key[key], for a right operand's move
    table by_key and each nonempty key of it: the key asked for and the
    suffixes it is extended from."""
    moves, moved_rows = [], series_module._moved_rows

    def recorded(by_key, key, room):
        done = {k: len(rows) for k, rows in by_key.items()}
        moved = moved_rows(by_key, key, room)
        moves.extend((id(by_key), k, info[1]) for k, rows in by_key.items() if k
                     for info, _ in rows[done.get(k, 0):])
        return moved
    monkeypatch.setattr(series_module, "_moved_rows", recorded)
    return moves


def test_log_and_exp_move_each_theta_row_past_each_key_once(monkeypatch, m2):
    # theta is the right operand of every Horner step, so over M2(Q):swap at
    # order 6 each (key, theta word) is moved at most once per log or exp,
    # and only theta's words are moved
    R, rng = two_letter(m2, 6, twist={"x": "swap"}), random.Random(6)
    moves = _recorded_moves(monkeypatch)
    u, k = random_fiber_one(R, rng, terms=6), random_kernel(R, rng, terms=6)
    for f, arg, theta in ((formal_log, u, u - R.one()), (formal_exp, k, k)):
        del moves[:]
        f(arg)
        pairs = [(key, w) for _, key, w in moves]
        assert pairs and len(pairs) == len(set(pairs))
        assert {w for _, w in pairs} <= set(theta.vecs)


def test_solve_pass_reads_n_pairs_per_entry_and_moves_each_y_row_once(monkeypatch, m2):
    # each degree d of each entry of a 3x3 inverse is one pair loop over the
    # n pairs (q_it, y_tj) that reads exactly degree d, and each (key, word)
    # of an entry of y is moved at most once in the whole inverse
    R, rng = two_letter(m2, 5, twist={"x": "swap"}), random.Random(41)
    m = random_invertible_matrix(R, rng, 3)
    calls, convolve = [], series_module._convolve

    def counted_convolve(R, pairs, *args):
        calls.append((len(pairs), *args[:2]))
        return convolve(R, pairs, *args)
    monkeypatch.setattr(series_module, "_convolve", counted_convolve)
    moves = _recorded_moves(monkeypatch)
    inv = mat_invert(m)
    assert calls == [(3, d, d) for d in range(1, R.order + 1) for _ in range(9)]
    assert moves and len(moves) == len(set(moves))
    monkeypatch.undo()
    assert ref_mat_mul(m, inv) == SeriesMatrix.identity(R, 3)


def _word_path(*args):
    raise AssertionError("the word path reached")


def _dots_in(monkeypatch, name):
    """A list that gets the number of pairs of each `A.dot` call made inside
    `series.<name>`, a solve pass (`_solve`) or a log or exp pass
    (`_power_sum`); `series._convolve` and `series._moved_rows`, the word
    path's pair loop and move table, refuse to run."""
    calls, run = [], getattr(series_module, name)

    def counted_run(first, *args):
        A = (first if isinstance(first, SeriesRing) else first.ring).coeff
        dot = A.dot

        def counted(xs, ys):
            calls.append(len(xs))
            return dot(xs, ys)
        A.dot = counted
        try:
            return run(first, *args)
        finally:
            del A.dot

    monkeypatch.setattr(series_module, name, counted_run)
    monkeypatch.setattr(series_module, "_convolve", _word_path)
    monkeypatch.setattr(series_module, "_moved_rows", _word_path)
    return calls


ONE_LETTER_COEFFS = [(lambda: IntegersMod(101), None), (RationalField, None),
                     (m2_two_twists, None), (qc4_inv, None), (m2_two_twists, "swap"),
                     (m2_two_twists, "shear"), (m2_nonintegral, "p"), (qc4_inv, "inv")]
ONE_LETTER_IDS = ["Z/101", "Q", "M2(Q)", "Q[C4]", "M2(Q):swap", "M2(Q):shear", "M2(Q):p",
                  "Q[C4]:inv"]


@pytest.mark.parametrize("make, twist", ONE_LETTER_COEFFS, ids=ONE_LETTER_IDS)
def test_one_letter_solve_is_one_dot_per_entry_and_degree(monkeypatch, make, twist):
    # over one letter, twisted or not, an inverse and a mat_invert solve by
    # degree: no `_convolve` call, no move table, and at most one A.dot per
    # (entry, output degree)
    rng = random.Random(53)
    R = one_letter(make(), 8, twist=twist)
    u, m = R.lift(R.coeff.random_unit(rng)) + dense_kernel(R, rng), _dense_unit_matrix(R, rng, 3)
    calls = _dots_in(monkeypatch, "_solve")
    inv = u.inverse()
    assert 0 < len(calls) <= R.order
    del calls[:]
    m_inv = mat_invert(m)
    assert 0 < len(calls) <= 9 * R.order
    monkeypatch.undo()
    assert ref_mul(u, inv) == R.one() == ref_mul(inv, u)
    assert ref_mat_mul(m, m_inv) == SeriesMatrix.identity(R, 3) == ref_mat_mul(m_inv, m)


@pytest.mark.parametrize("make, twist", ONE_LETTER_COEFFS[1:], ids=ONE_LETTER_IDS[1:])
def test_one_letter_log_and_exp_are_one_dot_per_step_and_degree(monkeypatch, make, twist):
    # over one letter a log or exp is one Horner pass on lists by degree: at
    # most one A.dot per (step, output degree), N(N + 1)/2 in all, with no
    # word-path pair loop or move table and no kernel rows of h or theta
    R = one_letter(make(), 8, twist=twist)
    rng, one = random.Random(59), R.one()
    u, k = one + dense_kernel(R, rng), dense_kernel(R, rng)
    calls = _dots_in(monkeypatch, "_power_sum")
    monkeypatch.setattr(TwistedSeries, "_kernel_rows", _no_kernel_rows)
    log = formal_log(u)
    assert 0 < len(calls) <= R.order * (R.order + 1) // 2
    del calls[:]
    exp = formal_exp(k)
    assert 0 < len(calls) <= R.order * (R.order + 1) // 2
    monkeypatch.undo()
    assert log == ref_power_sum(u - one, lambda n: F((-1) ** (n + 1), n))
    assert exp == ref_add(one, ref_power_sum(k, lambda n: F(1, math.factorial(n))))


def _no_kernel_rows(s):
    raise AssertionError("kernel rows built")


@pytest.mark.parametrize("A, c", [(IntegersMod(101), 7), (RationalField(), F(3, 2))],
                         ids=["Z/101", "Q"])
def test_sparse_one_letter_inverse_visits_order_times_terms_pairs(monkeypatch, A, c):
    # (1 + c*x^300)^-1 = 1 - c*x^300 + c^2*x^600 at order 600: q has one
    # row, so the solve pass visits at most one pair per degree, not the
    # order^2 / 2 a list of q by degree would
    R = one_letter(A, 600)
    u = R.from_terms({(): 1, "x" * 300: c})
    calls = _dots_in(monkeypatch, "_solve")
    inv = u.inverse()
    assert 0 < sum(calls) <= R.order and len(calls) <= R.order
    monkeypatch.undo()
    assert inv == R.from_terms({(): 1, "x" * 300: -c, "x" * 600: c * c})
    assert ref_mul(u, inv) == R.one() == ref_mul(inv, u)


def _dense_allocations(monkeypatch):
    """A list that gets the size of each block of positive length that a
    length-block view builds: an operand's or q's blocks
    (`series._LengthBlocks.blocks`) and each sum of Kronecker products
    (`series._LengthBlocks.dot`)."""
    sizes, view = [], series_module._LengthBlocks
    blocks, dot = view.blocks, view.dot

    def recorded_blocks(V, rows):
        out = blocks(V, rows)
        sizes.extend(len(block) for length, block in out or () if length)
        return out

    def recorded_dot(V, xs, ys):
        out = dot(V, xs, ys)
        if len(out) > 1:  # a block of length 0 has one entry
            sizes.append(len(out))
        return out
    monkeypatch.setattr(view, "blocks", recorded_blocks)
    monkeypatch.setattr(view, "dot", recorded_dot)
    return sizes


@pytest.mark.parametrize("A, c", [(IntegersMod(101), 7), (RationalField(), F(3, 2))],
                         ids=["Z/101", "Q"])
def test_sparse_two_letter_work_makes_no_dense_block(monkeypatch, A, c):
    # at order 16 a dense block of y would hold 2^16 entries: sparse work
    # over two letters holds no dense block or accumulator beyond constants
    R = two_letter(A, 16)
    u = R.from_terms({(): 1, "xyxy": c})
    s = R.from_terms({(): 1, "xyx": 2, "yyyyy": 3})
    t = R.from_terms({(): 1, "xxx": c, "yxyx": -1})
    sizes = _dense_allocations(monkeypatch)
    inv, product = u.inverse(), s * t
    log = formal_log(R.one() + R.from_terms({"xy": 1, "yyy": c})) if A.contains_rationals else None
    assert sizes == []
    monkeypatch.undo()
    assert R._blocks  # the ring runs dense operands on its length-block view
    assert inv == R.from_terms({"xyxy" * i: (-c) ** i for i in range(5)})
    assert product == ref_mul(s, t)
    if log is not None:
        k = R.from_terms({"xy": 1, "yyy": c})
        assert log == ref_power_sum(k, lambda n: F((-1) ** (n + 1), n))


@pytest.mark.parametrize("twists", ["swap,shear"])
def test_matrix_product_moves_each_right_row_past_each_key_once(monkeypatch, m2_two_twists,
                                                                twists):
    # a 3x3 product is one sums_of_products call; each right entry, over its
    # own denominator, keeps one move table for the call, so each (entry,
    # key, word) is moved at most once however many left rows share the key
    rng = random.Random(47)
    R = two_letter(m2_two_twists, 4, twist={"x": "swap", "y": "shear"})
    a = random_kernel_matrix(R, rng, 3, 3, 5) + SeriesMatrix.identity(R, 3)
    b = SeriesMatrix(R, [[random_series(R, rng, terms=5).scale(F(1, 2 + i + j))
                          for j in range(3)] for i in range(3)])
    assert len({e.den for row in b.rows for e in row}) > 1
    calls, kernel = [], series_module.sums_of_products

    def counted(R, sums):
        calls.append(len(sums))
        return kernel(R, sums)
    monkeypatch.setattr(matrices_module, "sums_of_products", counted)
    moves = _recorded_moves(monkeypatch)
    product = a * b
    assert calls == [9]
    assert moves and len(moves) == len(set(moves))
    assert len({table for table, _, _ in moves}) <= 9  # one table per right entry
    assert {w for _, _, w in moves} <= {w for row in b.rows for e in row for w in e.vecs}
    monkeypatch.undo()
    assert product == ref_mat_mul(a, b)


def _recorded_diagonals(monkeypatch, R):
    """[forms, acts]: forms gets, by id of its flat list, (form, vectors by
    degree, reach, end) of each right operand whose diagonal form
    `series._diagonals` builds or extends, as of its last call, and acts
    counts the view actions of the letter's inverse twist; the word path's
    pair loop and move table, `series._convolve` and `series._moved_rows`,
    refuse to run."""
    record, build, act = [{}, 0], series_module._diagonals, R._shift.act

    def recorded(R, dense, reach, end, form=None):
        form = build(R, dense, reach, end, form)
        record[0][id(form[0])] = (form, dense, reach, end)
        return form

    def counted(v):
        record[1] += 1
        return act(v)
    monkeypatch.setattr(series_module, "_diagonals", recorded)
    monkeypatch.setattr(R._shift, "act", counted)
    monkeypatch.setattr(series_module, "_convolve", _word_path)
    monkeypatch.setattr(series_module, "_moved_rows", _word_path)
    return record


def _moved_entries(forms, zero, reach=None):
    """(flat list id, degree j, shift k) of each entry of the recorded
    diagonal forms that is a vector of degree j moved by k >= 1 shifts, up
    to the form's reach (or `reach`) and its last diagonal: the vector
    `zero` (that object) is carried over and not moved."""
    return [(f, j, k) for f, (_, dense, most, end) in forms.items()
            for j, v in enumerate(dense) if v is not zero
            for k in range(1, (most if reach is None else reach) + 1) if j + k <= end]


@pytest.mark.parametrize("make, twist, order", [(m2_two_twists, "swap", 8),
                                                (m2_two_twists, "shear", 8),
                                                (m2_nonintegral, "p", 6), (qc4_inv, "inv", 6)],
                         ids=["M2(Q):swap", "M2(Q):shear", "M2(Q):p", "Q[C4]:inv"])
def test_one_letter_moves_each_right_degree_by_each_shift_once(monkeypatch, make, twist, order):
    # over one twisted letter a right operand is held by its diagonals, entry
    # k of diagonal d its vector of degree d - k moved by xi^-k, so in a 3x3
    # product (one sums_of_products call, each right entry over its own
    # denominator), in the solve pass of a 3x3 mat_invert and in a log or
    # exp pass, each (right operand, degree, shift) is moved at most once:
    # there are as many view actions as moved entries. Only the degrees an
    # operand has are moved, and a sparse left moves none past its highest
    # degree; over M2(Q):p each move raises a denominator by 6
    rng = random.Random(47)
    R = one_letter(make(), order, twist=twist)
    a = random_kernel_matrix(R, rng, 3, 3, 5) + SeriesMatrix.identity(R, 3)
    b = SeriesMatrix(R, [[random_series(R, rng, terms=5).scale(F(1, 2 + i + j))
                          for j in range(3)] for i in range(3)])
    assert len({e.den for row in b.rows for e in row}) > 1
    m, u = _dense_unit_matrix(R, rng, 3), R.one() + dense_kernel(R, rng)
    sparse, dense = R.from_terms({(): R.coeff.one, "xx": R.coeff.one}), dense_series(R, rng, order)
    calls, kernel = [], series_module.sums_of_products

    def counted(R, sums):
        calls.append(len(sums))
        return kernel(R, sums)
    monkeypatch.setattr(matrices_module, "sums_of_products", counted)
    record = _recorded_diagonals(monkeypatch, R)
    product = a * b
    moved = _moved_entries(record[0], R._zero_vec)
    assert calls == [9]
    assert moved and record[1] == len(moved)
    assert len(record[0]) <= 9  # one diagonal form per right entry
    assert {j for _, j, _ in moved} <= {len(w) for row in b.rows for e in row for w in e.vecs}
    theta = u - R.one()
    for op, forms in ((lambda: mat_invert(m), 9), (lambda: formal_log(u), 1),
                      (lambda: formal_exp(theta), 1)):
        record[0].clear()
        record[1] = 0
        op()
        moved = _moved_entries(record[0], R._zero_vec)
        assert moved and record[1] == len(moved) and len(record[0]) == forms
    assert {j for _, j, _ in moved} <= {len(w) for w in theta.vecs}
    record[0].clear()
    record[1] = 0
    sparse_product = sparse * dense
    moved = _moved_entries(record[0], R._zero_vec, reach=2)
    assert moved and record[1] == len(moved)
    monkeypatch.undo()
    assert product == ref_mat_mul(a, b) and sparse_product == ref_mul(sparse, dense)


@pytest.mark.parametrize("twist", [None, "swap"], ids=["M2(Q)", "M2(Q):swap"])
def test_one_letter_product_reads_only_degrees_its_operands_reach(monkeypatch, m2, twist):
    # at order 10^6 a product of two 2-term series reads the output degrees
    # up to the sum of its operands' highest degrees, 3 of them here, not
    # every degree up to the order
    R = one_letter(m2, 10 ** 6, twist=twist)
    f = m2.parse_element_literal
    s = R.from_terms({(): f("1,2;3,4"), "x": f("0,1;2,0")})
    t = R.from_terms({(): f("2,0;1,1"), "x": f("1,1;0,3")})
    degrees, pairs_at = [], series_module._pairs_at

    def counted(d, sides):
        degrees.append(d)
        return pairs_at(d, sides)
    monkeypatch.setattr(series_module, "_pairs_at", counted)
    product = s * t
    assert 0 < len(degrees) <= 3
    monkeypatch.undo()
    assert product == ref_mul(s, t)


def _gapped(R, rng, const, degrees=(1, 2, 4, 5, 7)):
    """const plus random terms at `degrees`, which fill more than half of
    their span and leave gaps (3 and 6 by default)."""
    A = R.coeff
    return R.from_terms([((), const)] + [("x" * d, A.random_element(rng)) for d in degrees])


@pytest.mark.parametrize("make, twist", [(m2_nonintegral, "p"), (qc4_inv, "inv")],
                         ids=["M2(Q):p", "Q[C4]:inv"])
def test_twisted_lefts_with_gaps_are_read_as_runs(monkeypatch, make, twist):
    # a left operand over one twisted letter that fills more than half of
    # its degrees is read as a run, gaps and all, against the diagonals of
    # the right: in a product, in the solve pass of a 3x3 mat_invert whose
    # q has gaps, in LDU and D (whose Schur complements take the same pair
    # loop), and in log and exp. Over M2(Q):p (factor 6) left degree k is
    # scaled by L / 6^k, so the scaling meets the run's gaps
    rng, A = random.Random(61), make()
    R = one_letter(A, 8, twist=twist)
    runs, by_rows = [], series_module._by_rows

    def recorded(rows, zero):
        side = by_rows(rows, zero)
        if side[3] is None and any(v is zero for v in side[2]):
            runs.append(side[:2])
        return side
    monkeypatch.setattr(series_module, "_by_rows", recorded)
    s, t = _gapped(R, rng, A.random_element(rng)), dense_series(R, rng, 8)
    product = s * t
    assert runs
    m = SeriesMatrix(R, [[_gapped(R, rng, A.one if i == j else A.zero) for j in range(3)]
                         for i in range(3)])
    del runs[:]
    m_inv = mat_invert(m)
    assert runs
    del runs[:]
    f, det = ldu_decompose(m), dieudonne_det(m)
    assert runs
    one, k = R.one(), _gapped(R, rng, A.zero)
    log, exp = formal_log(one + k), formal_exp(k)
    monkeypatch.undo()
    assert product == ref_mul(s, t)
    assert ref_mat_mul(m, m_inv) == SeriesMatrix.identity(R, 3) == ref_mat_mul(m_inv, m)
    a11, inv, d2 = m.rows[0][0], m.rows[0][0].inverse(), ref_schur(m)
    assert f.l.rows == tuple((ref_mul(row[0], inv),) for row in m.rows[1:])
    assert f.u.rows == (tuple(ref_mul(inv, a) for a in m.rows[0][1:]),)
    assert f.d1 == a11 and f.d2 == d2
    assert det == ref_mul(a11, ref_mul(d2.rows[0][0], ref_schur(d2).rows[0][0]))
    assert log == ref_power_sum(k, lambda n: F((-1) ** (n + 1), n))
    assert exp == ref_add(one, ref_power_sum(k, lambda n: F(1, math.factorial(n))))


@pytest.mark.parametrize("n", [1100, 1101])
def test_words_longer_than_the_recursion_limit(capsys, tmp_path, m2, n):
    # a coefficient crosses a word of n twisted letters by n view actions in
    # a loop, so products and inverses take words longer than the recursion
    # limit; over M2(Q):swap, moving past x^n swaps rows and columns n times
    assert n > sys.getrecursionlimit()
    R, word = one_letter(m2, 1200, twist="swap"), "x" * n
    c, c_inv = (m2.parse_element_literal(e) for e in ("1,2;3,4", "-2,1;3/2,-1/2"))
    moved = c if n % 2 == 0 else m2.parse_element_literal("4,3;2,1")
    w = R.from_terms({word: m2.one})
    assert w * R.lift(c) == R.from_terms({word: moved})
    # (c_inv * (1 + w))^-1 = (1 - w) * c = c - moved * w
    assert (R.lift(c_inv) + R.from_terms({word: c_inv})).inverse() == \
        R.from_terms({(): c, word: m2.neg(moved)})
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"coeff": {"kind": "matrix", "size": 2, "conjugations": {
        "swap": [["0", "1"], ["1", "0"]]}}, "alphabet": ["x"], "twist": {"x": "swap"},
        "order": 1200}))
    lit, neg = ("1,2;3,4", "-1,-2;-3,-4") if n % 2 == 0 else ("4,3;2,1", "-4,-3;-2,-1")
    for argv, result in ((["mul", f'w("{word}")', "[1,2;3,4]"], f'[{lit}]*w("{word}")'),
                         (["inv", f'[-2,1;3/2,-1/2]+[-2,1;3/2,-1/2]*w("{word}")'],
                          f'[1,2;3,4]+[{neg}]*w("{word}")')):
        assert main([argv[0], "--ring", str(ring), *argv[1:]]) == 0
        out = capsys.readouterr()
        assert out.err == "" and json.loads(out.out)["result"] == result


def _dense_unit_matrix(R, rng, n):
    """An n x n matrix of dense series whose augmentation is the identity
    plus a strictly upper triangular part, so it is invertible."""
    A = R.coeff
    return SeriesMatrix(R, [[R.lift(A.one if i == j else A.random_element(rng) if j > i
                                    else A.zero) + dense_kernel(R, rng)
                             for j in range(n)] for i in range(n)])


def test_persistent_right_operands_match_reference(qq):
    # right operands that keep their moved rows for a whole operation, on
    # both sides of the reference products
    rng = random.Random(43)
    p, z12 = m2_nonintegral(), IntegersMod(12)
    pp = two_letter(p, 8, twist={"x": "p", "y": "p^-1"})
    # the key of yyy (factor 216) first meets y at degree 3 and that of
    # xyxy at degree 4; L > 1 over the keys of x, yyy and xyxy
    u = pp.from_terms([((), p.parse_element_literal("2,1;0,1"))]
                      + [(w, _coeff_over(p, rng, d)) for w, d in (("x", 5), ("yyy", 3),
                                                                   ("xyxy", 7))])
    inv = u.inverse()
    assert ref_mul(u, inv) == pp.one() == ref_mul(inv, u)
    # over Z/12 an entry of the inverse is empty at some degree
    z = one_letter(z12, 6)
    m = SeriesMatrix(z, [[z.from_terms([((), 1), ("x", 2), ("xx", 4)]), z.from_terms([("x", 6)])],
                         [z.zero(), z.from_terms([((), 5), ("xxx", 3)])]])
    inv_m = mat_invert(m)
    assert ref_mat_mul(m, inv_m) == SeriesMatrix.identity(z, 2) == ref_mat_mul(inv_m, m)
    assert any(e.vecs and not any(len(w) == d for w in e.vecs)
               for row in inv_m.rows for e in row for d in range(1, 6))
    # 3x3 matrices on one commuting letter, as in the dense benchmark cells
    for A, order in ((IntegersMod(101), 12), (qq, 6)):
        R = SeriesRing(A, alphabet=("x",), order=order, letters_commute=True)
        a = _dense_unit_matrix(R, rng, 3)
        inv_a = mat_invert(a)
        assert ref_mat_mul(a, inv_a) == SeriesMatrix.identity(R, 3) == ref_mat_mul(inv_a, a)
        b = _dense_unit_matrix(R, rng, 3)
        assert a * b == ref_mat_mul(a, b)
    # log and exp over M2(Q):p at order 6, where the keys of h have factors 6^k
    P = one_letter(p, 6, twist="p")
    one = P.one()
    for _ in range(3):
        f, k = random_fiber_one(P, rng, terms=5), random_kernel(P, rng, terms=5)
        assert formal_log(f) == ref_power_sum(f - one, lambda n: F((-1) ** (n + 1), n))
        assert formal_exp(k) == ref_add(one, ref_power_sum(k, lambda n: F(1, math.factorial(n))))
    d = dense_kernel(P, rng)
    assert formal_log(one + d) == ref_power_sum(d, lambda n: F((-1) ** (n + 1), n))


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


def _coeff_over(A, rng, d):
    """A random element, divided by d over a ring containing Q."""
    a = A.random_element(rng)
    return A.scalar_mul(F(1, d), a) if A.contains_rationals else a


def _permuted_matrix(R, rng, perm, unit, words, dens):
    """The n x n matrix with the constant `unit` at (i, perm[i]) and none
    elsewhere, every entry with terms at `words` over the denominator
    dens[k] for the k-th entry, so the entries' denominators differ."""
    A, n = R.coeff, len(perm)
    return SeriesMatrix(R, [[R.from_terms([((), unit if perm[i] == j else A.zero)]
                                          + [(w, _coeff_over(A, rng, dens[(i * n + j) % len(dens)]))
                                             for w in words])
                             for j in range(n)] for i in range(n)])


def test_inverse_over_one_geometric_denominator_matches_reference(qq):
    # an inverse solved over den * g^d at degree d: g = den * dx * L is not 1
    # (dx an lcm of differing denominators, L = 6 from the keys of p and
    # p^-1), or is 1 (Z/12); under a permutation constant an entry's first
    # kernel row is not the empty word
    rng = random.Random(31)
    z12, p = IntegersMod(12), m2_nonintegral()
    q40, z12_2 = one_letter(qq, 40), two_letter(z12, 5)
    pp = two_letter(p, 6, twist={"x": "p", "y": "p^-1"})
    assert p.automorphism("p").factor == p.automorphism("p^-1").factor == 6
    units = [
        q40.from_terms([((), F(17, 19))] + [("x" * d, F(rng.randint(-5, 5), rng.randint(1, 13)))
                                            for d in range(1, 41)]),
        z12_2.from_terms([((), 7), ("x", 6), ("y", 4), ("xy", 3), ("yxy", 9)]),
        pp.from_terms([((), p.parse_element_literal("1,2;0,3"))]
                      + [(w, _coeff_over(p, rng, d))
                         for w, d in (("x", 5), ("y", 3), ("xy", 7), ("yy", 2), ("xyx", 1))]),
    ]
    for u in units:
        inv, R = u.inverse(), u.ring
        assert ref_mul(u, inv) == R.one() == ref_mul(inv, u), R
        assert inv == R.from_terms(inv.terms), R
    matrices = [
        _permuted_matrix(two_letter(qq, 4), rng, (1, 2, 0), F(3, 2), ["x", "yx"], (1, 2, 3, 5, 7)),
        _permuted_matrix(pp, rng, (1, 0), p.parse_element_literal("2,1;1,1"), ["x", "yy"],
                         (1, 5, 3)),
        _permuted_matrix(one_letter(z12, 6), rng, (1, 0), 5, ["x", "xx"], (1,)),
        _permuted_matrix(two_letter(z12, 3), rng, (2, 0, 1), 11, ["y", "xy"], (1,)),
    ]
    for m in matrices:
        R, entries = m.ring, [e for row in m.rows for e in row]
        assert any(e.vecs and () not in e.vecs for e in entries)
        assert len({e.den for e in entries}) > 1 or not R.coeff.contains_rationals
        inv, ident = mat_invert(m), SeriesMatrix.identity(R, m.nrows)
        assert ref_mat_mul(m, inv) == ident == ref_mat_mul(inv, m), R
        assert all(e == R.from_terms(e.terms) for row in inv.rows for e in row), R


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


FOLD_RINGS = [(RationalField, False), (lambda: IntegersMod(7), False),
              (lambda: IntegersMod(12), False), (RationalField, True)]


@pytest.mark.parametrize("make, commute", FOLD_RINGS, ids=["Q", "Z/7", "Z/12", "Q-commuting"])
def test_one_integer_views_fold_pairs_and_drop_words_that_cancel(monkeypatch, make, commute):
    # over Q and Z/m the word path sums each output word's pairs by one
    # A.dot, as over every ring, and a word whose pairs sum to 0 (over Z/m
    # to a nonzero multiple of m) is absent from products, inverses, Schur
    # complements and logs
    R = SeriesRing(make(), alphabet=("x", "y"), order=4, letters_commute=commute)
    A, rng, one = R.coeff, random.Random(29), R.one()
    xy = R.word_from_str("xy")
    s, t = one + dense_kernel(R, rng), dense_series(R, rng, R.order)
    t = t - R.from_terms([(xy, ref_mul(s, t).coefficient(xy))])
    pairs = [a * b for u, a in s.terms.items() for v, b in t.terms.items()
             if R.normalize_word(u + v) == xy]
    assert sum(map(bool, pairs)) > 1 and sum(pairs) % getattr(A, "modulus", 1) == 0
    assert bool(sum(pairs)) == isinstance(A, IntegersMod)
    words = [R.normalize_word(u + v) for u in s.vecs for v in t.vecs
             if len(u) + len(v) <= R.order]
    calls, dot = [], A.dot
    monkeypatch.setattr(A, "dot", lambda xs, ys: calls.append(len(xs)) or dot(xs, ys))
    product = s * t
    assert len(calls) == len(set(words)) and sum(calls) == len(words)
    monkeypatch.undo()
    assert product == ref_mul(s, t) and xy not in product.vecs
    # the solve pass turns the dense inverse of a sparse e back into e
    e = SeriesMatrix(R, [[R.from_terms([((), 1), ("x", 3)]), R.from_terms([("y", 5)])],
                         [R.from_terms([("xy", 2)]), R.from_terms([((), 1), ("yx", 4)])]])
    inv, ident = mat_invert(e), SeriesMatrix.identity(R, 2)
    assert ref_mat_mul(e, inv) == ident == ref_mat_mul(inv, e)
    assert len([w for row in inv.rows for x in row for w in x.vecs]) > 10
    assert mat_invert(inv) == e
    # d2 = a22 - a21 a11^-1 a12 is the sparse c: every other word cancels
    c, a21 = R.from_terms([((), 1), ("x", 2)]), dense_kernel(R, rng)
    a12 = t - R.lift(t.augmentation())
    a22 = ref_add(ref_mul(ref_mul(a21, s.inverse()), a12), c)
    m = SeriesMatrix(R, [[s, a12], [a21, a22]])
    assert ref_schur(m).rows[0][0] == c
    assert dieudonne_det(m) == ref_mul(s, c)
    if A.contains_rationals:  # log turns the dense exp of a sparse k back into k
        k = R.from_terms([("x", 1), ("y", F(1, 2)), ("xy", F(-2, 3))])
        u = ref_add(one, ref_power_sum(k, lambda n: F(1, math.factorial(n))))
        assert formal_exp(k) == u and len(u.vecs) > 10
        assert formal_log(u) == k == ref_power_sum(u - one, lambda n: F((-1) ** (n + 1), n))


def test_word_path_dots_other_views_once_per_output_word(monkeypatch):
    # over every ring the pairs of each output word are gathered for one
    # A.dot: M2(Q):swap, Q, Z/7 and Q on commuting letters
    for A, twist, commute in ((m2_swap(), {"x": "swap"}, False), (RationalField(), None, False),
                              (IntegersMod(7), None, False), (RationalField(), None, True)):
        R = SeriesRing(A, alphabet=("x", "y"), twist=twist, order=4, letters_commute=commute)
        rng = random.Random(31)
        s, t = dense_series(R, rng, 3), random_series(R, rng, terms=5)
        pairs = [R.normalize_word(u + v) for u in s.vecs for v in t.vecs
                 if len(u) + len(v) <= R.order]
        calls, dot = [], A.dot
        monkeypatch.setattr(A, "dot", lambda xs, ys: calls.append(len(xs)) or dot(xs, ys))
        product = s * t
        assert len(calls) == len(set(pairs)) and sum(calls) == len(pairs)
        monkeypatch.undo()
        assert product == ref_mul(s, t)


# -- the length-block view: dense operands as Kronecker products by length -------
# Over Q and Z/m, on two or more letters that do not commute, an operand
# whose every length fills more than half of its k^l words is dense; a call
# whose operands are all dense runs on the degree drivers over the
# length-block view, where a pair of blocks is their Kronecker product, and
# any other call on the word path.

BLOCK_RINGS = [(RationalField, "xy", 5), (RationalField, "xyz", 4),
               (lambda: IntegersMod(7), "xy", 5), (lambda: IntegersMod(7), "xyz", 4),
               (lambda: IntegersMod(12), "xy", 5), (lambda: IntegersMod(12), "xyz", 4)]
BLOCK_IDS = ["Q-xy", "Q-xyz", "Z/7-xy", "Z/7-xyz", "Z/12-xy", "Z/12-xyz"]
BLOCK_KINDS = ("full", "half", "over", "sparse")


def _nonzero_element(A, rng):
    a = A.random_element(rng)
    while a == A.zero:
        a = A.random_element(rng)
    return a


def _series_of_kinds(R, rng, const, kinds):
    """A series with constant const whose length l >= 1 is of kind
    kinds[l - 1]: all k^l words (full), exactly half of them, rounded down
    (half), one word more (over), or one word (sparse)."""
    A, k, terms = R.coeff, len(R.alphabet), [((), const)]
    for length, kind in enumerate(kinds, 1):
        words = list(itertools.product(range(k), repeat=length))
        count = {"full": len(words), "half": len(words) // 2, "over": len(words) // 2 + 1,
                 "sparse": 1}[kind]
        terms += [(w, _nonzero_element(A, rng)) for w in rng.sample(words, count)]
    return R.from_terms(terms)


def _mixed_blocks(R, rng, shift, const):
    """A series whose length l < N is of kind BLOCK_KINDS[(l + shift) % 4]
    and whose length N has one word: it is not dense."""
    kinds = [BLOCK_KINDS[(length + shift) % 4] for length in range(1, R.order)]
    return _series_of_kinds(R, rng, const, kinds + ["sparse"])


def _dense_blocks(R, rng, shift, const):
    """A dense series, whose lengths 1..N are full and over in turn."""
    return _series_of_kinds(R, rng, const, [("full", "over")[(length + shift) % 2]
                                            for length in range(1, R.order + 1)])


def _counted_view_dots(monkeypatch):
    """A list that gets one entry per sum of Kronecker products
    (`series._LengthBlocks.dot`)."""
    calls, dot = [], series_module._LengthBlocks.dot

    def counted(V, xs, ys):
        calls.append(None)
        return dot(V, xs, ys)
    monkeypatch.setattr(series_module._LengthBlocks, "dot", counted)
    return calls


def _view_passes(monkeypatch):
    """A list that gets, for each solve or Horner pass on the degree drivers
    (on a block ring, over its length-block view), whether it ran to the end
    (False where it met a thin length and left the pass to the word path)."""
    passes = []
    for name in ("_solve_by_degree", "_power_sum_by_degree"):
        def recorded(*args, run=getattr(series_module, name)):
            out = run(*args)
            passes.append(out is not None)
            return out
        monkeypatch.setattr(series_module, name, recorded)
    return passes


@pytest.mark.parametrize("make, letters, order", BLOCK_RINGS, ids=BLOCK_IDS)
def test_block_loop_matches_per_pair_reference(monkeypatch, make, letters, order):
    # mixed operands (full, exactly-half, just-over-half and sparse lengths)
    # run on the word path, with no Kronecker product, and dense ones (full
    # and just-over-half lengths) on the length-block view: on both,
    # products, a 3x3 matrix product, D, inverses, 2x2 and 3x3 mat_inverts
    # and (over Q) log and exp match the per-pair references
    R = SeriesRing(make(), alphabet=tuple(letters), order=order)
    A, rng, one = R.coeff, random.Random(order * 10 + len(letters)), R.one()
    mixed = [_mixed_blocks(R, rng, shift, A.one) for shift in range(4)]
    dense = [_dense_blocks(R, rng, shift, A.one) for shift in range(4)]
    assert all(s._length_blocks() is False for s in mixed)
    assert all([d for d, _ in s._length_blocks()] == list(range(order + 1)) for s in dense)
    calls = _counted_view_dots(monkeypatch)
    for ops in (mixed, dense):
        on_view = ops is dense
        for i, j in ((0, 1), (2, 3), (0, 2), (1, 3)):
            assert ops[i] * ops[j] == ref_mul(ops[i], ops[j])
        assert bool(calls) == on_view
        del calls[:]
        a = SeriesMatrix(R, [[ops[(i + j) % 4] for j in range(3)] for i in range(3)])
        b = SeriesMatrix(R, [[ops[(i + 2 * j + 1) % 4] for j in range(3)] for i in range(3)])
        assert a * b == ref_mat_mul(a, b) and bool(calls) == on_view
        del calls[:]
        m = SeriesMatrix(R, [[ops[0], ops[1] - one], [ops[2] - one, ops[3]]])
        assert dieudonne_det(m) == ref_mul(ops[0], ref_schur(m).rows[0][0])
        assert bool(calls) == on_view
        del calls[:]
        for u in ops:
            inv = u.inverse()
            assert ref_mul(u, inv) == one == ref_mul(inv, u)
        assert bool(calls) == on_view
        del calls[:]
        # augmentation: the identity plus a strictly upper part, which for the
        # dense operands is 0, as a sum of their kernels can cancel a word
        # and leave q = -inv0 * x+ thin
        for n in (2, 3):
            m = SeriesMatrix(R, [[ops[(i + j) % 4] - one + R.lift(
                A.one if i == j else A.random_element(rng) if j > i and not on_view
                else A.zero) for j in range(n)] for i in range(n)])
            assert ref_mat_mul(m, mat_invert(m)) == SeriesMatrix.identity(R, n)
        assert bool(calls) == on_view
        del calls[:]
        if A.contains_rationals:
            k = ops[1] - one
            assert formal_log(one + k) == ref_power_sum(k, lambda n: F((-1) ** (n + 1), n))
            assert formal_exp(k) == ref_add(one, ref_power_sum(k, lambda n: F(1, math.factorial(n))))
            assert bool(calls) == on_view
            del calls[:]


@pytest.mark.parametrize("make, letters, order", BLOCK_RINGS[4:], ids=BLOCK_IDS[4:])
def test_block_loop_drops_a_word_whose_pairs_sum_to_a_multiple_of_m(monkeypatch, make, letters,
                                                                    order):
    # over Z/12 a word of length N whose pairs sum to a nonzero multiple of
    # 12 is absent from the product: on the word path for mixed operands,
    # and from a sum of Kronecker products on the length-block view for
    # dense ones
    R = SeriesRing(make(), alphabet=tuple(letters), order=order)
    rng = random.Random(61)
    for blocks in (_mixed_blocks, _dense_blocks):
        s, t = blocks(R, rng, 0, 1), blocks(R, rng, 1, 1)
        for w in itertools.product(range(len(letters)), repeat=R.order):
            c = t.coefficient(w)
            t2 = t - R.from_terms([(w, ref_mul(s, t).coefficient(w))])
            pairs = [a * b for u, a in s.terms.items() for v, b in t2.terms.items() if u + v == w]
            if sum(pairs) and c != t2.coefficient(w) and t2.coefficient(w):
                break
        assert sum(map(bool, pairs)) > 1 and sum(pairs) % 12 == 0 and sum(pairs)
        dense = blocks is _dense_blocks
        assert (s._length_blocks() is not False) == (t2._length_blocks() is not False) == dense
        calls = _counted_view_dots(monkeypatch)
        product = s * t2
        monkeypatch.undo()
        assert bool(calls) == dense
        assert product == ref_mul(s, t2) and w not in product.vecs


@pytest.mark.parametrize("make", [RationalField, lambda: IntegersMod(101)], ids=["Q", "Z/101"])
def test_dense_two_letter_inverses_run_on_the_view(monkeypatch, make):
    # over a one-integer view, q = -inv0 * x+ of a series is x's rows times
    # one integer per length, with no A.dot call, and of a 2x2 matrix whose
    # inv0 has two nonzero entries per row one A.dot per word of q; both
    # solve passes run to the end on the length-block view
    R, rng = two_letter(make(), 6), random.Random(67)
    A = R.coeff
    u = R.lift(A.one) + dense_kernel(R, rng)
    m = SeriesMatrix(R, [[R.lift(A.one) + dense_kernel(R, rng), R.lift(A.one) + dense_kernel(R, rng)],
                         [R.lift(A.zero) + dense_kernel(R, rng), R.lift(A.one + A.one) + dense_kernel(R, rng)]])
    calls, dot = [], A.dot
    monkeypatch.setattr(A, "dot", lambda xs, ys: calls.append(len(xs)) or dot(xs, ys))
    passes = _view_passes(monkeypatch)
    inv = u.inverse()
    assert calls == []
    m_inv = mat_invert(m)
    assert passes == [True, True]
    # inv0 = [[1, -1/2], [0, 1/2]], so q_0j has the words of x+_0j and
    # x+_1j and q_1j those of x+_1j, and each word of q is one A.dot
    x = [{w for w in e.vecs if w} for row in m.rows for e in row]
    assert len(calls) == sum(len(x[j] | x[2 + j]) + len(x[2 + j]) for j in range(2))
    monkeypatch.undo()
    assert ref_mul(u, inv) == R.one() == ref_mul(inv, u)
    assert ref_mat_mul(m, m_inv) == SeriesMatrix.identity(R, 2)


def test_passes_that_meet_a_thin_length_fall_back_to_the_word_path(monkeypatch):
    # over Q<x,y,z>@5, q = -(x + y) of an inverse and theta = x + y of a log
    # are dense, but their square fills 4 of 9 words at length 2: each pass
    # starts again on the word path, with no block above length 2
    R = SeriesRing(RationalField(), alphabet=("x", "y", "z"), order=5)
    u, one = R.from_terms({(): 1, "x": 1, "y": 1}), R.one()
    sizes, passes = _dense_allocations(monkeypatch), _view_passes(monkeypatch)
    inv, log = u.inverse(), formal_log(u)
    assert passes == [False, False] and sizes and max(sizes) <= 3 ** 2
    monkeypatch.undo()
    assert ref_mul(u, inv) == one == ref_mul(inv, u)
    assert log == ref_power_sum(u - one, lambda n: F((-1) ** (n + 1), n))


def test_dense_q_with_a_thin_y_falls_back_to_the_word_path(monkeypatch):
    # over Z/12<x,y>@16, q = -(2x + 6y) is dense, y_1 = -(2x + 6y) too, but
    # y_2 = 4xx fills 1 of 4 words: the solve pass starts again on the word
    # path, with no block above length 2, and
    # (1 + 2x + 6y)^-1 = 1 + 6y + sum_n (-2)^n x^n
    R = two_letter(IntegersMod(12), 16)
    u = R.from_terms({"": 1, "x": 2, "y": 6})
    sizes, passes = _dense_allocations(monkeypatch), _view_passes(monkeypatch)
    inv = u.inverse()
    assert passes == [False] and sizes and max(sizes) <= 2 ** 2
    monkeypatch.undo()
    assert inv == R.from_terms({"y": 6, **{"x" * n: (-2) ** n for n in range(R.order + 1)}})


def test_word_codes_are_built_by_halves(qq):
    # a word's code is its letters 1..k read in base k, built by halves: the
    # same integer as a letter-by-letter loop, and a 200,000-letter word
    # takes no quadratic time (the loop took 3.5 s on an Intel Xeon)
    R, rng = SeriesRing(qq, alphabet=("x", "y", "z"), order=10 ** 6), random.Random(71)
    for n in (0, 1, 2, 63, 64, 65, 129, 1000, 3001):
        word = tuple(rng.randrange(3) for _ in range(n))
        code = 0
        for i in word:
            code = code * 3 + i + 1
        assert R._word_info(word)[2:4] == (code, 3 ** n)
    word = tuple(rng.randrange(3) for _ in range(200_000))
    start = time.perf_counter()
    R._word_info(word)
    assert time.perf_counter() - start < 0.5


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
def test_inverse_makes_one_solve_pass_and_no_product_call(monkeypatch, kernel_calls, m2, order):
    # x's own entries are set up as kernel rows once, the rows of
    # q = -inv0 * x+ are read off them with no product kernel call, and the
    # degrees of the inverse are one solve pass, for series and for series
    # matrices alike
    rng, setups = random.Random(order), []
    R = SeriesRing(m2, alphabet=("x", "y"), twist={"x": "swap"}, order=order)
    u, m = random_unit(R, rng, terms=6), random_invertible_matrix(R, rng, 3)
    left_rows = series_module._left_rows

    def counted_rows(R, left):
        setups.append(list(left.values()))
        return left_rows(R, left)
    monkeypatch.setattr(series_module, "_left_rows", counted_rows)
    for invert, x, entries in ((TwistedSeries.inverse, u, [u]),
                               (mat_invert, m, [e for row in m.rows for e in row])):
        del kernel_calls[:], setups[:]
        invert(x)
        assert [tag for tag, _ in kernel_calls] == ["solve"]
        (_, q), = kernel_calls
        assert len(q) == len(entries)
        assert all(info[0] for rows in q for info, _ in rows)  # q has augmentation 0
        assert len(setups) == 1 and len(setups[0]) == len(entries)
        assert all(s is e for s, e in zip(setups[0], entries))


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


# the five coefficient kinds, each with the twist its letter x carries
FIBER_RINGS = {"Q": (RationalField, None), "Z/7": (lambda: IntegersMod(7), None),
               "M2(Q):swap": (m2_swap, "swap"), "Q[C4]:inv": (qc4_inv, "inv"),
               "Q<y,z>/deg>2:flip": (free_yz, "flip")}


@pytest.mark.parametrize("letters", [1, 2])
@pytest.mark.parametrize("name", list(FIBER_RINGS))
def test_identity_constants_are_inverted_with_no_elimination(name, letters, eliminations):
    # a unit of augmentation 1, and a 2x2 or 3x3 series matrix of
    # augmentation identity, is inverted by reading its constant term: no
    # fraction-free elimination, an inverse on both sides, and exactly the
    # inverse 2 * (2u)^-1, whose scalar constant 2, like the 2I of every
    # matrix, is read too
    make, twist = FIBER_RINGS[name]
    A = make()
    R = (one_letter if letters == 1 else two_letter)(
        A, 3, twist=twist if letters == 1 or twist is None else {"x": twist})
    rng = random.Random(f"{name}/{letters}")
    for _ in range(4):
        u = random_fiber_one(R, rng)
        del eliminations[:]
        v = u.inverse()
        assert len(eliminations) == 0
        assert u * v == R.one() == v * u
        assert u.scale(2).inverse().scale(2) == v
        assert len(eliminations) == 0
    for n in (2, 3):
        m = random_unipotent_matrix(R, rng, n)
        del eliminations[:]
        inv = mat_invert(m)
        assert len(eliminations) == 0
        assert m * inv == SeriesMatrix.identity(R, n) == inv * m
        double = SeriesMatrix(R, [[e.scale(2) for e in row] for row in m.rows])
        halved = mat_invert(double).rows
        assert SeriesMatrix(R, [[e.scale(2) for e in row] for row in halved]) == inv
        assert len(eliminations) == 0


@pytest.mark.parametrize("name, units, non_units",
                         [("Q", ["2", "-3/2"], ["0"]), ("Z/12", ["5", "7", "11"], ["0", "4", "6"])],
                         ids=["Q", "Z/12"])
def test_scalar_constants_of_series_are_inverted_with_no_elimination(
        capsys, tmp_path, eliminations, name, units, non_units):
    # over Q and Z/m the constant c of a series is read, inv0 = 1/c or
    # c^-1 mod m, with no fraction-free elimination; c = 0, or c not prime
    # to m, is refused, and the CLI exits 2 with AugmentationNotUnit
    A = RationalField() if name == "Q" else IntegersMod(12)
    doc = {"coeff": {"kind": "rational"} if name == "Q" else {"kind": "int_mod", "modulus": 12},
           "alphabet": ["x", "y"], "order": 3}
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(doc))
    rng = random.Random(name)
    for letters in ("x", "xy"):
        R = SeriesRing(A, alphabet=tuple(letters), order=3)
        for c in units:
            u = R.lift(A.parse_element_literal(c)) + random_kernel(R, rng)
            del eliminations[:]
            v = u.inverse()
            assert len(eliminations) == 0
            assert u * v == R.one() == v * u
            assert ref_mul(u, v) == R.one() == ref_mul(v, u)
        for c in non_units:
            u = R.lift(A.parse_element_literal(c)) + random_kernel(R, rng)
            with pytest.raises(AugmentationNotUnit, match=f"^augmentation {c} is not a unit"):
                u.inverse()
            assert len(eliminations) == 0
    for c in non_units:
        assert main(["inv", "--ring", str(ring), f'{c}+w("x")+2*w("xy")']) == 2
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"]["type"] == "AugmentationNotUnit"


# a ring, the twist of its letter x, and a scalar of it that is a unit, not 0 or 1
SCALAR_RINGS = {"Q": (RationalField, None, "-3/2"), "Z/12": (lambda: IntegersMod(12), None, "5"),
                "M2(Q):swap": (m2_swap, "swap", "-3/2"), "Q[C4]:inv": (qc4_inv, "inv", "-3/2"),
                "Q<y,z>/deg>2:flip": (free_yz, "flip", "-3/2")}


@pytest.mark.parametrize("name", list(SCALAR_RINGS))
def test_scalar_matrix_constants_are_inverted_with_no_elimination(name, eliminations):
    # a constant c I, for a scalar c that is neither 0 nor 1, is read with no
    # fraction-free elimination, for a 1x1, 2x2 or 3x3 series matrix, and
    # what is read is the inverse on both sides
    make, twist, c = SCALAR_RINGS[name]
    A = make()
    scalar = A.scalar_mul(F(c), A.one)
    rng = random.Random(name)
    for R in (one_letter(A, 3, twist=twist), two_letter(A, 3, {"x": twist} if twist else None)):
        for n in (1, 2, 3):
            m = random_kernel_matrix(R, rng, n, n) + SeriesMatrix.lift(
                R, [[scalar if i == j else A.zero for j in range(n)] for i in range(n)])
            del eliminations[:]
            inv = mat_invert(m)
            assert len(eliminations) == 0
            assert m * inv == SeriesMatrix.identity(R, n) == inv * m


def test_non_unit_scalar_constants_are_refused_with_no_elimination(capsys, tmp_path,
                                                                   eliminations, m2):
    # 4I over Z/12 and 0 over M2(Q) are read and refused, with the errors an
    # elimination gave them, and without one
    del eliminations[:]  # those of m2's conjugation
    R = two_letter(IntegersMod(12), 3)
    four = R.lift(4)
    with pytest.raises(NotInvertible,
                       match=r"^augmentation matrix is not invertible over Z/12$"):
        mat_invert(SeriesMatrix(R, [[four + R.letter("x"), R.letter("y")],
                                    [R.letter("x") * R.letter("y"), four]]))
    S = one_letter(m2, 3, twist="swap")
    with pytest.raises(AugmentationNotUnit,
                       match=r"^augmentation 0,0;0,0 is not a unit of M2\(Q\)$"):
        (S.letter("x") + S.from_terms([("xx", m2.one)])).inverse()
    assert len(eliminations) == 0
    ring = tmp_path / "m2.json"
    ring.write_text(json.dumps({"coeff": {"kind": "matrix", "size": 2}, "order": 3}))
    assert main(["inv", "--ring", str(ring), '[0,0;0,0]+w("x")']) == 2
    out = capsys.readouterr()
    assert out.out == "" and json.loads(out.err)["error"]["type"] == "AugmentationNotUnit"
    assert len(eliminations) == 0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ldu_inverts_pivot_by_one_solve_pass_and_l_u_in_one_call(kernel_calls, qq, n):
    R = SeriesRing(qq, alphabet=("x", "y"), order=3)
    m = random_unipotent_matrix(R, random.Random(n), n)
    ldu_decompose(m)
    # the inverse of the pivot (one solve pass), then l and u, then d2
    assert [tag for tag, _ in kernel_calls] == ["solve", "product", "product"]
    assert len(kernel_calls[1][1]) == 2 * (n - 1)


def ref_schur(m):
    """d2 = a22 - a21 a11^-1 a12 of m by per-pair products."""
    R = m.ring
    inv = m.rows[0][0].inverse()
    return SeriesMatrix(R, [[ref_add(e, ref_mul(ref_mul(row[0], inv), a).scale(-1))
                             for e, a in zip(row[1:], m.rows[0][1:])] for row in m.rows[1:]])


@pytest.mark.parametrize("n", [2, 3])
def test_det_steps_compute_no_l(kernel_calls, m2, n):
    # each step of D: the pivot's inverse (one solve pass), -u = -a11^-1 a12
    # in one call, and the products a21 * -u of d2 = a22 - a21 u in one
    # call, each added to its entry of a22; then the products a11 * D(d2).
    # No call carries the sums of l = a21 a11^-1.
    R = two_letter(m2, 3, twist={"x": "swap"})
    m = random_unipotent_matrix(R, random.Random(n), n, terms=3)
    det = dieudonne_det(m)
    calls = list(kernel_calls)
    assert [tag for tag, _ in calls] == (["solve", "product", "product"] * (n - 1)
                                         + ["product"] * (n - 1))
    step, pivots = m, []
    for i in range(n - 1):
        (_, u_sums), (_, d2_sums) = calls[3 * i + 1:3 * i + 3]
        a11, inv = step.rows[0][0], step.rows[0][0].inverse()
        assert u_sums == [[(-inv, a)] for a in step.rows[0][1:]]
        neg_u = [ref_mul(inv, a).scale(-1) for a in step.rows[0][1:]]
        assert d2_sums == [[(row[0], v)] for row in step.rows[1:] for v in neg_u]
        assert not any(t == inv for tag, sums in calls if tag == "product"
                       for pairs in sums for _, t in pairs)
        pivots.append(a11)
        step = ref_schur(step)
    want = step.rows[0][0]
    for a11 in reversed(pivots):
        want = ref_mul(a11, want)
    assert det == want


@pytest.mark.parametrize("make, twist, order", [(m2_two_twists, "swap", 8),
                                                (m2_two_twists, "shear", 8), (qc4_inv, "inv", 6),
                                                (m2_nonintegral, "p", 4)],
                         ids=["M2(Q):swap", "M2(Q):shear", "Q[C4]:inv", "M2(Q):p"])
def test_twisted_one_letter_ldu_and_det_match_reference(monkeypatch, make, twist, order):
    # LDU and D over one twisted letter, whose pivot inverses, products and
    # Schur complements all take the degree path (the word path's pair loop
    # and move table refuse to run), against per-pair products
    for name in ("_convolve", "_moved_rows"):
        monkeypatch.setattr(series_module, name, _word_path)
    R = one_letter(make(), order, twist=twist)
    m = random_unipotent_matrix(R, random.Random(order), 3, terms=4)
    a11, inv = m.rows[0][0], m.rows[0][0].inverse()
    assert ref_mul(a11, inv) == R.one() == ref_mul(inv, a11)
    f, d2 = ldu_decompose(m), ref_schur(m)
    assert f.l.rows == tuple((ref_mul(row[0], inv),) for row in m.rows[1:])
    assert f.u.rows == (tuple(ref_mul(inv, a) for a in m.rows[0][1:]),)
    assert f.d1 == a11 and f.d2 == d2
    assert dieudonne_det(m) == ref_mul(a11, ref_mul(d2.rows[0][0], ref_schur(d2).rows[0][0]))


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
    # inverse_entries over Q<<y,z>>: one solve pass and no product kernel call
    def refuse(m):
        raise AssertionError("matrices.mat_invert reached")
    monkeypatch.setattr(matrices_module, "mat_invert", refuse)
    A = free_yz(2)
    f = A.parse_element_literal
    u = f("2+y-3*zy")
    inv_u = A.invert(u)
    assert [kind for kind, _ in kernel_calls] == ["solve"]
    assert A.mul(u, inv_u) == A.one == A.mul(inv_u, u)
    kernel_calls.clear()
    rows = ((f("1+y"), f("z")), (f("2*yz"), f("3-z")))
    inv = A.mat_invert(rows)
    assert [kind for kind, _ in kernel_calls] == ["solve"]
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


# -- series values are immutable --------------------------------------------------

def _state(s):
    """What a series reads: vectors, denominator, and both caches, each read
    (so built) first."""
    return dict(s.vecs), s.den, dict(s.terms), list(s._kernel_rows())


def ref_neg(s):
    A = s.ring.coeff
    return s.ring.from_terms({w: A.neg(c) for w, c in s.terms.items()})


def _addition_operands(R, rng):
    """(a, b) pairs: over Q and M2(Q) with differing denominators; b = a;
    b = -a, whose sum cancels to zero; and b partly cancelling a."""
    a, b = random_series(R, rng, terms=5), random_series(R, rng, terms=5)
    if R.coeff.contains_rationals:
        a, b = a.scale(F(1, 6)), b.scale(F(5, 4))
        assert a.den != b.den
    minus_a = ref_neg(a)
    partly = R.from_terms({**minus_a.terms, (1,): R.coeff.one})
    return [(a, b), (a, a), (a, minus_a), (b, partly)]


def immutability_rings():
    return [SeriesRing(RationalField(), ("x", "y"), order=3),
            SeriesRing(IntegersMod(12), ("x", "y"), order=3),
            SeriesRing(m2_nonintegral(), ("x", "y"), twist={"x": "p"}, order=3)]


@pytest.mark.parametrize("R", immutability_rings(), ids=repr)
def test_add_sub_and_neg_leave_their_operands_alone(R):
    for a, b in _addition_operands(R, random.Random(5)):
        before = [_state(a), _state(b)]
        for op, ref in ((lambda: a + b, lambda: ref_add(a, b)),
                        (lambda: a - b, lambda: ref_add(a, ref_neg(b))),
                        (lambda: -a, lambda: ref_add(R.zero(), ref_neg(a)))):
            got = op()
            assert [_state(a), _state(b)] == before
            assert got == ref()
            assert_canonical(got)


@pytest.mark.parametrize("R", immutability_rings(), ids=repr)
def test_matrix_add_and_sub_leave_their_operands_alone(R):
    # entries shared within a matrix and between the operands stay as built
    (a, b), _, (_, minus_a), (_, partly) = _addition_operands(R, random.Random(9))
    m = SeriesMatrix(R, [[a, b], [b, a]])
    n = SeriesMatrix(R, [[minus_a, partly], [R.zero(), a]])
    for x, y in ((m, n), (m, m), (n, SeriesMatrix.identity(R, 2))):
        before = [_state(e) for z in (x, y) for row in z.rows for e in row]
        for op, ref in ((lambda: x + y, ref_add),
                        (lambda: x - y, lambda s, t: ref_add(s, ref_neg(t)))):
            got = op()
            assert [_state(e) for z in (x, y) for row in z.rows for e in row] == before
            assert got.rows == tuple(tuple(ref(s, t) for s, t in zip(rx, ry))
                                     for rx, ry in zip(x.rows, y.rows))


# -- typed errors ------------------------------------------------------------------

@pytest.mark.parametrize("make, error, message", [
    (lambda: formal_exp(one_letter(IntegersMod(6), 2).letter("x")),
     NeedsRationalCoefficients, "formal exp needs Q inside Z/6"),
    (lambda: formal_exp(one_letter(RationalField(), 2).one()),
     AugmentationNotOne, "formal exp needs augmentation exactly 0"),
    (lambda: one_letter(IntegersMod(12), 2).letter("x").scale(F(1, 2)),
     NeedsRationalCoefficients, "cannot scale by 1/2 over Z/12"),
    (lambda: one_letter(RationalField(), 2).letter("x").power(-1),
     ValueError, "negative power; use inverse() first"),
    (lambda: SeriesRing(RationalField(), ("x", "x"), order=2),
     ValueError, "alphabet letters must be distinct single characters"),
    (lambda: SeriesRing(RationalField(), ("x",), order=-1),
     ValueError, "order must be >= 0"),
], ids=["exp-over-z6", "exp-of-a-unit", "half-over-z12", "negative-power",
        "repeated-letter", "negative-order"])
def test_series_errors(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


def test_letters_at_order_0_are_zero(qq):
    # no word of one letter fits, but an unknown letter is still refused
    R = one_letter(qq, 0)
    assert R.letter("x") == R.zero()
    with pytest.raises(LiteralSyntaxError) as caught:
        R.letter("q")
    assert str(caught.value) == "unknown letter 'q'"

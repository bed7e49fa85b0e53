"""Hand-worked cases for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import os
import sys
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs as gen  # noqa: E402
import oracle  # noqa: E402


def q_ring(letters="x", order=3):
    return oracle.Series(gen.ring_doc({"kind": "rational"}, letters, order))


def test_product_over_q_truncates():
    O = q_ring(order=3)
    one_plus_x = {(): F(1), (0,): F(1)}
    one_minus_x = {(): F(1), (0,): F(-1)}
    assert O.mul(one_plus_x, one_minus_x) == {(): F(1), (0, 0): F(-1)}
    cube = O.mul(O.mul(one_plus_x, one_plus_x), O.mul(one_plus_x, one_plus_x))
    assert cube == {(): 1, (0,): 4, (0, 0): 6, (0, 0, 0): 4}


def test_product_keeps_letter_order():
    O = q_ring("xy", 2)
    x, y = {(0,): F(1)}, {(1,): F(1)}
    assert O.mul(x, y) == {(0, 1): 1}
    assert O.mul(y, x) == {(1, 0): 1}


def test_twisted_product_moves_coefficient_past_letter():
    # a*x = x*swap(a), so x*E11 = swap^-1(E11)*x = E22*x
    doc = gen.ring_doc(gen.COEFF["M2"], "x", 2, "swap")
    O = oracle.Series(doc)
    e11 = ((F(1), F(0)), (F(0), F(0)))
    e22 = ((F(0), F(0)), (F(0), F(1)))
    assert O.mul({(0,): O.A.one()}, {(): e11}) == {(0,): e22}
    assert O.mul({(): e11}, {(0,): O.A.one()}) == {(0,): e11}


def test_group_algebra_and_free_algebra():
    A, _ = oracle.coeff_from_doc(gen.COEFF["QC4"])
    # (1+g2)(1-g2) = 1 - g2^2 = 0 in Q[C4]
    assert A.mul({0: F(1), 2: F(1)}, {0: F(1), 2: F(-1)}) == {}
    assert A.trace({1: F(2), 3: F(-1)}) == {"g1": 2, "g3": -1}
    S, autos = oracle.coeff_from_doc(gen.COEFF["QS3"])
    # the three transpositions form one conjugacy class
    assert len({S.label[g] for g in (1, 2, 5)}) == 1
    Fy, autos = oracle.coeff_from_doc(gen.COEFF["Qyz"])
    y, z = {(0,): F(1)}, {(1,): F(1)}
    assert Fy.mul(y, z) == {(0, 1): 1}
    assert Fy.mul(Fy.mul(y, z), Fy.mul(y, z)) == {}  # degree 4 > 3
    assert autos["flip"](y) == z
    assert Fy.trace({(0, 1): F(1), (1, 0): F(2)}) == {"yz": 3}


def test_inverse_and_log():
    O = q_ring(order=3)
    assert O.inverse_unipotent({(): F(1), (0,): F(1)}) == {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1}
    assert O.log({(): F(1), (0,): F(1)}) == {(0,): 1, (0, 0): F(-1, 2), (0, 0, 0): F(1, 3)}


def test_cofactor_determinant():
    # det [[1+x, x], [x, 1]] = 1 + x - x^2
    O = q_ring(order=3)
    m = [[{(): F(1), (0,): F(1)}, {(0,): F(1)}], [{(0,): F(1)}, {(): F(1)}]]
    assert O.det_cofactor(m) == {(): 1, (0,): 1, (0, 0): -1}
    assert O.det_schur(m) == O.det_cofactor(m)
    # a 3x3 permutation matrix of sign -1
    e, z = {(): F(1)}, {}
    assert O.det_cofactor([[z, e, z], [e, z, z], [z, z, e]]) == {(): -1}


def test_det_one_minus_alpha_x():
    # alpha = [[1, 1], [0, 2]]: det(I - alpha x) = (1 - x)(1 - 2x) = 1 - 3x + 2x^2
    O = q_ring(order=4)
    alpha = [[F(1), F(1)], [F(0), F(2)]]
    m = [[O.sub({(): F(1)} if i == j else {}, {(0,): alpha[i][j]}) for j in range(2)]
         for i in range(2)]
    assert O.det_cofactor(m) == {(): 1, (0,): -3, (0, 0): 2}
    # the trace of log(1 - alpha x) is -sum (1 + 2^j) x^j / j
    want = {("1", "x" * j): -F(1 + 2 ** j, j) for j in range(1, 5)}
    assert oracle.trace_log_one_minus(O.A, alpha, 4) == want


def test_w1_of_one_minus_z():
    # w1(1 - z) = -sum z^n / n, all in the class of the identity
    O = oracle.Series(gen.ring_doc(gen.COEFF["QC4"], "z", 5, "inv"))
    u = {(): O.A.one(), (0,): O.A.neg(O.A.one())}
    assert O.cyc_log(u) == {("g0", "z" * n): F(-1, n) for n in range(1, 6)}


def test_cyclic_words_merge_rotations():
    # log(1 + xy + yx) has xy + yx in degree 2: one cyclic class with value 2
    O = q_ring("xy", 2)
    assert O.cyc_log({(): F(1), (0, 1): F(1), (1, 0): F(1)}) == {("1", "xy"): 2}


def test_laurent_identity_window():
    # over Q: (z^-1)(z) = 1 and (1 - z)(1 + z + z^2) = 1 - z^3, right up to degree 2
    A = oracle.Rational()
    ident = lambda c: c  # noqa: E731
    assert oracle.laurent_identity_window(A, ident, ident, (-1, 5, {-1: F(1)}), (1, 5, {1: F(1)}))
    u = (0, 10, {0: F(1), 1: F(-1)})
    assert oracle.laurent_identity_window(A, ident, ident, u, (0, 2, {0: F(1), 1: F(1), 2: F(1)}))
    assert not oracle.laurent_identity_window(A, ident, ident, u, (0, 3, {0: F(1), 1: F(1), 2: F(1)}))

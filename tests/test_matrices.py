import random
from fractions import Fraction as F

import pytest

from twistdet import (
    AugmentationNotIdentity,
    DimensionMismatch,
    SeriesMatrix,
    SeriesRing,
    det_stabilize,
    dieudonne_det,
    exact_sequence_additivity_check,
    ldu_decompose,
    mat_invert,
    mat_is_invertible,
    rearrange_inverses_check,
    whitehead_identity_check,
)
from twistdet.randgen import random_kernel_matrix, random_unipotent_matrix

from conftest import one_letter


def poly(s):
    return {len(w): c for w, c in s.terms.items()}


def pivot_matrix(qq):
    R = SeriesRing(qq, order=3)
    x = R.letter("x")
    return R, SeriesMatrix(R, [[R.one() + x, x], [x, R.one() + x]])


def test_ldu_frozen_example(qq):
    # factors of [[1+x, x], [x, 1+x]] at order 3, all four pinned
    R, m = pivot_matrix(qq)
    f = ldu_decompose(m)
    assert poly(f.l.entry(0, 0)) == {1: F(1), 2: F(-1), 3: F(1)}
    assert poly(f.u.entry(0, 0)) == {1: F(1), 2: F(-1), 3: F(1)}
    assert poly(f.d1) == {0: F(1), 1: F(1)}
    assert poly(f.d2.entry(0, 0)) == {0: F(1), 1: F(1), 2: F(-1), 3: F(1)}
    assert f.recompose() == m


def test_dieudonne_frozen_example(qq):
    # (1+x)^2 - x^2 = 1+2x exactly
    _, m = pivot_matrix(qq)
    assert poly(dieudonne_det(m)) == {0: F(1), 1: F(2)}


def test_ldu_requires_identity_augmentation(qq):
    R = SeriesRing(qq, order=3)
    x = R.letter("x")
    bad = SeriesMatrix(R, [[R.one() + x, R.zero()], [R.zero(), R.lift(F(2))]])
    with pytest.raises(AugmentationNotIdentity):
        ldu_decompose(bad)
    with pytest.raises(AugmentationNotIdentity):
        dieudonne_det(bad)


def test_ldu_needs_square_2x2_or_more(qq):
    R = SeriesRing(qq, order=2)
    with pytest.raises(DimensionMismatch):
        ldu_decompose(SeriesMatrix.identity(R, 1))


def test_ldu_random_recompose_unique(qq, m2, qc4):
    rng = random.Random(31)
    rings = [
        SeriesRing(qq, alphabet=("x", "y"), order=3),
        one_letter(m2, 3, twist="swap"),
        one_letter(qc4, 3, twist="inv"),
    ]
    for R in rings:
        for n in (2, 3):
            for _ in range(6):
                m = random_unipotent_matrix(R, rng, n)
                f = ldu_decompose(m)
                assert f.recompose() == m
                g = ldu_decompose(f.recompose())
                assert (g.l, g.d1, g.d2, g.u) == (f.l, f.d1, f.d2, f.u)


def random_invertible_matrix(R, rng, n):
    # augmentation: an invertible coefficient matrix other than the identity
    A = R.coeff
    while True:
        aug = tuple(tuple(A.random_element(rng) for _ in range(n)) for _ in range(n))
        if aug != A.emat_identity(n) and A.mat_is_invertible(aug):
            return SeriesMatrix.lift(R, aug) + random_kernel_matrix(R, rng, n, n)


def test_matrix_inverse_random(qq, m2, qc4, free_yz):
    rng = random.Random(32)
    cases = [(SeriesRing(qq, order=3), random_unipotent_matrix, (1, 2, 3)),
             (one_letter(m2, 3, twist="swap"), random_unipotent_matrix, (1, 2, 3)),
             (one_letter(qc4, 3, twist="inv"), random_invertible_matrix, (1, 2)),
             (one_letter(free_yz, 3, twist="flip"), random_invertible_matrix, (1, 2))]
    for R, sample, sizes in cases:
        for n in sizes:
            for _ in range(5):
                m = sample(R, rng, n)
                assert mat_is_invertible(m)
                assert mat_invert(m) * m == SeriesMatrix.identity(R, n)
                assert m * mat_invert(m) == SeriesMatrix.identity(R, n)


def cofactor_poly_det(m, N):
    # independent oracle: expansion along the first row of a poly matrix
    def pmul(p, q):
        r = {}
        for d1, c1 in p.items():
            for d2, c2 in q.items():
                if d1 + d2 <= N:
                    r[d1 + d2] = r.get(d1 + d2, F(0)) + c1 * c2
        return r
    def padd(p, q):
        r = dict(p)
        for d, c in q.items():
            r[d] = r.get(d, F(0)) + c
        return r
    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = {}
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = pmul(rows[0][j], det(minor))
            if j % 2:
                term = {d: -c for d, c in term.items()}
            acc = padd(acc, term)
        return acc
    rows = [[poly(m.entry(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]
    return {d: c for d, c in det(rows).items() if c}


def test_dieudonne_matches_cofactor_commutative(qq):
    rng = random.Random(33)
    R = SeriesRing(qq, order=4)
    for n in (2, 3, 4):
        for _ in range(8):
            m = random_unipotent_matrix(R, rng, n)
            assert poly(dieudonne_det(m)) == cofactor_poly_det(m, 4)


def test_block_triangular_det_multiplies_exactly(m2):
    # upper-triangular blocks: D is multiplicative on the nose, no mod-C slack
    rng = random.Random(34)
    R = one_letter(m2, 3, twist="swap")
    for _ in range(6):
        a = random_unipotent_matrix(R, rng, 2)
        b = random_unipotent_matrix(R, rng, 2)
        c = random_kernel_matrix(R, rng, 2, 2)
        block = SeriesMatrix.block([[a, c], [SeriesMatrix.zero(R, 2, 2), b]])
        assert dieudonne_det(block) == dieudonne_det(a) * dieudonne_det(b)


def test_det_stabilize(qq):
    rng = random.Random(35)
    R = SeriesRing(qq, order=3)
    m = random_unipotent_matrix(R, rng, 2)
    assert det_stabilize(m, 2) == dieudonne_det(m)


def test_whitehead_identity_square_and_rectangular(qq, m2):
    rng = random.Random(36)
    for R in (SeriesRing(qq, order=3), one_letter(m2, 3, twist="swap")):
        for n, k in ((1, 1), (2, 2), (3, 2), (2, 3)):
            for _ in range(4):
                a = random_kernel_matrix(R, rng, n, k)
                b = random_kernel_matrix(R, rng, k, n)
                assert whitehead_identity_check(a, b)


def test_rearrange_inverses(qq, m2, free_yz):
    rng = random.Random(37)
    rings = [SeriesRing(qq, order=3), one_letter(m2, 3), one_letter(free_yz, 3)]
    for R in rings:
        for n, k in ((2, 2), (3, 2)):
            for _ in range(4):
                a = random_kernel_matrix(R, rng, n, k)
                b = random_kernel_matrix(R, rng, k, n)
                assert rearrange_inverses_check(a, b)


def test_shape_mismatch_rejected(qq):
    R = SeriesRing(qq, order=2)
    a = SeriesMatrix.identity(R, 2)
    b = SeriesMatrix.identity(R, 3)
    with pytest.raises(DimensionMismatch):
        a * b
    with pytest.raises(DimensionMismatch):
        a + b


def test_additivity_frozen_triangular(qq):
    # [[1-x, -cx], [0, 1-x]] has D = (1-x)^2 = 1-2x+x^2 for every coupling c
    for c in (F(0), F(1), F(-7, 2)):
        assert exact_sequence_additivity_check(qq, [[F(1)]], [[F(1)]], [[c]], 4)


def test_additivity_random_couplings(qq, m2):
    rng = random.Random(38)
    for coeff in (qq, m2):
        for _ in range(6):
            a = [[coeff.random_element(rng) for _ in range(2)] for _ in range(2)]
            b = [[coeff.random_element(rng)]]
            c = [[coeff.random_element(rng)] for _ in range(2)]
            assert exact_sequence_additivity_check(coeff, a, b, c, 4)

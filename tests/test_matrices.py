import random
from fractions import Fraction as F

import pytest

from twistdet import (
    AugmentationNotIdentity,
    DimensionMismatch,
    RingMismatch,
    SeriesMatrix,
    SeriesRing,
    dieudonne_det,
    exact_sequence_additivity_check,
    ldu_decompose,
    mat_invert,
    rearrange_inverses_check,
    whitehead_identity_check,
)
from twistdet.selftest import random_kernel_matrix, random_unipotent_matrix

from conftest import assert_folded, one_letter, two_letter


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
    assert f == ldu_decompose(pivot_matrix(qq)[1])
    assert f != ldu_decompose(SeriesMatrix.identity(R, 2))
    with pytest.raises(TypeError):
        hash(f)


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
    rings = [two_letter(qq, 3), one_letter(m2, 3, twist="swap"), one_letter(qc4, 3, twist="inv")]
    for prop in ("ldu-recompose", "ldu-unique"):
        assert_folded(prop, rings, 6, shapes=[(2,), (3,)])


def test_matrix_inverse_random(qq, m2, qc4, free_yz):
    # unipotent matrices, and augmentations other than the identity
    assert_folded("mat-inverse", [one_letter(qq, 3), one_letter(m2, 3, twist="swap")], 5,
                  shapes=[(1, False), (2, False), (3, False)])
    assert_folded("mat-inverse", [one_letter(qc4, 3, twist="inv"),
                                  one_letter(free_yz, 3, twist="flip")], 5,
                  shapes=[(1, True), (2, True)])


def test_dieudonne_matches_cofactor_commutative(qq):
    assert_folded("dieudonne-vs-cofactor", [one_letter(qq, 4)], 8, shapes=[(2,), (3,), (4,)])


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
    # D of m padded with an identity block of size 2
    padded = SeriesMatrix.block([[m, SeriesMatrix.zero(R, 2, 2)],
                                 [SeriesMatrix.zero(R, 2, 2), SeriesMatrix.identity(R, 2)]])
    assert dieudonne_det(padded) == dieudonne_det(m)


def test_whitehead_identity_square_and_rectangular(qq, m2):
    assert_folded("whitehead-2x2", [one_letter(qq, 3), one_letter(m2, 3, twist="swap")], 4,
                  shapes=[(1, 1), (2, 2), (3, 2), (2, 3)])


def test_rearrange_inverses(qq, m2, free_yz):
    assert_folded("rearrange-inverses", [one_letter(c, 3) for c in (qq, m2, free_yz)], 4,
                  shapes=[(2, 2), (3, 2)])


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
    # alpha 2x2, alpha2 1x1, a 2x1 coupling; shape (k, n, m) draws over ring k
    for k, coeff in enumerate((qq, m2)):
        assert_folded("endo-additivity", [one_letter(coeff, 4)], 6, shapes=[(k, 2, 1)])


# -- typed errors ----------------------------------------------------------------

@pytest.mark.parametrize("make, error, message", [
    (lambda R, S: SeriesMatrix(R, [[R.one(), R.one()], [R.one()]]),
     DimensionMismatch, "ragged matrix"),
    (lambda R, S: SeriesMatrix(R, [[S.one()]]),
     RingMismatch, "matrix entries must share the matrix ring"),
    (lambda R, S: SeriesMatrix(R, [[1]]),
     RingMismatch, "matrix entries must share the matrix ring"),
    (lambda R, S: SeriesMatrix.block([[SeriesMatrix.identity(R, 2),
                                       SeriesMatrix.identity(R, 1)]]),
     DimensionMismatch, "block row heights differ"),
    (lambda R, S: SeriesMatrix.block([[SeriesMatrix.identity(R, 2)],
                                      [SeriesMatrix.identity(R, 1)]]),
     DimensionMismatch, "block column widths differ"),
    (lambda R, S: SeriesMatrix.identity(R, 2) + SeriesMatrix.identity(S, 2),
     RingMismatch, "matrices live in different rings"),
    (lambda R, S: mat_invert(SeriesMatrix.zero(R, 2, 1)),
     DimensionMismatch, "only square matrices can be inverted"),
    (lambda R, S: dieudonne_det(SeriesMatrix.zero(R, 1, 2)),
     DimensionMismatch, "determinant needs a nonempty square matrix"),
    (lambda R, S: dieudonne_det(SeriesMatrix(R, [])),
     DimensionMismatch, "determinant needs a nonempty square matrix"),
    (lambda R, S: whitehead_identity_check(SeriesMatrix.zero(R, 2, 1),
                                           SeriesMatrix.zero(R, 2, 1)),
     DimensionMismatch, "need a: n x m and b: m x n"),
    (lambda R, S: rearrange_inverses_check(SeriesMatrix.zero(R, 2, 1),
                                           SeriesMatrix.zero(R, 2, 1)),
     DimensionMismatch, "need a: n x m and b: m x n"),
], ids=["ragged", "entry-ring", "entry-not-a-series", "block-heights", "block-widths",
        "add-rings", "invert-non-square", "det-non-square", "det-empty",
        "whitehead-shapes", "rearrange-shapes"])
def test_matrix_errors(qq, make, error, message):
    # R and S differ only in their order
    R, S = SeriesRing(qq, order=2), SeriesRing(qq, order=3)
    with pytest.raises(error) as caught:
        make(R, S)
    assert str(caught.value) == message

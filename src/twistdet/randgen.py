"""Seeded random elements for the property registry (selftest.py). Everything
goes through one random.Random instance passed in by the caller, so runs are
reproducible."""

from __future__ import annotations

from fractions import Fraction

from .kgroup import (
    FLAVOR_A_KERNEL,
    FLAVOR_AB_BA_KERNEL,
    FLAVOR_B_UNIT,
    FLAVOR_BA_KERNEL,
    FLAVOR_UNIT,
)
from .matrices import SeriesMatrix
from .series import SeriesRing, TwistedSeries


def random_word(ring: SeriesRing, rng) -> tuple:
    if ring.order < 1:
        return ()
    length = rng.randint(1, ring.order)
    return ring.normalize_word(tuple(rng.randrange(len(ring.alphabet))
                                     for _ in range(length)))


def random_series(ring: SeriesRing, rng, constant="any", terms=3) -> TwistedSeries:
    """Random series; `constant` fixes the augmentation:
    'any' | 'unit' | 'one' | 'zero'."""
    A = ring.coeff
    pairs = [(random_word(ring, rng), A.random_element(rng)) for _ in range(terms)]
    pairs = [(w, c) for w, c in pairs if w]
    if constant == "any":
        pairs.append(((), A.random_element(rng)))
    elif constant == "unit":
        pairs.append(((), A.random_unit(rng)))
    elif constant == "one":
        pairs.append(((), A.one))
    elif constant != "zero":
        raise ValueError(f"unknown constant mode {constant!r}")
    return ring.from_terms(pairs)


def random_unit(ring: SeriesRing, rng, terms=3) -> TwistedSeries:
    return random_series(ring, rng, constant="unit", terms=terms)


def random_fiber_one(ring: SeriesRing, rng, terms=3) -> TwistedSeries:
    return random_series(ring, rng, constant="one", terms=terms)


def random_kernel(ring: SeriesRing, rng, terms=3) -> TwistedSeries:
    return random_series(ring, rng, constant="zero", terms=terms)


def random_unipotent_matrix(ring: SeriesRing, rng, n: int, terms=2) -> SeriesMatrix:
    """Augmentation exactly the identity matrix."""
    one = ring.one()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = random_kernel(ring, rng, terms=terms)
            row.append(one + e if i == j else e)
        rows.append(row)
    return SeriesMatrix(ring, rows)


def random_kernel_matrix(ring: SeriesRing, rng, n: int, m: int, terms=2) -> SeriesMatrix:
    return SeriesMatrix(ring, [[random_kernel(ring, rng, terms=terms)
                                for _ in range(m)] for _ in range(n)])


def _annihilating_constants(A, rng):
    """(c, d) with c*d = d*c = 0, both sides of the flavor conditions."""
    choice = rng.randrange(3)
    if choice == 0:
        return A.zero, A.random_element(rng)
    if choice == 1:
        return A.random_element(rng), A.zero
    if A.kind == "matrix" and A.size >= 2:
        # strictly upper-triangular in one corner: squares to zero
        e = [[Fraction(0)] * A.size for _ in range(A.size)]
        e[0][A.size - 1] = Fraction(rng.randint(1, 3))
        e = tuple(tuple(row) for row in e)
        return e, A.scalar_mul(Fraction(rng.randint(1, 3)), e)
    if A.kind == "free_trunc":
        words = [w for w in A.all_words(min_len=1) if 2 * len(w) > A.max_degree]
        if words:
            w1, w2 = rng.choice(words), rng.choice(words)
            return ((w1, Fraction(rng.randint(1, 3))),), ((w2, Fraction(1)),)
    return A.zero, A.random_element(rng)


def random_flavor_pair(ring: SeriesRing, rng, flavor: str, terms=2):
    """(a, b) satisfying the flavor conditions plus eps(ab) = eps(ba)."""
    A = ring.coeff
    if flavor == FLAVOR_A_KERNEL:
        return (random_kernel(ring, rng, terms=terms),
                random_series(ring, rng, terms=terms))
    if flavor in (FLAVOR_AB_BA_KERNEL, FLAVOR_BA_KERNEL):
        ca, cb = _annihilating_constants(A, rng)
    elif flavor in (FLAVOR_UNIT, FLAVOR_B_UNIT):
        draw_b = A.random_element if flavor == FLAVOR_UNIT else A.random_unit
        while True:
            ca = A.random_central(rng)
            cb = draw_b(rng)
            if A.is_unit(A.add(A.one, A.mul(cb, ca))):
                break
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    a = ring.lift(ca) + random_kernel(ring, rng, terms=terms)
    b = ring.lift(cb) + random_kernel(ring, rng, terms=terms)
    return a, b


def random_invertible_matrix(ring: SeriesRing, rng, n: int) -> SeriesMatrix:
    """Invertible augmentation other than the identity, plus a kernel part."""
    A = ring.coeff
    while True:
        aug = tuple(tuple(A.random_element(rng) for _ in range(n)) for _ in range(n))
        if aug != A.emat_identity(n) and A.mat_is_invertible(aug):
            return SeriesMatrix.lift(ring, aug) + random_kernel_matrix(ring, rng, n, n)

"""The property registry behind `twistdet selftest` and the tier-1 tests.

Each entry of REGISTRY is one randomized identity over one ring: a report
name such as "vaserstein[Q]", the identity it checks, the suite it belongs
to, a trial function `trial(ring, rng, *shape) -> bool`, a builder of the
ring the trials run over, the shapes the trials cycle through (matrix
sizes, flavors, ...), how many trials a requested count means and the lowest
order its ring is built at. selftest() runs the entries of a suite in
registry order and returns a plain report dict (no timestamps, no
environment data) in which each item names the order it ran at; every entry
draws from its own generator seeded by the seed and its name, so a fixed
seed gives a byte-identical report. tests/test_properties.py runs the same entries.

The random elements the trials draw (series with a given augmentation,
unipotent and invertible matrices, flavor pairs) come from the seeded
generators below; everything goes through one random.Random instance passed
in by the caller, so runs are reproducible.

The commutative determinant entry checks the recursive determinant against
an independent cofactor-expansion oracle on plain degree->Fraction
polynomials; the End_0 entry checks cyc_log(D(1-alpha x)) against the
trace formula -sum_k tr(alpha^k)/k x^k.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import NotAUnit, NotInvertible
from .kgroup import (
    FLAVOR_A_KERNEL,
    FLAVOR_AB_BA_KERNEL,
    FLAVOR_B_UNIT,
    FLAVOR_BA_KERNEL,
    FLAVOR_UNIT,
    FLAVORS,
    c_generator,
    commutator_as_c_generator,
    cyc_log,
    endo_class_invariant,
    exact_sequence_additivity_check,
    vaserstein_transform,
)
from .literals import parse_series, render_series
from .matrices import (
    SeriesMatrix,
    dieudonne_det,
    ldu_decompose,
    mat_invert,
    mat_is_invertible,
    rearrange_inverses_check,
    whitehead_identity_check,
)
from .novikov import (
    NovikovSeries,
    nov_invert,
    nov_mul,
    orbit_counts,
    twisted_conjugacy_classes,
    w1_invariant,
)
from .rings import (
    FiniteGroup,
    GroupAlgebra,
    IntegersMod,
    RationalField,
    RationalMatrixRing,
    TruncatedFreeAlgebra,
    cyclic_group,
)
from .series import SeriesRing, TwistedSeries, formal_exp, formal_log


# -- seeded random elements ------------------------------------------------------

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


# -- plain polynomial oracle (independent of the series engine) -----------------

def poly_from_series(s) -> dict:
    return {len(w): c for w, c in s.terms.items()}

def cofactor_det(poly_rows, order) -> dict:
    """First-row cofactor expansion; entries are degree->Fraction dicts."""
    if len(poly_rows) == 1:
        return dict(poly_rows[0][0])
    acc: dict = {}
    for j, entry in enumerate(poly_rows[0]):
        minor = [row[:j] + row[j + 1:] for row in poly_rows[1:]]
        for d1, c1 in entry.items():
            for d2, c2 in cofactor_det(minor, order).items():
                if d1 + d2 <= order:
                    acc[d1 + d2] = acc.get(d1 + d2, 0) + (-1) ** j * c1 * c2
    return {d: c for d, c in acc.items() if c}


# -- rings ------------------------------------------------------------------------

def m2_swap() -> RationalMatrixRing:
    ring = RationalMatrixRing(2)
    ring.register_conjugation("swap", [[0, 1], [1, 0]])
    return ring

def m2_nonintegral() -> RationalMatrixRing:
    """M2(Q) twisted by conjugation with a non-integral matrix of det 2/3."""
    ring = RationalMatrixRing(2)
    ring.register_conjugation("p", [[2, 1], [0, Fraction(1, 3)]])
    return ring

def m2_two_twists() -> RationalMatrixRing:
    ring = m2_swap()
    ring.register_conjugation("shear", [[1, 1], [0, 1]])
    return ring

def qc2() -> GroupAlgebra:
    return GroupAlgebra(cyclic_group(2))

def qc4_inv() -> GroupAlgebra:
    ring = GroupAlgebra(cyclic_group(4))
    ring.register_group_automorphism("inv", [0, 3, 2, 1])
    return ring

def free_yz(max_degree=2) -> TruncatedFreeAlgebra:
    ring = TruncatedFreeAlgebra(("y", "z"), max_degree)
    ring.register_generator_permutation("flip", [1, 0])
    return ring

def m3_cyclic() -> RationalMatrixRing:
    ring = RationalMatrixRing(3)
    ring.register_conjugation("cyc", [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    return ring

def qs3_conj() -> GroupAlgebra:
    """Q[S3] twisted by conjugation with a 3-cycle, an automorphism of order 3."""
    perms = sorted(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    ring = GroupAlgebra(FiniteGroup(table, name="S3"))
    t, t_inv = perms.index((1, 2, 0)), perms.index((2, 0, 1))
    ring.register_group_automorphism("conj", [table[table[t][g]][t_inv] for g in range(6)])
    return ring


def series(coeff, letters=("x", "t"), twist=None, commute=False):
    """Builder of a series ring over coeff() at a given order."""
    return lambda order: SeriesRing(coeff(), letters, twist=twist, letters_commute=commute,
                                    order=order)

def coeffs(factory):
    """Builder of a coefficient ring, for trials that take no series ring."""
    return lambda order: factory()


# -- trials: trial(ring, rng, *shape) -> bool ----------------------------------------

def _axioms(A, rng):
    pool = [A.zero, A.one] + [A.random_element(rng) for _ in range(5)]
    triples = [[rng.choice(pool) for _ in range(3)] for _ in range(5)]
    add, mul, zero, one = A.add, A.mul, A.zero, A.one
    return all(
        add(a, b) == add(b, a) and add(add(a, b), c) == add(a, add(b, c))
        and add(a, zero) == a and add(a, A.neg(a)) == zero
        and mul(mul(a, b), c) == mul(a, mul(b, c)) and mul(a, one) == a == mul(one, a)
        and mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        and mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        for a, b, c in triples)

def _series_inverse(R, rng):
    u = random_unit(R, rng)
    return (u * u.inverse()).is_one() and (u.inverse() * u).is_one()

def _log_exp(R, rng):
    u, k = random_fiber_one(R, rng), random_kernel(R, rng)
    return formal_exp(formal_log(u)) == u and formal_log(formal_exp(k)) == k

def _associative(R, rng):
    s, t, u = (random_series(R, rng, terms=4) for _ in range(3))
    return (s * t) * u == s * (t * u)

def _twist_convention(R, rng):
    # Right multiplication by s is left A-linear on the A-basis 1, x, ..., x^N
    # of A_xi<<x>>/(x^{N+1}); row i of its matrix is x^i*s, which holds
    # xi^-i(s_j) at column i+j, by x*b = xi^-1(b)*x. The map is faithful
    # (row 0 is s) and multiplicative, and it uses no series product.
    A, n = R.coeff, R.order + 1
    xi_inv = A.automorphism(R.twist_names[0]).inverse

    def image(s):
        coeffs, rows = [s.coefficient((0,) * j) for j in range(n)], []
        for i in range(n):
            rows.append(tuple(coeffs[k - i] if k >= i else A.zero for k in range(n)))
            coeffs = [xi_inv.apply(c) for c in coeffs]
        return tuple(rows)
    s, t = (random_series(R, rng, terms=n) for _ in range(2))
    return image(s * t) == A.emat_mul(image(s), image(t))

def _parse_render(R, rng):
    s = random_series(R, rng)
    return parse_series(render_series(s), R) == s

def _ldu_recompose(R, rng, n):
    m = random_unipotent_matrix(R, rng, n)
    return ldu_decompose(m).recompose() == m

def _ldu_unique(R, rng, n):
    f = ldu_decompose(random_unipotent_matrix(R, rng, n))
    g = ldu_decompose(f.recompose())
    return (g.l, g.d1, g.d2, g.u) == (f.l, f.d1, f.d2, f.u)

def _mat_inverse(R, rng, n, general):
    m = (random_invertible_matrix if general else random_unipotent_matrix)(R, rng, n)
    inv, one = mat_invert(m), SeriesMatrix.identity(R, n)
    return mat_is_invertible(m) and inv * m == one and m * inv == one

def _dieudonne(R, rng, n):
    m = random_unipotent_matrix(R, rng, n)
    oracle = cofactor_det([[poly_from_series(e) for e in row] for row in m.rows], R.order)
    return poly_from_series(dieudonne_det(m)) == oracle

def _whitehead(R, rng, n, k):
    a, b = random_kernel_matrix(R, rng, n, k), random_kernel_matrix(R, rng, k, n)
    return whitehead_identity_check(a, b)

def _rearrange(R, rng, n, k):
    a, b = random_kernel_matrix(R, rng, n, k), random_kernel_matrix(R, rng, k, n)
    return rearrange_inverses_check(a, b)

def _vaserstein(R, rng, constant):
    a, b = (random_series(R, rng, constant=constant) for _ in range(2))
    c = R.lift(R.coeff.random_central(rng))
    try:
        return vaserstein_transform(a, b, c)[1]
    except NotInvertible:
        return True

def _annihilation(R, rng, flavor):
    a, b = random_flavor_pair(R, rng, flavor)
    g, one = c_generator(a, b, flavor), R.one()
    return (g.augmentation() == R.coeff.one and g * (one + b * a) == one + a * b
            and cyc_log(g).is_zero())

def _additivity(R, rng):
    u, v = random_fiber_one(R, rng), random_fiber_one(R, rng)
    return cyc_log(u * v) == cyc_log(u) + cyc_log(v)

def _commutator(R, rng, unit):
    # beta in the fiber keeps the commutator there for noncommutative A
    alpha = (random_unit if unit else random_fiber_one)(R, rng)
    beta = random_fiber_one(R, rng)
    a, b = commutator_as_c_generator(alpha, beta)
    ab, ba = R.one() + a * b, R.one() + b * a
    return (ab == alpha * beta * alpha.inverse() and ba == beta
            and cyc_log(ab * ba.inverse()).is_zero())

def _det_multiplicative(R, rng, n):
    m1, m2 = random_unipotent_matrix(R, rng, n), random_unipotent_matrix(R, rng, n)
    return (cyc_log(dieudonne_det(m1 * m2))
            == cyc_log(dieudonne_det(m1)) + cyc_log(dieudonne_det(m2)))

def _det_cyclic(R, rng, p, q):
    a, b = random_kernel_matrix(R, rng, p, q), random_kernel_matrix(R, rng, q, p)
    return (cyc_log(dieudonne_det(SeriesMatrix.identity(R, p) + a * b))
            == cyc_log(dieudonne_det(SeriesMatrix.identity(R, q) + b * a)))

def _coeff_matrix(A, rng, n, m):
    return tuple(tuple(A.random_element(rng) for _ in range(m)) for _ in range(n))

def _coeff_mat_inverse(A, rng, n):
    # entries are units half the time, so both outcomes occur over every ring
    m = tuple(tuple(rng.choice((A.random_element, A.random_unit))(rng) for _ in range(n))
              for _ in range(n))
    a = A.random_element(rng)
    try:
        b = A.invert(a)
        if not (A.is_unit(a) and A.mul(a, b) == A.one == A.mul(b, a)):
            return False
    except NotAUnit:
        if A.is_unit(a):
            return False
    try:
        inv = A.mat_invert(m)
    except NotAUnit:
        return not A.mat_is_invertible(m)
    one = A.emat_identity(n)
    return A.mat_is_invertible(m) and A.emat_mul(inv, m) == one == A.emat_mul(m, inv)

def _endo_additivity(rings, rng, k, n, m):
    R = rings[k]
    alpha, alpha2 = _coeff_matrix(R.coeff, rng, n, n), _coeff_matrix(R.coeff, rng, m, m)
    coupling = _coeff_matrix(R.coeff, rng, n, m)
    return exact_sequence_additivity_check(R.coeff, alpha, alpha2, coupling, R.order)

def _endo_trace_log(R, rng, n):
    A = R.coeff
    alpha = power = _coeff_matrix(A, rng, n, n)
    expect = {}
    for k in range(1, R.order + 1):
        diagonal = A.zero
        for i in range(n):
            diagonal = A.add(diagonal, power[i][i])
        for label, value in A.trace(diagonal).items():
            if value:
                expect[(label, R.word_to_str((0,) * k))] = -value / k
        power = A.emat_mul(power, alpha)
    return cyc_log(endo_class_invariant(A, alpha, R.order)).entries == expect

def _log_coefficients(R, rng):
    w = w1_invariant(NovikovSeries(R.one() - R.letter("z")))
    return w.entries == {("1", "z" * n): Fraction(-1, n) for n in range(1, R.order + 1)}

def _monomial_inverse(R, rng):
    gz = NovikovSeries(R.from_terms([((0,), R.coeff.basis_element(1))]))
    inv = nov_invert(gz)
    return nov_mul(gz, inv).matches_one_on_window() and inv.shift == 1

def _orbit_counts(R, rng):
    group = R.coeff.group
    expect, g = {}, group.identity
    for n in range(1, R.order + 1):
        g = group.mul(g, 1)
        expect[(n, group.names[min(group.class_of(g))])] = Fraction(-1, n)
    u = NovikovSeries(R.one() - R.from_terms([((0,), R.coeff.basis_element(1))]))
    return orbit_counts(u).entries == expect

def _twisted_partition(A, rng, n):
    classes = twisted_conjugacy_classes(A.group, A.automorphism("inv").data[1], n)
    return sorted(g for cls in classes for g in cls) == list(range(A.group.order))

def _nov_roundtrip(R, rng, shift, constant):
    a, b = (random_series(R, rng, constant=constant, terms=2) for _ in range(2))
    u = nov_mul(NovikovSeries(a, shift=shift), NovikovSeries(b))
    return nov_mul(u, nov_invert(u)).matches_one_on_window()

def _nov_twist_convention(R, rng):
    # z^-1 a z == xi(a) and z a z^-1 == xi^-1(a), read against the automorphism
    # itself; a non-involutive twist tells the two directions apart
    A, a = R.coeff, R.coeff.random_element(rng)
    xi = A.automorphism(R.twist_names[0])
    z, z_inv = NovikovSeries(R.letter("z")), NovikovSeries(R.one(), shift=1)

    def is_constant(u, c):
        return u.min_degree <= 0 <= u.max_degree and all(
            u.coefficient(d) == (c if d == 0 else A.zero)
            for d in range(u.min_degree, u.max_degree + 1))
    az, az_inv = (NovikovSeries.from_degree_map(R, {d: a}) for d in (1, -1))
    return (is_constant(nov_mul(z_inv, az), xi.apply(a))
            and is_constant(nov_mul(z, az_inv), xi.inverse.apply(a)))

def _twist_definition(A, rng, name):
    # the automorphism against its defining data (RingAutomorphism.data), not
    # its view action: a conjugation by P is P a P^-1 through A.mul and
    # A.invert; a permutation sends each basis key where its data says, and a
    # random element by linearity; each direction undoes the other
    xi, a = A.automorphism(name), A.random_element(rng)
    tag, spec = xi.data
    if tag == "conj":
        p = tuple(tuple(Fraction(x) for x in row) for row in spec)
        keys_ok, expect = True, A.mul(A.mul(p, a), A.invert(p))
    else:
        if tag == "gperm":
            keys, move = range(A.group.order), spec.__getitem__
        else:
            keys, move = A.all_words(), lambda w: tuple(spec[i] for i in w)
        one = Fraction(1)
        keys_ok = all(xi.apply(((k, one),)) == ((move(k), one),) for k in keys)
        expect = A.zero
        for k, c in a:
            expect = A.add(expect, ((move(k), c),))
    return keys_ok and xi.apply(a) == expect and xi.inverse.apply(xi.apply(a)) == a

def _w1_additivity(R, rng):
    u, v = NovikovSeries(random_fiber_one(R, rng)), NovikovSeries(random_fiber_one(R, rng))
    return w1_invariant(nov_mul(u, v)) == w1_invariant(u) + w1_invariant(v)


# -- the registry -------------------------------------------------------------------

def _asked(t):
    return t

def _half(t):
    return max(1, t // 2)

def _once(t):
    return 1


class Check:
    """One registry entry, reported as `prop[tag]`."""

    __slots__ = ("prop", "tag", "name", "identity", "suite", "trial", "build", "shapes",
                 "trials", "min_order")

    def __init__(self, prop, tag, identity, suite, trial, build, shapes=((),),
                 trials=_asked, min_order=0):
        self.prop, self.tag, self.name = prop, tag, f"{prop}[{tag}]"
        self.identity, self.suite, self.trial, self.build = identity, suite, trial, build
        self.shapes, self.trials, self.min_order = shapes, trials, min_order

    def over(self, build) -> "Check":
        """The same check over another ring."""
        return Check(self.prop, self.tag, self.identity, self.suite, self.trial, build,
                     self.shapes, self.trials, self.min_order)


REGISTRY: list[Check] = []

def _add(suite, prop, identity, trial, cases, shapes=((),), trials=_asked, min_order=0):
    for tag, build in cases:
        REGISTRY.append(Check(prop, tag, identity, suite, trial, build, shapes, trials,
                              min_order))


_SIZES = ((1, 1), (2, 2), (3, 2), (2, 3))
_ANNIHILATION = "cyc_log((1+ab)inv(1+ba)) == 0"
_VASERSTEIN = "(1+ab)inv(1+ba) == (1+ab')inv(1+b'a), b' = b+c+bac, central c"
_WHITEHEAD = "(1,-a;0,1)(1+ab,0;0,1)(1,0;b,1) == (1,0;b,1)(1,0;0,1+ba)(1,-a;0,1)"
_REARRANGE = "1 - b*inv(1+ab)*a == inv(1+ba)"
_RING_AXIOMS = "associativity, distributivity, units"

_add("rings", "ring-axioms", _RING_AXIOMS, _axioms,
     [("Q", coeffs(RationalField)), ("Z/6", coeffs(lambda: IntegersMod(6))),
      ("M2(Q)", coeffs(m2_swap)), ("Q[C2]", coeffs(qc2)), ("Q<y,z>/deg>2", coeffs(free_yz))])
for _tag, _build in (("Q", series(RationalField)),
                     ("M2(Q)", series(m2_swap, twist={"x": "swap"})),
                     ("Q[C2]", series(qc2))):
    _add("ldu", "ldu-recompose", "L*diag(d1,d2)*U == M", _ldu_recompose,
         [(_tag, _build)], shapes=((2,), (3,), (4,)))
    _add("ldu", "ldu-unique", "decompose(recompose(F)) == F", _ldu_unique,
         [(_tag, _build)], shapes=((2,), (3,), (4,)))
    _add("ldu", "mat-inverse", "inv(M)*M == 1", _mat_inverse, [(_tag, _build)],
         shapes=((1, False), (2, False), (3, False), (4, False)))
_add("dieudonne-commutative", "dieudonne-vs-cofactor",
     "D(M) == cofactor_det(M) for commutative coefficients", _dieudonne,
     [("Q", series(RationalField, ("x",)))], shapes=((1,), (2,), (3,), (4,)))
_add("cgroup", "whitehead-2x2", _WHITEHEAD, _whitehead, [("M2(Q)", series(m2_swap))],
     shapes=_SIZES)
_add("cgroup", "rearrange-inverses", _REARRANGE, _rearrange, [("M2(Q)", series(m2_swap))],
     shapes=_SIZES)
_add("cgroup", "vaserstein", _VASERSTEIN, _vaserstein,
     [("Q", series(RationalField, ("x",))), ("Q[C2]", series(qc2, ("x",))),
      ("Q<y,z>/deg>2", series(free_yz, ("x",)))],
     shapes=(("any",), ("unit",)))
for _tag, _build in (("Q<y,z>/deg>2", series(free_yz)), ("M2(Q)", series(m2_swap))):
    for _flavor in FLAVORS:
        _add("cyclog", "annihilation", _ANNIHILATION, _annihilation,
             [(f"{_tag}:{_flavor}", _build)], shapes=((_flavor,),))
    _add("cyclog", "additivity", "cyc_log(u*v) == cyc_log(u)+cyc_log(v)", _additivity,
         [(_tag, _build)])
    _add("cyclog", "commutator-inclusion", "cyc_log(alpha beta inv(alpha) inv(beta)) == 0",
         _commutator, [(_tag, _build)], shapes=((False,), (True,)))
    _add("cyclog", "det-multiplicative-mod-C",
         "cyc_log(D(MN)) == cyc_log(D(M))+cyc_log(D(N))", _det_multiplicative,
         [(_tag, _build)], shapes=((1,), (2,), (3,)), trials=_half)
    _add("cyclog", "det-cyclic-symmetry", "cyc_log(D(1+ab)) == cyc_log(D(1+ba))",
         _det_cyclic, [(_tag, _build)], shapes=((1, 1), (2, 1), (2, 2), (3, 2)),
         trials=_half)
_add("cyclog", "endo-additivity", "D(1-(a,c;0,a2)x) == D(1-a x)*D(1-a2 x)",
     _endo_additivity, [("Q,M2(Q)", lambda order: (SeriesRing(RationalField(), order=order),
                                                   SeriesRing(m2_swap(), order=order)))],
     shapes=tuple((k, n, m) for n in (1, 2) for m in (1, 2) for k in (0, 1)),
     trials=lambda t: 2 * _half(t))
_add("novikov", "log-coefficients", "w1(1-z) == {z^n: -1/n}", _log_coefficients,
     [("Q", series(RationalField, ("z",)))], trials=_once, min_order=3)
_add("novikov", "twisted-monomial-inverse", "(g z) * inv(g z) == 1", _monomial_inverse,
     [("Q[C2]", series(qc2, ("z",)))], trials=_once, min_order=2)
_add("novikov", "orbit-counts", "degree-n bucket of class(g^n) == -1/n", _orbit_counts,
     [("Q[C2]", series(qc2, ("z",)))], trials=_once, min_order=3)
_add("novikov", "twisted-partition", "twisted conjugacy classes partition G",
     _twisted_partition, [("C4:inv", coeffs(qc4_inv))], shapes=((1,), (2,), (3,)),
     trials=lambda t: 3)
_add("novikov", "inverse-roundtrip", "u*inv(u) == 1 on the window", _nov_roundtrip,
     [("Q[C4]:inv-twist", series(qc4_inv, ("z",), twist={"z": "inv"}))],
     shapes=tuple((s, c) for c in ("unit", "one") for s in (0, 1, 2)), min_order=3)
_add("novikov", "w1-additivity", "w1(u*v) == w1(u)+w1(v)", _w1_additivity,
     [("Q", series(RationalField, ("z",)))], min_order=3)

# New entries go below this line, so the reports of earlier versions are
# prefixes (per suite) of today's.
_XY = ("x", "y")
_add("rings", "ring-axioms", _RING_AXIOMS, _axioms, [("Q[C4]", coeffs(qc4_inv))])
_add("rings", "series-inverse", "u*inv(u) == 1 == inv(u)*u", _series_inverse, [
    ("Q<<x,y>>", series(RationalField, _XY)),
    ("M2(Q)<<x>>:swap", series(m2_swap, ("x",), {"x": "swap"})),
    ("Q[C4]<<x>>:inv", series(qc4_inv, ("x",), {"x": "inv"})),
    ("Q<y,z><<x>>:flip", series(free_yz, ("x",), {"x": "flip"})),
    ("M2(Q)<<x,y>>:x-swap", series(m2_swap, _XY, {"x": "swap"})),
    ("M2(Q)[x,y]", series(m2_swap, _XY, commute=True))])
_add("rings", "log-exp-roundtrip", "exp(log(u)) == u, log(exp(k)) == k", _log_exp, [
    ("Q<<x,y>>", series(RationalField, _XY)),
    ("M2(Q)<<x,y>>", series(m2_swap, _XY)),
    ("Q<y,z><<x,y>>", series(free_yz, _XY))])
_add("rings", "product-associative", "(s*t)*u == s*(t*u)", _associative, [
    ("M2(Q)<<x,y>>:swap,shear", series(m2_two_twists, _XY, {"x": "swap", "y": "shear"}))],
     min_order=5)
_add("rings", "product-associative", "(s*t)*u == s*(t*u)", _associative,
     [("Q[C4]<<x,y>>:x-inv", series(qc4_inv, _XY, {"x": "inv"}))], min_order=6)
_add("rings", "parse-render-roundtrip", "parse(render(s)) == s", _parse_render, [
    ("Q<<x,y>>", series(RationalField, _XY)),
    ("M2(Q)<<x>>:swap", series(m2_swap, ("x",), {"x": "swap"})),
    ("Q[C4]<<x>>", series(qc4_inv, ("x",))),
    ("Q[C4]<<x>>:inv", series(qc4_inv, ("x",), {"x": "inv"})),
    ("Q<y,z><<x>>", series(free_yz, ("x",)))])
_add("ldu", "ldu-recompose", "L*diag(d1,d2)*U == M", _ldu_recompose,
     [("Q[C4]<<x>>:inv", series(qc4_inv, ("x",), {"x": "inv"}))], shapes=((2,), (3,)))
_add("ldu", "ldu-unique", "decompose(recompose(F)) == F", _ldu_unique,
     [("Q[C4]<<x>>:inv", series(qc4_inv, ("x",), {"x": "inv"}))], shapes=((2,), (3,)))
_add("ldu", "mat-inverse", "inv(M)*M == 1", _mat_inverse, [
    ("Q[C4]<<x>>:inv", series(qc4_inv, ("x",), {"x": "inv"})),
    ("Q<y,z><<x>>:flip", series(free_yz, ("x",), {"x": "flip"}))],
     shapes=((1, True), (2, True)))
_ONE_LETTER = [("Q<<x>>", series(RationalField, ("x",))),
               ("M2(Q)<<x>>:swap", series(m2_swap, ("x",), {"x": "swap"})),
               ("Q<y,z><<x>>", series(free_yz, ("x",)))]
_add("cgroup", "whitehead-2x2", _WHITEHEAD, _whitehead, _ONE_LETTER, shapes=_SIZES)
_add("cgroup", "rearrange-inverses", _REARRANGE, _rearrange, _ONE_LETTER, shapes=_SIZES)
_add("cgroup", "vaserstein", _VASERSTEIN, _vaserstein, [
    ("Q<<x,y>>", series(RationalField, _XY)),
    ("Q[C4]<<x,y>>", series(qc4_inv, _XY)),
    ("Q<y,z><<x,y>>", series(free_yz, _XY))], shapes=(("any",), ("unit",)))
_add("cyclog", "endo-trace-log", "cyc_log(D(1-a x)) == -sum_k tr(a^k)/k x^k",
     _endo_trace_log, [
         ("Q", series(RationalField, ("x",))), ("M2(Q)", series(m2_swap, ("x",))),
         ("Q[C3]", series(lambda: GroupAlgebra(cyclic_group(3)), ("x",))),
         ("Q<y,z>/deg>3", series(lambda: free_yz(3), ("x",)))], shapes=((1,), (2,), (3,)))
_COEFF_RINGS = [("Q", coeffs(RationalField)), ("Z/6", coeffs(lambda: IntegersMod(6))),
                ("M2(Q)", coeffs(m2_swap)), ("Q[C2]", coeffs(qc2)), ("Q[C4]", coeffs(qc4_inv)),
                ("Q<y,z>/deg>2", coeffs(free_yz))]
_COEFF_MAT_INVERSE = ("mat_invert(M) is a two-sided inverse iff mat_is_invertible(M); "
                      "invert(a) is a two-sided inverse iff is_unit(a)")
_add("rings", "coeff-mat-inverse", _COEFF_MAT_INVERSE, _coeff_mat_inverse, _COEFF_RINGS,
     shapes=((1,), (2,), (3,)))
_add("rings", "coeff-mat-inverse", _COEFF_MAT_INVERSE, _coeff_mat_inverse, [
    ("Z/12", coeffs(lambda: IntegersMod(12))), ("M3(Q)", coeffs(lambda: RationalMatrixRing(3)))],
     shapes=((1,), (2,), (3,), (4,)))
_add("rings", "coeff-mat-inverse", _COEFF_MAT_INVERSE, _coeff_mat_inverse,
     [(f"{tag}:4x4", build) for tag, build in _COEFF_RINGS], shapes=((4,),))

_add("rings", "twist-convention", "M(s*t) == M(s)M(t), M(s)[i][i+j] = xi^-i(s_j)",
     _twist_convention, [
         ("Q<<x>>", series(RationalField, ("x",))),
         ("Z/12<<x>>", series(lambda: IntegersMod(12), ("x",))),
         ("M2(Q)<<x>>:p", series(m2_nonintegral, ("x",), {"x": "p"})),
         ("Q[C4]<<x>>:inv", series(qc4_inv, ("x",), {"x": "inv"})),
         ("Q<y,z><<x>>:flip", series(free_yz, ("x",), {"x": "flip"}))])

_NOV_P = [("M2(Q):p", series(m2_nonintegral, ("z",), twist={"z": "p"}))]
_add("novikov", "novikov-twist-convention", "z^-1*(a z) == xi(a), z*(a z^-1) == xi^-1(a)",
     _nov_twist_convention, _NOV_P, min_order=3)
_add("novikov", "inverse-roundtrip", "u*inv(u) == 1 on the window", _nov_roundtrip, _NOV_P,
     shapes=tuple((s, c) for c in ("unit", "one") for s in (0, 1, 2)), min_order=3)

for _tag, _build, _name in (("M2(Q):swap", m2_swap, "swap"), ("M2(Q):p", m2_nonintegral, "p"),
                            ("M3(Q):cyc", m3_cyclic, "cyc"), ("Q[C4]:inv", qc4_inv, "inv"),
                            ("Q[S3]:conj", qs3_conj, "conj"), ("Q<y,z>:flip", free_yz, "flip")):
    _add("rings", "twist-definition",
         "xi(a) == P a P^-1, or xi permutes the basis keys; xi^-1(xi(a)) == a",
         _twist_definition, [(_tag, coeffs(_build))], shapes=((_name,), (_name + "^-1",)))

SUITE_NAMES = (*dict.fromkeys(c.suite for c in REGISTRY), "all")


def run_check(check: Check, seed: int, order: int, trials: int) -> dict:
    """One report item: the check's trials, cycling through its shapes."""
    rng = random.Random(f"{seed}:{check.name}")
    order = max(order, check.min_order)
    ring = check.build(order)
    count = check.trials(trials)
    shapes = check.shapes
    passed = all(check.trial(ring, rng, *shapes[i % len(shapes)]) for i in range(count))
    return {"name": check.name, "identity": check.identity, "order": order,
            "trials": count, "passed": passed}


def selftest(suite: str, seed: int = 42, order: int = 4,
             trials: int = 10) -> dict:
    """Run one named suite (or 'all') and return its report dict."""
    if suite not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {suite!r}; pick one of {', '.join(SUITE_NAMES)}")
    checks = [run_check(c, seed, order, trials) for c in REGISTRY
              if suite in ("all", c.suite)]
    return {"suite": suite, "seed": seed, "order": order,
            "checks": checks, "passed": all(c["passed"] for c in checks)}

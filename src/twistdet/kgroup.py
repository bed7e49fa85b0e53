"""Commutator-group generators, the cyclic-word logarithm invariant, and
the endomorphism class invariant.

The units of augmentation 1 form a group; inside it sits the subgroup C
generated by elements (1+ab)(1+ba)^{-1}. cyc_log is a computable functional
that annihilates every such generator (for trace-compatible untwisted
coefficient rings), so unequal cyc_log values certify distinct C-cosets.
The converse direction is not claimed anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    AugmentationNotOne,
    AugmentationNotUnit,
    CommutationFailed,
    DimensionMismatch,
    FlavorViolated,
    InternalInvariantError,
    NeedsTrace,
    NotInvertible,
    RingMismatch,
)
from .matrices import SeriesMatrix, dieudonne_det
from .rings import Record, least_rotation, sum_by_key
from .series import SeriesRing, TwistedSeries, formal_log

FLAVOR_A_KERNEL = "a_in_kernel"
FLAVOR_AB_BA_KERNEL = "ab_ba_in_kernel"
FLAVOR_BA_KERNEL = "ba_in_kernel"
FLAVOR_UNIT = "one_plus_ba_unit"
FLAVOR_B_UNIT = "b_unit"

FLAVORS = (
    FLAVOR_A_KERNEL,
    FLAVOR_AB_BA_KERNEL,
    FLAVOR_BA_KERNEL,
    FLAVOR_UNIT,
    FLAVOR_B_UNIT,
)


def _inverse(u: TwistedSeries, message: str) -> TwistedSeries:
    """u^-1, or NotInvertible(message) where eps(u) is not a unit."""
    try:
        return u.inverse()
    except AugmentationNotUnit:
        raise NotInvertible(message) from None


class CGenerator(Record):
    """A pair (a, b) defining the group element (1+ab)(1+ba)^{-1}.

    The flavor names the defining condition the pair must satisfy. All
    flavors additionally require 1+ba to be a unit and the resulting element
    to have augmentation 1, which pins eps(ab) = eps(ba). The conditions are
    read off the constant vectors of a and b and their one-pair `dot`s; only
    `b_unit` reads eps(b) as a value, to test the caller's b. The check of
    1+ba is its inversion, kept (outside the record's fields) for `element`.
    """

    __slots__ = ("a", "b", "flavor", "_ba_inverse")

    def __init__(self, a: TwistedSeries, b: TwistedSeries,
                 flavor: str = FLAVOR_AB_BA_KERNEL):
        self.a, self.b, self.flavor = a, b, flavor
        if a.ring != b.ring:
            raise RingMismatch("a and b live in different series rings")
        if flavor not in FLAVORS:
            raise FlavorViolated(f"unknown flavor {flavor!r}")
        R = a.ring
        A, zero = R.coeff, R._zero_vec
        ea, eb = a.vecs.get((), zero), b.vecs.get((), zero)
        # both over a.den * b.den, so the vectors compare as the values do
        e_ab, e_ba = A.dot((ea,), (eb,)), A.dot((eb,), (ea,))
        if flavor == FLAVOR_A_KERNEL and A.nonzero(ea):
            raise FlavorViolated("flavor needs eps(a) = 0")
        if flavor == FLAVOR_AB_BA_KERNEL and (A.nonzero(e_ab) or A.nonzero(e_ba)):
            raise FlavorViolated("flavor needs eps(ab) = eps(ba) = 0")
        if flavor == FLAVOR_BA_KERNEL and A.nonzero(e_ba):
            raise FlavorViolated("flavor needs eps(ba) = 0")
        if flavor == FLAVOR_B_UNIT and not A.is_unit(b.augmentation()):
            raise FlavorViolated("flavor needs eps(b) to be a unit")
        self._ba_inverse = _inverse(R.one() + b * a, "1 + ba is not invertible")
        if e_ab != e_ba:
            raise FlavorViolated(
                "eps(ab) != eps(ba): the element would leave the augmentation fiber")

    def element(self) -> TwistedSeries:
        return (self.a.ring.one() + self.a * self.b) * self._ba_inverse


def c_generator(a: TwistedSeries, b: TwistedSeries,
                flavor: str = FLAVOR_AB_BA_KERNEL) -> TwistedSeries:
    """(1+ab)(1+ba)^{-1} after validating the flavor's conditions."""
    return CGenerator(a, b, flavor).element()


def vaserstein_transform(a: TwistedSeries, b: TwistedSeries, c: TwistedSeries):
    """Replace b by b' = b+c+bac without moving the group element.

    Needs ac = ca exactly. Returns (b', check) where check reports whether
    (1+ab)(1+ba)^{-1} == (1+ab')(1+b'a)^{-1} held exactly; it must.
    """
    ring = a.ring
    if b.ring != ring or c.ring != ring:
        raise RingMismatch("a, b, c must share one series ring")
    ac = a * c
    if ac != c * a:
        raise CommutationFailed("a and c do not commute")
    one = ring.one()
    ba_inverse = _inverse(one + b * a, "1 + ba is not invertible")
    b2 = b + c + b * ac
    # 1 + b'a = (1 + ba)(1 + ac), so with 1 + ba inverted, this inversion is
    # the test of 1 + ac
    b2a_inverse = _inverse(one + b2 * a, "1 + ac is not invertible")
    lhs = (one + a * b) * ba_inverse
    rhs = (one + a * b2) * b2a_inverse
    return b2, lhs == rhs


def commutator_as_c_generator(alpha: TwistedSeries, beta: TwistedSeries):
    """(a, b) = (alpha*beta - alpha, alpha^{-1}), so that
    (1+ab)(1+ba)^{-1} = alpha beta alpha^{-1} beta^{-1}."""
    ring = alpha.ring
    if beta.ring != ring:
        raise RingMismatch("alpha and beta live in different series rings")
    b = _inverse(alpha, "alpha is not a unit")
    beta_inverse = _inverse(beta, "beta is not a unit")
    a = alpha * beta - alpha
    one = ring.one()
    lhs = (one + a * b) * (one + b * a).inverse()
    rhs = alpha * beta * b * beta_inverse
    if lhs != rhs:
        raise InternalInvariantError("commutator identity failed; ring arithmetic is broken")
    return a, b


class CycLogVector(Record):
    """Exact rational vector indexed by (trace label, cyclic word class).

    Cyclic classes are keyed by the lexicographically least rotation of the
    word (letter indices compared in alphabet order). The empty word never
    appears: augmentation-1 inputs have no constant log term. Zero entries
    are dropped.
    """

    __slots__ = ("order", "entries")

    def __init__(self, order: int, entries: dict):
        self.order = order
        self.entries = {k: v for k, v in entries.items() if v != 0}

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "CycLogVector") -> "CycLogVector":
        if not isinstance(other, CycLogVector) or other.order != self.order:
            raise RingMismatch("cannot add cyclic-log vectors of different orders")
        return CycLogVector(self.order, sum_by_key([*self.entries.items(),
                                                    *other.entries.items()]))

    def __neg__(self) -> "CycLogVector":
        return CycLogVector(self.order, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "CycLogVector") -> "CycLogVector":
        return self + (-other)

    def sorted_items(self):
        return sorted(self.entries.items(),
                      key=lambda kv: (len(kv[0][1]), kv[0][1], kv[0][0]))


def cyc_log(u: TwistedSeries) -> CycLogVector:
    """Trace-projected logarithm onto cyclic word classes.

    Each log term a*w contributes trace(b) to the bucket of w's least
    rotation, where b is a moved right past the prefix of w rotated to the
    end (untwisted words leave it as it is). All of it stays in the integer
    view: b is a's vector moved by the view actions, over the log's
    denominator times the moves' factors, and `trace_vector` gives its
    integer trace by label. A bucket sums its integers per moved
    denominator and builds one Fraction at the end.
    """
    ring = u.ring
    A = ring.coeff
    if not A.contains_rationals:
        raise NeedsTrace(f"{A.name} has no rational-valued trace")
    if not u.augmentation_is_one():
        raise AugmentationNotOne("cyc_log needs augmentation exactly 1")
    log = formal_log(u)
    sums: dict = {}  # (label, class) -> {moved denominator: integer sum}
    for word, vec in log.vecs.items():
        if word:
            r = least_rotation(word)
            key = ring.word_to_str(word[r:] + word[:r])
            moved, den = ring._moved(word[:r], {(): vec}, log.den, right=True)
            for label, t in A.trace_vector(moved[()]).items():
                by_den = sums.setdefault((label, key), {})
                by_den[den] = by_den.get(den, 0) + t
    entries = {}
    for bucket, by_den in sums.items():
        den = math.lcm(*by_den)
        entries[bucket] = Fraction(sum(t * (den // d) for d, t in by_den.items()), den)
    return CycLogVector(ring.order, entries)


def refuse_twisted_trace(ring: SeriesRing, subject: str):
    """NeedsTrace, worded from subject ("cyclog needs", "coset verdicts
    need"), if a letter of ring is twisted: there cyc_log's plain-trace
    buckets need not vanish on C."""
    if any(name != "id" for name in ring.twist_names):
        raise NeedsTrace(f"{subject} untwisted letters: the plain trace "
                         "does not kill C generators of a twisted ring")


def coset_probably_equal(u: TwistedSeries, v: TwistedSeries) -> str:
    """'distinct' certifies different C-cosets; 'indistinguishable' proves
    nothing. Refused on twisted rings, where cyc_log need not vanish on C."""
    if u.ring != v.ring:
        raise RingMismatch("u and v live in different series rings")
    refuse_twisted_trace(u.ring, "coset verdicts need")
    return "distinct" if cyc_log(u) != cyc_log(v) else "indistinguishable"


def one_minus_alpha_x(coeff, alpha, order: int) -> SeriesMatrix:
    """1 - alpha*x over the untwisted one-letter series ring at the given
    order, for alpha a square matrix over the coefficient ring. 1 and
    alpha are cleared once, and each entry is built from their vectors over
    that den: 1 on the diagonal, and -alpha_ij at x."""
    alpha = tuple(tuple(row) for row in alpha)
    n = len(alpha)
    if n == 0 or any(len(row) != n for row in alpha):
        raise DimensionMismatch("alpha must be square and nonempty")
    ring = SeriesRing(coeff, ("x",), order=order)
    (one, *vecs), den = coeff.clear([coeff.one, *(a for row in alpha for a in row)])
    scale, nonzero = coeff.scale_vector, coeff.nonzero

    def entry(e: int) -> TwistedSeries:
        terms = {(): one} if e % (n + 1) == 0 else {}
        if order and nonzero(vecs[e]):
            terms[(0,)] = scale(vecs[e], -1)
        return TwistedSeries(ring, terms, den)
    return SeriesMatrix(ring, [[entry(i + j) for j in range(n)] for i in range(0, n * n, n)])


def endo_class_invariant(coeff, alpha, order: int) -> TwistedSeries:
    """D(1 - alpha*x): the class invariant of the endomorphism alpha."""
    return dieudonne_det(one_minus_alpha_x(coeff, alpha, order))


def exact_sequence_additivity_check(coeff, alpha, alpha2, coupling,
                                    order: int) -> bool:
    """D(1 - [[alpha, coupling], [0, alpha2]]x) == D(1-alpha*x)*D(1-alpha2*x),
    exactly. Holds for every coupling because the assembly is block
    upper-triangular."""
    alpha = tuple(tuple(row) for row in alpha)
    alpha2 = tuple(tuple(row) for row in alpha2)
    coupling = tuple(tuple(row) for row in coupling)
    n, m = len(alpha), len(alpha2)
    if len(coupling) != n or any(len(row) != m for row in coupling):
        raise DimensionMismatch(f"coupling must be {n}x{m}")
    big = ([alpha[i] + coupling[i] for i in range(n)]
           + [(coeff.zero,) * n + alpha2[i] for i in range(m)])
    left = endo_class_invariant(coeff, big, order)
    right = (endo_class_invariant(coeff, alpha, order)
             * endo_class_invariant(coeff, alpha2, order))
    return left == right

"""Twisted Laurent-type series in one letter z with finitely many negative
powers, plus the degree-1-and-up logarithm invariant and its regrouping by
twisted conjugacy classes.

An element is stored as z^(-shift) * base where base is an ordinary
truncated series in z and shift >= 0. The representation is normalized:
whenever shift > 0 and the base is nonzero, the base has a nonzero z^0
coefficient. Stripping a factor z^j off the base shortens the reliable
window by j degrees, so the base's truncation order drops by j; every
coefficient kept is exact. A zero base keeps its shift: the object then
asserts only that the window [-shift, order-shift] vanishes.

Coefficients cross powers of z only through the series ring's moves past
z^k (`SeriesRing._moved`), so z*b = xi^-1(b)*z here as in the series ring:
one helper, `_z`, forms z^k * base * z^m for the normal form, sums,
products and inverses.
"""

from __future__ import annotations

from .errors import (
    AugmentationNotUnit,
    ClassRegroupIncompatible,
    InternalInvariantError,
    LeadingCoeffNotUnit,
    NotInWOne,
    RingMismatch,
    WindowUnderflow,
)
from .kgroup import CycLogVector, cyc_log
from .rings import Record, sum_by_key, twisted_conjugacy_classes
from .series import SeriesRing, TwistedSeries


def _z(base: TwistedSeries, k: int, m: int, order: int) -> TwistedSeries:
    """z^k * base * z^m at `order`: each coefficient of base moved leftward
    past z^k (rightward past z^-k for k < 0), then each word's length changed
    by k + m. For k + m < 0 every word of base has at least -(k + m)
    letters."""
    ring = base.ring.with_order(order)
    vecs, den = ring._moved((0,) * abs(k), base.vecs, base.den, right=k < 0)
    return TwistedSeries(ring, {(0,) * (len(w) + k + m): v for w, v in vecs.items()
                                if len(w) + k + m <= order}, den)


class NovikovSeries:
    """z^(-shift) * base, normalized so shift > 0 implies base(z^0) != 0."""

    __slots__ = ("base", "shift")

    def __init__(self, base: TwistedSeries, shift: int = 0):
        ring = base.ring
        if len(ring.alphabet) != 1:
            raise RingMismatch("Novikov elements need a one-letter series ring")
        if shift < 0:
            raise ValueError("shift must be >= 0")
        j = min(shift, *map(len, base.vecs)) if base.vecs else 0
        if j:
            base, shift = _z(base, -j, 0, ring.order - j), shift - j
        self.base = base
        self.shift = shift

    # -- window ----------------------------------------------------------------
    @property
    def min_degree(self) -> int:
        return -self.shift

    @property
    def max_degree(self) -> int:
        return self.base.ring.order - self.shift

    def coefficient(self, d: int):
        """Exact coefficient of z^d; degrees above the window are unknown."""
        R = self.base.ring
        if d > self.max_degree:
            raise WindowUnderflow(
                f"degree {d} lies beyond the represented window "
                f"[{self.min_degree}, {self.max_degree}]")
        vec = self.base.vecs.get((0,) * (d + self.shift)) if d >= self.min_degree else None
        if vec is None:
            return R.coeff.zero
        vecs, den = R._moved((0,) * self.shift, {(): vec}, self.base.den, right=True)
        return R.coeff.rebuild(vecs[()], den)

    def is_zero(self) -> bool:
        return self.base.is_zero()

    def is_one(self) -> bool:
        return self.shift == 0 and self.base.is_one()

    def matches_one_on_window(self) -> bool:
        """True iff every represented coefficient agrees with the constant 1.

        Weaker than is_one when the window misses degree 0. Read off the
        normal form: a nonzero base with shift > 0 has a nonzero coefficient
        at -shift, and a move fixes 0 and 1, so at shift 0 the window is the
        base, and at shift > 0 only a zero base whose window ends below 0
        matches."""
        return self.is_one() or (self.is_zero() and self.max_degree < 0)

    def __eq__(self, other):
        return (isinstance(other, NovikovSeries) and self.shift == other.shift
                and self.base == other.base)

    __hash__ = None

    def __repr__(self):
        letter = self.base.ring.alphabet[0]
        if self.shift == 0:
            return repr(self.base)
        return f"<{letter}^-{self.shift} * {repr(self.base)[1:-1]}>"

    @staticmethod
    def from_degree_map(ring: SeriesRing, degrees: dict) -> "NovikovSeries":
        """Build from {z-degree: coefficient}; negative degrees set the shift.
        The window, of the ring's order, holds z^0 and every degree given."""
        if len(ring.alphabet) != 1:
            raise RingMismatch("Novikov elements need a one-letter series ring")
        A = ring.coeff
        nonzero = {int(d): c for d, c in degrees.items() if not A.is_zero(c)}
        if not nonzero:
            return NovikovSeries(ring.zero(), 0)
        shift = max(0, -min(nonzero))
        if max(0, *nonzero) + shift > ring.order:  # the window holds z^0 too
            raise WindowUnderflow(
                f"degrees {min(nonzero)}..{max(nonzero)} and 0 span more than "
                f"order {ring.order} allows")
        base = ring.from_terms({(0,) * (d + shift): c for d, c in nonzero.items()})
        return NovikovSeries(_z(base, shift, -shift, ring.order), shift)


def _common_ring(u: NovikovSeries, v: NovikovSeries):
    ru, rv = u.base.ring, v.base.ring
    if (ru.coeff, ru.alphabet, ru.twist_names, ru.letters_commute) != (
            rv.coeff, rv.alphabet, rv.twist_names, rv.letters_commute):
        raise RingMismatch("Novikov operands live over different rings")


def nov_add(u: NovikovSeries, v: NovikovSeries) -> NovikovSeries:
    _common_ring(u, v)
    shift = max(u.shift, v.shift)
    order = min(u.base.ring.order + (shift - u.shift),
                v.base.ring.order + (shift - v.shift))
    return NovikovSeries(_z(u.base, shift - u.shift, 0, order)
                         + _z(v.base, shift - v.shift, 0, order), shift)


def nov_neg(u: NovikovSeries) -> NovikovSeries:
    return NovikovSeries(-u.base, u.shift)


def nov_mul(u: NovikovSeries, v: NovikovSeries) -> NovikovSeries:
    """z^-(s+t) * (z^t u.base z^-t) * v.base; window = min of operands."""
    _common_ring(u, v)
    shift = u.shift + v.shift
    order = min(u.base.ring.order, v.base.ring.order)
    return NovikovSeries(_z(u.base, v.shift, -v.shift, order) * v.base.truncated(order), shift)


def nov_invert(u: NovikovSeries) -> NovikovSeries:
    """Inverse when the lowest-degree coefficient is a unit of A."""
    if u.is_zero():
        raise LeadingCoeffNotUnit("zero has no inverse")
    ring = u.base.ring
    A = ring.coeff
    j = min(map(len, u.base.vecs))
    try:  # the body's augmentation is the leading coefficient, twisted
        inv_body = _z(u.base, -j, 0, ring.order - j).inverse()
    except AugmentationNotUnit:
        raise LeadingCoeffNotUnit(
            f"leading coefficient at degree {j - u.shift} is not a unit of {A.name}") from None
    t, order = u.shift - j, inv_body.ring.order
    if t > order:
        raise WindowUnderflow("the inverse starts beyond the representable window")
    # inv_body * z^t = z^-s * (z^s inv_body z^t) for s = max(-t, 0)
    s = max(-t, 0)
    result = NovikovSeries(_z(inv_body, s, t, order), s)
    check = nov_mul(u, result)
    if not check.matches_one_on_window():
        raise InternalInvariantError("inverse failed its multiply-back check")
    return result


def w1_invariant(u: NovikovSeries) -> CycLogVector:
    """cyc_log of u for u in 1 + A[[z]]z (shift 0, constant term 1)."""
    if u.shift != 0:
        raise NotInWOne("element has negative z-degrees")
    if not u.base.augmentation_is_one():
        raise NotInWOne("constant term is not 1")
    return cyc_log(u.base)


class OrbitCountReport(Record):
    """Exact rationals per (z-degree n, twisted conjugacy class of G).

    Classes at degree n are orbits of g ~ h g xi^n(h^-1), keyed by the name
    of the least element they contain. Zero entries are dropped.
    """

    __slots__ = ("order", "group_name", "twist_name", "lefschetz", "entries")

    def __init__(self, order: int, group_name: str, twist_name: str,
                 lefschetz: bool, entries: dict):
        self.order = order
        self.group_name = group_name
        self.twist_name = twist_name
        self.lefschetz = lefschetz
        self.entries = {k: v for k, v in entries.items() if v != 0}

    def is_zero(self) -> bool:
        return not self.entries

    def sorted_items(self):
        return sorted(self.entries.items())


def orbit_counts(u: NovikovSeries, lefschetz: bool = False,
                 w1: CycLogVector | None = None) -> OrbitCountReport:
    """Regroup w1_invariant buckets by twisted conjugacy at each z-degree;
    `w1`, when given, is w1_invariant(u), already computed by the caller."""
    A = u.base.ring.coeff
    if A.kind != "group_algebra":
        raise ClassRegroupIncompatible(
            f"orbit counting needs group-algebra coefficients, got {A.name}")
    group = A.group
    auto = A.automorphism(u.base.ring.twist_names[0])
    # a group algebra's twists are "id" and those of register_group_automorphism
    perm = auto.data[1] if auto.data[0] == "gperm" else range(group.order)
    w = w1_invariant(u) if w1 is None else w1
    plain = {group.names[min(cls)]: cls for cls in group.conjugacy_classes()}
    class_at = {}  # z-degree n -> {element: its xi^n-twisted class}
    for n in {len(word) for _, word in w.entries}:
        class_at[n] = {g: t for t in twisted_conjugacy_classes(group, perm, n) for g in t}
    pairs = []
    for (label, word), q in w.entries.items():
        n, cls = len(word), plain[label]
        hit = class_at[n][min(cls)]
        if not cls <= hit:
            raise ClassRegroupIncompatible(
                f"plain class {label} splits across xi^{n}-twisted classes; "
                "per-element counts were already merged")
        pairs.append(((n, group.names[min(hit)]), q * n if lefschetz else q))
    return OrbitCountReport(order=u.base.ring.order, group_name=group.name,
                            twist_name=auto.name, lefschetz=lefschetz,
                            entries=sum_by_key(pairs))

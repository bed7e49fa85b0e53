"""Truncated twisted power series over a coefficient ring.

A series ring fixes a coefficient ring A, an ordered alphabet of letters, a
twist (one named ring automorphism per letter), and a truncation order N:
words longer than N are discarded everywhere. Coefficients are stored on the
left of words. The defining relation is a*x = x*xi_x(a) for each letter x,
so moving a coefficient leftward past a word applies the inverse
automorphisms of its letters right-to-left.

The product is one convolution kernel. The right operand's terms are sorted
by word length, so a left word's inner loop ends at the first pair that would
overshoot the order. A word's move depends only on its twist key, the ids of
its twisted letters (letters sharing an automorphism share an id): untwisted
words move nothing, and within one product each (key, right word) is moved
once, reusing the move of the key's suffix. Inverse, log/exp, series
matrices and the free algebra's product all go through this kernel.

The augmentation eps reads off the empty-word coefficient; it is a ring map
onto A with section lift(). A series is invertible exactly when eps of it is
a unit of A (the ring is local over the augmentation), and because the
augmentation ideal is nilpotent at any finite order the inverse is fixed
degree by degree from eps^{-1} (graded_inverse, shared with series matrices).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .errors import (
    AugmentationNotOne,
    AugmentationNotUnit,
    LiteralSyntaxError,
    NeedsRationalCoefficients,
    RingMismatch,
)
from .rings import CoeffRing


def _grlex(word: tuple) -> tuple:
    return (len(word), word)


_first = itemgetter(0)


class SeriesRing:
    """A_xi<<X>> truncated at total word length `order`."""

    def __init__(self, coeff: CoeffRing, alphabet=("x",), twist=None, order=4,
                 letters_commute=False):
        alphabet = tuple(alphabet)
        if any(len(a) != 1 for a in alphabet) or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct single characters")
        if order < 0:
            raise ValueError("order must be >= 0")
        twist = twist or {}
        stray = sorted(set(twist) - set(alphabet))
        if stray:
            raise ValueError(f"twist names letters not in the alphabet: {stray}")
        names = tuple(twist.get(a, "id") for a in alphabet)
        self.coeff = coeff
        self.alphabet = alphabet
        self.twist_names = names
        self.order = order
        self.letters_commute = bool(letters_commute)
        self._autos = tuple(coeff.automorphism(n) for n in names)
        if self.letters_commute and any(n != "id" for n in names):
            raise ValueError("commuting letters require identity twists")
        self._letter_index = {a: i for i, a in enumerate(alphabet)}
        # Twist keys for the product: each twisted letter maps to an id, and
        # letters twisted by one automorphism share it; _inverse_twists[id]
        # is that automorphism's inverse.
        ids = {n: k for k, n in enumerate(dict.fromkeys(n for n in names if n != "id"))}
        self._twist_ids = {i: ids[n] for i, n in enumerate(names) if n != "id"}
        self._inverse_twists = tuple(coeff.automorphism(n).inverse for n in ids)

    # -- identity ------------------------------------------------------------
    def signature(self) -> tuple:
        return (self.coeff.signature(), self.alphabet, self.twist_names,
                self.order, self.letters_commute)

    def __eq__(self, other):
        if other is self:
            return True
        return isinstance(other, SeriesRing) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        letters = ",".join(self.alphabet)
        return f"{self.coeff.name}<<{letters}>>@{self.order}"

    def with_order(self, order: int) -> "SeriesRing":
        if order == self.order:
            return self
        return SeriesRing(self.coeff, self.alphabet,
                          dict(zip(self.alphabet, self.twist_names)),
                          order, self.letters_commute)

    # -- words ----------------------------------------------------------------
    def letter_index(self, name: str) -> int:
        try:
            return self._letter_index[name]
        except KeyError:
            raise LiteralSyntaxError(f"unknown letter {name!r}") from None

    def word_from_str(self, text: str) -> tuple:
        return self.normalize_word(tuple(self.letter_index(ch) for ch in text))

    def word_to_str(self, word: tuple) -> str:
        return "".join(self.alphabet[i] for i in word)

    def normalize_word(self, word: tuple) -> tuple:
        return tuple(sorted(word)) if self.letters_commute else word

    def twist_key(self, word: tuple) -> tuple:
        """The ids of the twisted letters of `word`, in order.

        move_left(word, b) depends on the word only through this key; an
        untwisted word has the empty key.
        """
        ids = self._twist_ids
        return tuple(ids[i] for i in word if i in ids)

    def move_left(self, word: tuple, b):
        """Coefficient b moved from the right of `word` to its left.

        Applies the inverse twist automorphisms of the letters right-to-left,
        per x * b = xi_x^{-1}(b) * x.
        """
        for i in reversed(word):
            b = self._autos[i].inverse.apply(b)
        return b

    def _move_keyed(self, key: tuple, w: tuple, b, memo: dict):
        """move_left(v, b) for every word v whose twist key is the nonempty `key`.

        b is the coefficient of the right operand's word w, so (key, w) names
        the result within one product. Since move_left(v, b) is
        xi_{v0}^-1(move_left(v[1:], b)), each suffix of the key costs one
        automorphism per w, and `memo` keeps them all.
        """
        moved = memo.get((key, w))
        if moved is None:
            rest = key[1:]
            inner = self._move_keyed(rest, w, b, memo) if rest else b
            moved = memo[key, w] = self._inverse_twists[key[0]].apply(inner)
        return moved

    def move_right(self, word: tuple, a):
        """Coefficient a moved from the left of `word` to its right.

        Inverse of move_left: a * w = w * move_right(w, a).
        """
        for i in word:
            a = self._autos[i].apply(a)
        return a

    # -- constructors ---------------------------------------------------------
    def from_terms(self, terms) -> "TwistedSeries":
        A = self.coeff
        acc: dict[tuple, object] = {}
        for word, c in (terms.items() if isinstance(terms, dict) else terms):
            if isinstance(word, str):
                word = self.word_from_str(word)
            else:
                word = self.normalize_word(tuple(word))
            if len(word) > self.order:
                continue
            prev = acc.get(word, A.zero)
            acc[word] = A.add(prev, c)
        return TwistedSeries(self, {w: c for w, c in acc.items() if not A.is_zero(c)})

    def zero(self) -> "TwistedSeries":
        return TwistedSeries(self, {})

    def one(self) -> "TwistedSeries":
        return TwistedSeries(self, {(): self.coeff.one})

    def lift(self, a) -> "TwistedSeries":
        """The section of the augmentation: a constant series."""
        if self.coeff.is_zero(a):
            return self.zero()
        return TwistedSeries(self, {(): a})

    def letter(self, name: str) -> "TwistedSeries":
        idx = self.letter_index(name)
        if self.order < 1:
            return self.zero()
        return TwistedSeries(self, {(idx,): self.coeff.one})


class TwistedSeries:
    """An element of a SeriesRing: a finite map word -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basics ---------------------------------------------------------------
    def support(self) -> list[tuple]:
        return sorted(self.terms, key=_grlex)

    def coefficient(self, word):
        if isinstance(word, str):
            word = self.ring.word_from_str(word)
        return self.terms.get(tuple(word), self.ring.coeff.zero)

    def augmentation(self):
        return self.terms.get((), self.ring.coeff.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self == self.ring.one()

    def __eq__(self, other):
        return (isinstance(other, TwistedSeries) and self.ring == other.ring
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        from .literals import render_series
        return f"<{render_series(self)}>"

    def _check_ring(self, other: "TwistedSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"operands live in {self.ring!r} and {other.ring!r}")

    # -- linear structure -------------------------------------------------------
    def __add__(self, other: "TwistedSeries") -> "TwistedSeries":
        return TwistedSeries(self.ring, dict(self.terms))._add_in_place(other)

    def _add_in_place(self, other: "TwistedSeries") -> "TwistedSeries":
        """self + other, written into self's terms: only for a series that its
        caller built and shares with no one, such as a running sum."""
        self._check_ring(other)
        A = self.ring.coeff
        add, is_zero, zero = A.add, A.is_zero, A.zero
        acc = self.terms
        for w, c in other.terms.items():
            s = add(acc.get(w, zero), c)
            if is_zero(s):
                acc.pop(w, None)
            else:
                acc[w] = s
        return self

    def __neg__(self) -> "TwistedSeries":
        A = self.ring.coeff
        return TwistedSeries(self.ring, {w: A.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self + (-other)

    def scale(self, q) -> "TwistedSeries":
        """Multiply every coefficient by a rational scalar."""
        A = self.ring.coeff
        q = Fraction(q)
        if q == 0:
            return self.ring.zero()
        return TwistedSeries(self.ring, {w: A.scalar_mul(q, c)
                                         for w, c in self.terms.items()})

    def map_coefficients(self, auto) -> "TwistedSeries":
        return TwistedSeries(self.ring, {w: auto.apply(c)
                                         for w, c in self.terms.items()})

    # -- multiplication ----------------------------------------------------------
    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        """The truncated product, as one convolution over the pairs that fit.

        The right operand's terms are sorted by word length once, so for a
        left word v the inner loop stops at the first right word w with
        |v| + |w| > order. Moving b leftward past v depends only on v's twist
        key: an untwisted v moves nothing, and a twisted one shares one
        automorphism per distinct (key, w) with every left word of that key.
        """
        self._check_ring(other)
        R = self.ring
        A = R.coeff
        add, mul, is_zero = A.add, A.mul, A.is_zero
        commute = R.letters_commute
        twisted = bool(R._twist_ids)
        order = R.order
        right = [(len(w), w, b) for w, b in other.terms.items()]
        if len(right) > 1:
            right.sort(key=_first)
        memo: dict = {}
        acc: dict[tuple, object] = {}
        for v, a in self.terms.items():
            room = order - len(v)
            key = R.twist_key(v) if twisted else ()
            for lw, w, b in right:
                if lw > room:
                    break
                if key:
                    b = R._move_keyed(key, w, b, memo)
                c = mul(a, b)
                if is_zero(c):
                    continue
                word = v + w
                if commute:
                    word = tuple(sorted(word))
                prev = acc.get(word)
                if prev is None:
                    acc[word] = c
                    continue
                s = add(prev, c)
                if is_zero(s):
                    del acc[word]
                else:
                    acc[word] = s
        return TwistedSeries(R, acc)

    def power(self, k: int) -> "TwistedSeries":
        if k < 0:
            raise ValueError("negative power; use inverse() first")
        acc = self.ring.one()
        for _ in range(k):
            acc = acc * self
        return acc

    # -- truncation ----------------------------------------------------------------
    def truncated(self, order: int) -> "TwistedSeries":
        ring = self.ring.with_order(order)
        return TwistedSeries(ring, {w: c for w, c in self.terms.items()
                                    if len(w) <= order})

    # -- inversion -------------------------------------------------------------------
    def graded_parts(self) -> list["TwistedSeries"]:
        """The homogeneous components by word length, degrees 0..order."""
        buckets = [{} for _ in range(self.ring.order + 1)]
        for w, c in self.terms.items():
            buckets[len(w)][w] = c
        return [TwistedSeries(self.ring, b) for b in buckets]

    def inverse(self) -> "TwistedSeries":
        """Two-sided inverse; needs eps of the series to be a unit of A."""
        A = self.ring.coeff
        e = self.augmentation()
        if not A.is_unit(e):
            raise AugmentationNotUnit(
                f"augmentation {A.element_to_literal(e)} is not a unit of {A.name}")
        return graded_inverse(self.graded_parts(), self.ring.lift(A.invert(e)))


def graded_inverse(parts: list, inv0):
    """The inverse of x = sum(parts), parts[d] of degree d, from inv0 = parts[0]^-1.

    Its components are out[0] = inv0 and
    out[d] = -inv0 * sum_{k=1..d} parts[k]*out[d-k], so x * sum(out) = 1; in a
    ring local over the augmentation this right inverse is two-sided. Sums
    are accumulated in place (`_add_in_place`), the total into inv0, which
    must be the caller's own. Serves series and series matrices alike.
    """
    out = [inv0]
    for d in range(1, len(parts)):
        acc = parts[d] * inv0
        for k in range(1, d):
            if not (parts[k].is_zero() or out[d - k].is_zero()):
                acc._add_in_place(parts[k] * out[d - k])
        out.append(-(inv0 * acc))
    for part in out[1:]:
        inv0._add_in_place(part)
    return inv0


def _power_sum(theta: TwistedSeries, coeff) -> TwistedSeries:
    """sum_{k>=1} coeff(k) * theta^k, stopping once theta^k truncates to 0."""
    R = theta.ring
    acc = R.zero()
    power = R.one()
    for k in range(1, R.order + 1):
        power = power * theta
        if power.is_zero():
            break
        acc._add_in_place(power.scale(coeff(k)))
    return acc


def formal_log(u: TwistedSeries) -> TwistedSeries:
    """log(u) = theta - theta^2/2 + theta^3/3 - ... for u = 1 + theta."""
    R = u.ring
    A = R.coeff
    if not A.contains_rationals:
        raise NeedsRationalCoefficients(f"formal log needs Q inside {A.name}")
    if not A.is_one(u.augmentation()):
        raise AugmentationNotOne("formal log needs augmentation exactly 1")
    return _power_sum(u - R.one(), lambda k: Fraction((-1) ** (k + 1), k))


def formal_exp(t: TwistedSeries) -> TwistedSeries:
    """exp(t) = 1 + t + t^2/2! + ... for t with augmentation 0."""
    R = t.ring
    A = R.coeff
    if not A.contains_rationals:
        raise NeedsRationalCoefficients(f"formal exp needs Q inside {A.name}")
    if not A.is_zero(t.augmentation()):
        raise AugmentationNotOne("formal exp needs augmentation exactly 0")
    return R.one() + _power_sum(t, lambda k: Fraction(1, math.factorial(k)))

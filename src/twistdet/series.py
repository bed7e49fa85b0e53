"""Truncated twisted power series over a coefficient ring.

A series ring fixes a coefficient ring A, an ordered alphabet of letters, a
twist (one named ring automorphism per letter), and a truncation order N:
words longer than N are discarded everywhere. Coefficients are stored on the
left of words. The defining relation is a*x = x*xi_x(a) for each letter x,
so moving a coefficient leftward past a word applies the inverse
automorphisms of its letters right-to-left.

Every product is one kernel, `sums_of_products`, which computes sums
sum_i s_i * t_i in the coefficient ring's Z-linear view (see rings.py), after
FLINT's fmpq_poly layout: each operand's coefficients are cleared once to
integer vectors over one shared denominator, the pairs' vectors are gathered
per output word (named by an integer code, so no word tuple is built or
hashed per pair) and summed by one integer `dot`, and each output word's
value is rebuilt once. The right operand's terms are sorted by word length,
so a left word's inner loop ends at the first pair that would overshoot the
order. A word's move depends only on its twist key, the ids of its twisted
letters (letters sharing an automorphism share an id): untwisted words move
nothing, and within one call each (key, right word) is moved once, as an
integer vector through the twists' view actions (rings.RingAutomorphism),
reusing the move of the key's suffix, and only if it fits under the order.
A series product, a whole series-matrix product, all the products
-inv0 * part that start an inverse (of a series or a series matrix), each
degree of that inverse, all the entries of l and u in an LDU split and each
step of Horner's rule for log/exp are one call of this kernel each.

The augmentation eps reads off the empty-word coefficient; it is a ring map
onto A with section lift(). A series is invertible exactly when eps of it is
a unit of A (the ring is local over the augmentation), and because the
augmentation ideal is nilpotent at any finite order the inverse is fixed
degree by degree from eps^{-1} (graded_inverse, shared with series matrices).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    AugmentationNotOne,
    AugmentationNotUnit,
    LiteralSyntaxError,
    NeedsRationalCoefficients,
    NotAUnit,
    RingMismatch,
)
from .rings import CoeffRing


def _grlex(word: tuple) -> tuple:
    return (len(word), word)


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
        # Twist keys for the product: each twisted letter maps to an id, and
        # letters twisted by one automorphism share it; _inverse_twists[id]
        # is that automorphism's inverse.
        ids = {n: k for k, n in enumerate(dict.fromkeys(n for n in names if n != "id"))}
        self._inverse_twists = tuple(coeff.automorphism(n).inverse for n in ids)
        self.coeff = coeff
        self.alphabet = alphabet
        self.twist_names = names
        self.order = order
        self.letters_commute = bool(letters_commute)
        if self.letters_commute and any(n != "id" for n in names):
            raise ValueError("commuting letters require identity twists")
        self._letter_index = {a: i for i, a in enumerate(alphabet)}
        self._twist_ids = {i: ids[n] for i, n in enumerate(names) if n != "id"}
        self._infos: dict[tuple, tuple] = {}
        self._key_factors: dict[tuple, int] = {}

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

    def _word_info(self, word: tuple) -> tuple:
        """(code, scale, twist key) of a word, memoized. The code is an integer
        that names the word (its normal form, if letters commute), and
        code(v + w) = code(v) * scale(w) + code(w). It also records the key's
        factor in _key_factors: the product of its inverse twists' factors."""
        info = self._infos.get(word)
        if info is None:
            if self.letters_commute:  # exponents, in base order + 1
                code, scale = sum((self.order + 1) ** i for i in word), 1
            else:  # letters as the digits 1..k, in base k + 1
                base, code = len(self.alphabet) + 1, 0
                for i in word:
                    code = code * base + i + 1
                scale = base ** len(word)
            key = self.twist_key(word)
            if key not in self._key_factors:
                self._key_factors[key] = math.prod(self._inverse_twists[j].factor for j in key)
            info = self._infos[word] = (code, scale, key)
        return info

    def move_left(self, word: tuple, b):
        """Coefficient b moved from the right of `word` to its left.

        Applies the inverse twist automorphisms of the twisted letters
        right-to-left, per x * b = xi_x^{-1}(b) * x.
        """
        twists = self._inverse_twists
        for j in reversed(self.twist_key(word)):
            b = twists[j].apply(b)
        return b

    def move_right(self, word: tuple, a):
        """Coefficient a moved from the left of `word` to its right.

        Inverse of move_left: a * w = w * move_right(w, a).
        """
        twists = self._inverse_twists
        for j in self.twist_key(word):
            a = twists[j].inverse.apply(a)
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
        add, is_zero = A.add, A.is_zero
        acc = self.terms
        for w, c in other.terms.items():
            prev = acc.get(w)
            if prev is None:
                acc[w] = c
                continue
            s = add(prev, c)
            if is_zero(s):
                del acc[w]
            else:
                acc[w] = s
        return self

    def __neg__(self) -> "TwistedSeries":
        A = self.ring.coeff
        return TwistedSeries(self.ring, {w: A.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self + (-other)

    def scale(self, q) -> "TwistedSeries":
        """Multiply every coefficient by a rational scalar (an integer over
        Z/m, where a nonzero one can still send a coefficient to 0)."""
        A = self.ring.coeff
        return TwistedSeries(self.ring, {w: c for w, c in (
            (w, A.scalar_mul(Fraction(q), c)) for w, c in self.terms.items())
            if not A.is_zero(c)})

    # -- multiplication ----------------------------------------------------------
    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._check_ring(other)
        return sums_of_products(self.ring, [[(self, other)]])[0]

    @staticmethod
    def sums(R: SeriesRing, sums: list) -> list:
        """[sum of s*t over pairs, for pairs in sums], for lists of (s, t)
        series of R, in one kernel call."""
        return sums_of_products(R, sums)

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
        try:
            inv0 = A.invert(e)
        except NotAUnit:
            raise AugmentationNotUnit(
                f"augmentation {A.element_to_literal(e)} is not a unit of {A.name}") from None
        return graded_inverse(self.graded_parts(), self.ring.lift(inv0))


def sums_of_products(R: SeriesRing, sums: list, top=None) -> list:
    """[sum of s*t over pairs, for pairs in sums], for lists of (s, t) series
    of R: one convolution in the coefficient ring's integer view, truncated
    at degree `top` (at most, and by default, R.order).

    Every operand is cleared once, all of them by one `A.clear` to integer
    vectors over one denominator d: the left ones for the words that fit, the
    right ones whole. A right vector is then moved leftward past every twist
    key of the left words it meets, if its word fits under that key, by the
    view actions (`act`) of the key's inverse twists: one memo per operand
    keeps the move through each suffix of a key, and no moved value is ever
    built. A move through key K stands over d * F_K, F_K the product of its
    twists' factors, so the right vectors are scaled to d * L, L the lcm of
    the F_K met (1 unless a twist has a factor other than 1). The pairs'
    vectors are gathered per output word, named by its `_word_info` code, and
    each output word's value is one `A.dot` and one `A.rebuild` over
    d * d * L. For a left word v the inner loop stops at the first right word
    w with |v| + |w| > top.
    """
    A, info = R.coeff, R._word_info
    top = R.order if top is None else top
    # Every value to clear, lefts first: each left operand's words that fit,
    # as (v, code, room, key, index of its value), with the most room its
    # words leave under each twist key; a right operand needs, under each
    # key, the most room of any left operand it meets.
    values: list = []
    left: dict = {}
    need: dict = {}
    seen: dict = {}  # every key a left word has
    for pairs in sums:
        for s, t in pairs:
            entry = left.get(id(s))
            if entry is None:
                rows, reach = [], {}
                for v, a in s.terms.items():
                    room = top - len(v)
                    if room >= 0:
                        code, _, key = info(v)
                        rows.append((v, code, room, key, len(values)))
                        values.append(a)
                        if reach.get(key, -1) < room:
                            reach[key] = room
                entry = left[id(s)] = (rows, reach)
                seen.update(reach)
            keys = need.setdefault(id(t), (t, {}))[1]
            for key, room in entry[1].items():
                if keys.get(key, -1) < room:
                    keys[key] = room
    # then every word of each right operand, shortest first
    spans = []
    for t, _ in need.values():
        words = sorted(t.terms, key=len)
        spans.append((words, len(values)))
        values += map(t.terms.__getitem__, words)
    vecs, d = A.clear(values)
    twists, factor = R._inverse_twists, R._key_factors
    scale = math.lcm(*map(factor.__getitem__, seen))
    # a right operand's rows (|w|, w, scale, code, vector) under each key
    right: dict = {}
    for (i, (_, keys)), (words, start) in zip(need.items(), spans):
        rows = []
        for w, b in zip(words, vecs[start:start + len(words)]):
            cw, sw, _ = info(w)
            rows.append((len(w), w, sw, cw, b))
        memo, by_key = {}, {}
        right[i] = by_key
        for key, room in keys.items():
            times = scale // factor[key]
            if times == 1 and not key:
                by_key[key] = rows
                continue
            moved = by_key[key] = []
            for lw, w, sw, cw, b in rows:
                if lw > room:
                    break
                if key:
                    b = _move(twists, key, w, b, memo)
                if times != 1:
                    b = A.scale_vector(b, times)
                moved.append((lw, w, sw, cw, b))
    dot, rebuild, is_zero, den = A.dot, A.rebuild, A.is_zero, d * d * scale
    commute = R.letters_commute
    results = []
    for pairs in sums:
        gathered: dict = {}
        for s, t in pairs:
            by_key = right[id(t)]
            for v, cv, room, key, ia in left[id(s)][0]:
                a = vecs[ia]
                for lw, w, sw, cw, b in by_key[key]:
                    if lw > room:
                        break
                    code = cv * sw + cw
                    both = gathered.get(code)
                    if both is None:
                        gathered[code] = (v, w, [a], [b])
                    else:
                        both[2].append(a)
                        both[3].append(b)
        out = {}
        for v, w, xs, ys in gathered.values():
            c = rebuild(dot(xs, ys), den)
            if not is_zero(c):
                word = v + w
                out[tuple(sorted(word)) if commute else word] = c
        results.append(TwistedSeries(R, out))
    return results


def _move(twists, key: tuple, w: tuple, b, memo: dict):
    """The vector b of a right word w moved leftward past the nonempty twist
    key: the view actions of the key's inverse twists, last letter first.
    Since the move through key is twists[key[0]] after the move through
    key[1:], `memo` (the operand's own) keeps every suffix's move."""
    vec = memo.get((key, w))
    if vec is None:
        rest = key[1:]
        vec = memo[key, w] = twists[key[0]].act(_move(twists, rest, w, b, memo) if rest else b)
    return vec


def graded_inverse(parts: list, inv0):
    """The inverse of x = sum(parts), parts[d] of degree d, from inv0 = parts[0]^-1.

    Its components are out[0] = inv0 and
    out[d] = -inv0 * sum_{k=1..d} parts[k]*out[d-k], so x * sum(out) = 1; in a
    ring local over the augmentation this right inverse is two-sided. The
    products q[k] = -inv0 * parts[k] are one call of the kernel (through the
    `sums` of series or of series matrices), and each out[d] is one more,
    over the pairs (q[k], out[d-k]). The total is accumulated into inv0,
    which must be the caller's own.
    """
    sums, ring, neg0 = type(inv0).sums, inv0.ring, -inv0
    q = [None] + sums(ring, [[(neg0, part)] for part in parts[1:]])
    out = [inv0]
    for d in range(1, len(parts)):
        out.append(sums(ring, [[(q[k], out[d - k]) for k in range(1, d + 1)]])[0])
    for part in out[1:]:
        inv0._add_in_place(part)
    return inv0


def _power_sum(theta: TwistedSeries, coeff) -> TwistedSeries:
    """sum_{k=1..N} coeff(k) * theta^k for theta of augmentation 0, by Horner's
    rule: h = coeff(k) + theta*h for k = N down to 1, then theta*h. Only the
    degrees up to N - k of the h at k reach the order, so its product stops
    there, and the rational coefficients are only ever added to the constant
    term."""
    R = theta.ring
    A, n = R.coeff, R.order
    h = R.zero()
    for k in range(n, 0, -1):
        h = sums_of_products(R, [[(theta, h)]], top=n - k)[0]
        h._add_in_place(R.lift(A.scalar_mul(coeff(k), A.one)))
    return theta * h


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

"""Truncated twisted power series over a coefficient ring.

A series ring fixes a coefficient ring A, an ordered alphabet of letters, a
twist (one named ring automorphism per letter), and a truncation order N:
words longer than N are discarded everywhere. Coefficients are stored on the
left of words. The defining relation is a*x = x*xi_x(a) for each letter x,
so moving a coefficient leftward past a word applies the inverse
automorphisms of its letters right-to-left.

A series is held in the coefficient ring's Z-linear view (rings.py), after
FLINT's fmpq_poly layout: integer vectors over one positive denominator, in
canonical form (TwistedSeries). Chains of products, inverses, LDU splits and
logs stay in it; values (`terms`) are built on first read, for literals,
traces and documents. Every product is one kernel, `sums_of_products`: the
pairs' vectors are gathered per output word (named by an integer code, so no
word tuple is built or hashed per pair), summed by one integer `dot` and
reduced once per output series. Each series keeps its kernel rows (words
with codes and twist keys, shortest first), so a left word's inner loop ends
at the first right word that would overshoot the order. A word's move
depends only on its twist key, the ids of its twisted letters (letters
sharing an automorphism share an id): untwisted words move nothing, and
within one call each (key, right word) is moved once, through the twists'
view actions (rings.RingAutomorphism), reusing the move of the key's suffix,
and only if it fits under the order. A series product, a whole series-matrix
product, the products -inv0 * part that start an inverse (of a series or a
series matrix), each degree of that inverse, the entries of l and u in an
LDU split and each step of Horner's rule for log/exp are one kernel call.

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
        (self._zero_vec, self._one_vec), _ = coeff.clear((coeff.zero, coeff.one))

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
        """(length, word, code, scale, twist key) of a word, memoized. The code
        is an integer that names the word (its normal form, if letters
        commute), and code(v + w) = code(v) * scale(w) + code(w). It also
        records the key's factor in _key_factors: the product of its inverse
        twists' factors."""
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
            info = self._infos[word] = (len(word), word, code, scale, key)
        return info

    def move_left(self, word: tuple, b):
        """Coefficient b moved from the right of `word` to its left: the inverse
        twists of its twisted letters, right-to-left, per x * b = xi_x^{-1}(b) * x."""
        twists = self._inverse_twists
        for j in reversed(self.twist_key(word)):
            b = twists[j].apply(b)
        return b

    def move_right(self, word: tuple, a):
        """The inverse of move_left: a * w = w * move_right(w, a)."""
        twists = self._inverse_twists
        for j in self.twist_key(word):
            a = twists[j].inverse.apply(a)
        return a

    def _moved(self, word: tuple, vecs: dict, den: int, right: bool = False) -> tuple:
        """(vecs, den) of the coefficients vecs / den moved as by move_left (by
        move_right if `right`), through the view actions alone."""
        autos = [self._inverse_twists[j] for j in self.twist_key(word)]
        for auto in ([a.inverse for a in autos] if right else reversed(autos)):
            vecs = {w: auto.act(v) for w, v in vecs.items()}
            den *= auto.factor
        return vecs, den

    # -- constructors ---------------------------------------------------------
    def from_terms(self, terms) -> "TwistedSeries":
        A = self.coeff
        acc: dict[tuple, object] = {}
        for word, c in (terms.items() if isinstance(terms, dict) else terms):
            word = (self.word_from_str(word) if isinstance(word, str)
                    else self.normalize_word(tuple(word)))
            if len(word) <= self.order:
                acc[word] = A.add(acc[word], c) if word in acc else c
        return TwistedSeries(self, {w: c for w, c in acc.items() if not A.is_zero(c)})

    def zero(self) -> "TwistedSeries":
        return TwistedSeries._make(self, {})

    def one(self) -> "TwistedSeries":
        return TwistedSeries._make(self, {(): self._one_vec})

    def lift(self, a) -> "TwistedSeries":
        """The section of the augmentation: a constant series."""
        return TwistedSeries(self, {} if self.coeff.is_zero(a) else {(): a})

    def letter(self, name: str) -> "TwistedSeries":
        idx = self.letter_index(name)
        if self.order < 1:
            return self.zero()
        return TwistedSeries._make(self, {(idx,): self._one_vec})


class TwistedSeries:
    """An element of a SeriesRing: `vecs` maps each word to a nonzero vector
    of the coefficient ring's view, all over one denominator `den`, in
    canonical form (den > 0, the gcd of den and every entry is 1; over Z/m,
    den = 1), so == is exact however a series was built. Values given to the
    constructor are cleared on first use and dropped; `terms`, word -> value,
    is built on first read."""

    __slots__ = ("ring", "_vecs", "_den", "_terms", "_rows")

    def __init__(self, ring: SeriesRing, terms: dict):
        """The series of a map word -> nonzero value."""
        self.ring, self._terms, self._vecs, self._den, self._rows = ring, terms, None, 1, None

    @classmethod
    def _make(cls, ring: SeriesRing, vecs: dict, den: int = 1) -> "TwistedSeries":
        """The series vecs / den (nonzero vectors, den > 0), reduced to canonical form."""
        s = object.__new__(cls)
        s.ring, s._terms, s._rows = ring, None, None
        s._vecs, s._den = _reduced(ring.coeff, vecs, den)
        return s

    @property
    def vecs(self) -> dict:
        if self._vecs is None:  # built from values: clear them, once
            A, terms = self.ring.coeff, self._terms
            vecs, self._den = A.clear(list(terms.values()))
            self._vecs = {w: v for w, v in zip(terms, vecs) if A.nonzero(v)}
            self._terms = None
        return self._vecs

    @property
    def den(self) -> int:
        if self._vecs is None:
            self.vecs  # noqa: B018 (clearing the values sets _den)
        return self._den

    @property
    def terms(self) -> dict:
        """word -> nonzero value, built on first read."""
        if self._terms is None:
            rebuild, den = self.ring.coeff.rebuild, self.den
            self._terms = {w: rebuild(v, den) for w, v in self._vecs.items()}
        return self._terms

    def _kernel_rows(self) -> list:
        """A row (_word_info(w), vector) per word w, shortest words first, kept
        until the series changes."""
        if self._rows is None:
            info = self.ring._word_info
            rows = [(info(w), v) for w, v in self.vecs.items()]
            self._rows = sorted(rows, key=lambda row: row[0][0])
        return self._rows

    # -- basics ---------------------------------------------------------------
    def support(self) -> list[tuple]:
        return sorted(self.vecs, key=_grlex)

    def coefficient(self, word):
        if isinstance(word, str):
            word = self.ring.word_from_str(word)
        vec, A = self.vecs.get(tuple(word)), self.ring.coeff
        return A.zero if vec is None else A.rebuild(vec, self.den)

    def augmentation(self):
        return self.coefficient(())

    def augmentation_is_one(self) -> bool:
        """eps == 1, read off the vectors."""
        R = self.ring
        return self.vecs.get(()) == R.coeff.scale_vector(R._one_vec, self.den)

    def is_zero(self) -> bool:
        return not self.vecs

    def is_one(self) -> bool:
        return self == self.ring.one()

    def __eq__(self, other):
        return (isinstance(other, TwistedSeries) and self.ring == other.ring
                and self.den == other.den and self.vecs == other.vecs)

    __hash__ = None

    def __repr__(self):
        from .literals import render_series
        return f"<{render_series(self)}>"

    def _check_ring(self, other: "TwistedSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"operands live in {self.ring!r} and {other.ring!r}")

    # -- linear structure -------------------------------------------------------
    def __add__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self._copy()._add_in_place(other)

    def _copy(self) -> "TwistedSeries":
        return TwistedSeries._make(self.ring, dict(self.vecs), self.den)

    def _add_in_place(self, other: "TwistedSeries") -> "TwistedSeries":
        """self + other, written into self: only for a series that its caller
        built and shares with no one, such as a running sum."""
        self._check_ring(other)
        A = self.ring.coeff
        add, nonzero, scale = A.add_vectors, A.nonzero, A.scale_vector
        acc, den = self.vecs, math.lcm(self.den, other.den)
        if den != self.den:
            times = den // self.den
            for w, v in acc.items():
                acc[w] = scale(v, times)
        times = den // other.den
        for w, v in other.vecs.items():
            v = scale(v, times) if times != 1 else v
            v = add(acc[w], v) if w in acc else v
            if nonzero(v):
                acc[w] = v
            else:
                del acc[w]
        self._vecs, self._den = _reduced(A, acc, den)
        self._terms = self._rows = None
        return self

    def __neg__(self) -> "TwistedSeries":
        return self.scale(-1)

    def __sub__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self + (-other)

    def scale(self, q) -> "TwistedSeries":
        """Multiply every coefficient by a rational scalar (an integer over
        Z/m, where a nonzero one can still send a coefficient to 0)."""
        q, A = Fraction(q), self.ring.coeff
        if q.denominator != 1 and not A.contains_rationals and self.vecs:
            raise NeedsRationalCoefficients(f"cannot scale by {q} over {A.name}")
        if not q:
            return self.ring.zero()
        scale, nonzero, n = A.scale_vector, A.nonzero, q.numerator
        vecs = {w: v for w, v in ((w, scale(v, n)) for w, v in self.vecs.items()) if nonzero(v)}
        return TwistedSeries._make(self.ring, vecs, self.den * q.denominator)

    # -- multiplication ----------------------------------------------------------
    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._check_ring(other)
        return sums_of_products(self.ring, [[(self, other)]])[0]

    @staticmethod
    def sums(R: SeriesRing, sums: list) -> list:
        """sums_of_products(R, sums): one kernel call."""
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
        return TwistedSeries._make(ring, {w: v for w, v in self.vecs.items() if len(w) <= order},
                                   self.den)

    # -- inversion -------------------------------------------------------------------
    def graded_parts(self) -> list["TwistedSeries"]:
        """The homogeneous components by word length, degrees 0..order."""
        buckets = [{} for _ in range(self.ring.order + 1)]
        for w, v in self.vecs.items():
            buckets[len(w)][w] = v
        return [TwistedSeries._make(self.ring, b, self.den) for b in buckets]

    def inverse(self) -> "TwistedSeries":
        """Two-sided inverse; needs eps of the series to be a unit of A."""
        A = self.ring.coeff
        try:
            (vec,), den = A.invert_vectors([self.vecs.get((), self.ring._zero_vec)], self.den, 1)
        except NotAUnit:
            raise AugmentationNotUnit(f"augmentation {A.element_to_literal(self.augmentation())} "
                                      f"is not a unit of {A.name}") from None
        return graded_inverse(self.graded_parts(), TwistedSeries._make(self.ring, {(): vec}, den))


def _reduced(A, vecs: dict, den: int) -> tuple:
    """(vecs, den) divided by the gcd of den and every entry of the vectors."""
    g = den
    for v in vecs.values():
        if g == 1:
            break
        g = math.gcd(g, A.content(v))
    if g != 1:
        vecs = {w: A.divide_vector(v, g) for w, v in vecs.items()}
    return vecs, den // g


def sums_of_products(R: SeriesRing, sums: list, top=None) -> list:
    """[sum of s*t over pairs, for pairs in sums], for lists of (s, t) series
    of R: one convolution in the coefficient ring's integer view, truncated
    at degree `top` (at most, and by default, R.order).

    Left vectors are brought over dl, the lcm of the left denominators, and
    right ones over dr. A right vector is moved leftward past each twist key
    of the left words it meets, if its word fits under that key, by the view
    actions (`act`) of the key's inverse twists (a memo per operand keeps
    the move through each suffix of a key). A move through key K stands over
    F_K (the product of its twists' factors) times the denominator, so right
    vectors are scaled to dr * L, L the lcm of the F_K met. Each output word
    is one `A.dot` over dl * dr * L; for a left word v the inner loop stops
    at the first right word w with |v| + |w| > top."""
    A, top = R.coeff, R.order if top is None else top
    # the most room a left operand's words leave under each twist key; a right
    # operand needs, under each key, the most room of any left one it meets
    left: dict = {}
    need: dict = {}
    seen: dict = {}  # every key a left word has
    for pairs in sums:
        for s, t in pairs:
            entry = left.get(id(s))
            if entry is None:
                rows, reach = s._kernel_rows(), {}
                for (lv, _, _, _, key), _ in rows:
                    if lv > top:
                        break
                    if key not in reach:
                        reach[key] = top - lv
                entry = left[id(s)] = (s, rows, reach)
                seen.update(reach)
            keys = need.setdefault(id(t), (t, {}))[1]
            for key, room in entry[2].items():
                if keys.get(key, -1) < room:
                    keys[key] = room
    scale_vector = A.scale_vector
    dl = math.lcm(*[s.den for s, _, _ in left.values()])
    for i, (s, rows, reach) in left.items():
        if s.den != dl:
            left[i] = (s, [(info, scale_vector(a, dl // s.den)) for info, a in rows], reach)
    twists, factor = R._inverse_twists, R._key_factors
    scale = math.lcm(*map(factor.__getitem__, seen))
    dr = math.lcm(*[t.den for t, _ in need.values()])
    # a right operand's rows under each key: moved, scaled and cut at its room
    right: dict = {}
    for i, (t, keys) in need.items():
        rows, memo = t._kernel_rows(), {}
        by_key = right[i] = {}
        for key, room in keys.items():
            times = dr // t.den * (scale // factor[key])
            if times == 1 and not key:
                by_key[key] = rows
                continue
            moved = by_key[key] = []
            for info, b in rows:
                if info[0] > room:
                    break
                if key:
                    b = _move(twists, key, info[1], b, memo)
                if times != 1:
                    b = scale_vector(b, times)
                moved.append((info, b))
    dot, nonzero, den = A.dot, A.nonzero, dl * dr * scale
    commute = R.letters_commute
    results = []
    for pairs in sums:
        gathered: dict = {}
        for s, t in pairs:
            by_key = right[id(t)]
            for (lv, v, cv, _, key), a in left[id(s)][1]:
                room = top - lv
                if room < 0:
                    break
                for (lw, w, cw, sw, _), b in by_key[key]:
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
            vec = dot(xs, ys)
            if nonzero(vec):
                word = v + w
                out[tuple(sorted(word)) if commute else word] = vec
        results.append(TwistedSeries._make(R, out, den))
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
    R, n = theta.ring, theta.ring.order
    h = R.zero()
    for k in range(n, 0, -1):
        h = sums_of_products(R, [[(theta, h)]], top=n - k)[0]
        h._add_in_place(R.one().scale(coeff(k)))
    return theta * h


def formal_log(u: TwistedSeries) -> TwistedSeries:
    """log(u) = theta - theta^2/2 + theta^3/3 - ... for u = 1 + theta."""
    R = u.ring
    A = R.coeff
    if not A.contains_rationals:
        raise NeedsRationalCoefficients(f"formal log needs Q inside {A.name}")
    if not u.augmentation_is_one():
        raise AugmentationNotOne("formal log needs augmentation exactly 1")
    return _power_sum(u - R.one(), lambda k: Fraction((-1) ** (k + 1), k))


def formal_exp(t: TwistedSeries) -> TwistedSeries:
    """exp(t) = 1 + t + t^2/2! + ... for t with augmentation 0."""
    R = t.ring
    A = R.coeff
    if not A.contains_rationals:
        raise NeedsRationalCoefficients(f"formal exp needs Q inside {A.name}")
    if () in t.vecs:
        raise AugmentationNotOne("formal exp needs augmentation exactly 0")
    return R.one() + _power_sum(t, lambda k: Fraction(1, math.factorial(k)))

"""Truncated twisted power series over a coefficient ring.

A series ring fixes a coefficient ring A, an ordered alphabet of letters, a
twist (one named ring automorphism per letter), and a truncation order N:
words longer than N are discarded everywhere. Coefficients are stored on the
left of words. The defining relation is a*x = x*xi_x(a) for each letter x,
so moving a coefficient leftward past a word applies the inverse
automorphisms of its letters right-to-left.

A series is held in the coefficient ring's Z-linear view (rings.py), after
FLINT's fmpq_poly layout: integer vectors over one positive denominator, in
canonical form (TwistedSeries, built from vectors only); values enter once,
cleared in `SeriesRing.from_terms`. Products, inverses, LDU splits and logs
stay in it; values (`terms`) are built on first read, for literals, traces
and documents. Every product goes through one pair loop, `_convolve`: the
pairs' vectors are gathered per output word (named by an integer code, so no
word tuple is built or hashed per pair), summed by one integer `dot` and
reduced once per output series. Each series keeps its kernel rows (words
with codes and twist keys, shortest first), so a left word's inner loop ends
at the first right word that would overshoot the order. A word's move
depends only on its twist key, the inverse twists of its twisted letters
(RingAutomorphism objects; letters twisted alike share one): untwisted words
move nothing, and within one call a right operand's rows are moved past a
key when a left word with that key first meets them, each (key, right word)
once, through the twists' view actions, reusing the move of the key's
suffix, and only as far as the order less the key's length. A series
product, a whole series-matrix product, the products -inv0 * x+ that start
an inverse (of a series or a series matrix), the entries of l and u in an
LDU split and its Schur complement are one kernel call, `sums_of_products`.
Log and exp are one power-sum pass, `_power_sum`: theta's rows are set up
once, as a product's left operands are, and each step of Horner's rule is
one `_convolve` on a raw (vecs, den) map, with no series built between
steps.

The augmentation eps reads off the empty-word coefficient; it is a ring map
onto A with section lift(). A series is invertible exactly when eps of it is
a unit of A (the ring is local over the augmentation), and because the
augmentation ideal is nilpotent at any finite order the inverse is fixed
degree by degree from eps^{-1}: all its degrees are one solve pass,
`_solve`, over the rows of -inv0 * x+, shared with series matrices
(`inverse_entries`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import (
    AugmentationNotOne,
    AugmentationNotUnit,
    LiteralSyntaxError,
    NeedsRationalCoefficients,
    NotAUnit,
    RingMismatch,
)
from .rings import _TOKEN, CoeffRing


def _grlex(word: tuple) -> tuple:
    return (len(word), word)


class SeriesRing:
    """A_xi<<X>> truncated at total word length `order`."""

    def __init__(self, coeff: CoeffRing, alphabet=("x",), twist=None, order=4,
                 letters_commute=False):
        alphabet = tuple(alphabet)
        if any(len(a) != 1 for a in alphabet) or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct single characters")
        for a in alphabet:  # each word must read back inside one w("...") factor
            if getattr(_TOKEN.fullmatch(f'w("{a}")'), "lastgroup", None) != "word":
                raise ValueError(f"letter {a!r} cannot be written in a w(\"...\") factor")
        if order < 0:
            raise ValueError("order must be >= 0")
        twist = twist or {}
        stray = sorted(set(twist) - set(alphabet))
        if stray:
            raise ValueError(f"twist names letters not in the alphabet: {stray}")
        names = tuple(twist.get(a, "id") for a in alphabet)
        # each twisted letter's inverse twist: one registry object per name,
        # so letters twisted alike share it
        self._inverse_by_letter = {i: coeff.automorphism(n).inverse
                                   for i, n in enumerate(names) if n != "id"}
        self.coeff = coeff
        self.alphabet = alphabet
        self.twist_names = names
        self.order = order
        self.letters_commute = bool(letters_commute)
        if self.letters_commute and any(n != "id" for n in names):
            raise ValueError("commuting letters require identity twists")
        self._letter_index = {a: i for i, a in enumerate(alphabet)}
        self._infos: dict[tuple, tuple] = {}
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
        """The inverse twists (RingAutomorphism objects) of the twisted letters
        of `word`, in order.

        _moved(word, ...) depends on the word only through this key; an
        untwisted word has the empty key.
        """
        inverse = self._inverse_by_letter
        return tuple(inverse[i] for i in word if i in inverse)

    def _word_info(self, word: tuple) -> tuple:
        """(length, word, code, scale, twist key) of a word, memoized. The code
        is an integer that names the word (its normal form, if letters
        commute), and code(v + w) = code(v) * scale(w) + code(w)."""
        info = self._infos.get(word)
        if info is None:
            if self.letters_commute:  # exponents, in base order + 1
                code, scale = sum((self.order + 1) ** i for i in word), 1
            else:  # letters as the digits 1..k, in base k + 1
                base, code = len(self.alphabet) + 1, 0
                for i in word:
                    code = code * base + i + 1
                scale = base ** len(word)
            info = self._infos[word] = (len(word), word, code, scale, self.twist_key(word))
        return info

    def _moved(self, word: tuple, vecs: dict, den: int, right: bool = False) -> tuple:
        """(vecs, den) of the coefficients vecs / den moved leftward past `word`
        (x * b = xi_x^{-1}(b) * x, last letter first), or rightward if `right`
        (a * w = w * b for b the moved a), by the view actions alone."""
        key = self.twist_key(word)
        for auto in ([a.inverse for a in key] if right else reversed(key)):
            vecs = {w: auto.act(v) for w, v in vecs.items()}
            den *= auto.factor
        return vecs, den

    # -- constructors ---------------------------------------------------------
    def from_terms(self, terms) -> "TwistedSeries":
        """The series of (word, value) pairs or a word -> value map: values of a
        repeated word are summed, then all are cleared in one `clear`."""
        A = self.coeff
        acc: dict[tuple, object] = {}
        for word, c in (terms.items() if isinstance(terms, dict) else terms):
            word = (self.word_from_str(word) if isinstance(word, str)
                    else self.normalize_word(tuple(word)))
            if len(word) <= self.order:
                acc[word] = A.add(acc[word], c) if word in acc else c
        vecs, den = A.clear(list(acc.values()))
        return TwistedSeries(self, {w: v for w, v in zip(acc, vecs) if A.nonzero(v)}, den)

    def zero(self) -> "TwistedSeries":
        return TwistedSeries(self, {})

    def one(self) -> "TwistedSeries":
        return TwistedSeries(self, {(): self._one_vec})

    def lift(self, a) -> "TwistedSeries":
        """The section of the augmentation: a constant series."""
        return self.from_terms([((), a)])

    def letter(self, name: str) -> "TwistedSeries":
        idx = self.letter_index(name)
        if self.order < 1:
            return self.zero()
        return TwistedSeries(self, {(idx,): self._one_vec})


class TwistedSeries:
    """An element of a SeriesRing: `vecs` maps each word to a nonzero vector
    of the coefficient ring's view, all over one denominator `den`, in
    canonical form (den > 0, the gcd of den and every entry is 1; over Z/m,
    den = 1), so == is exact however a series was built. The one constructor
    takes vectors; values enter through SeriesRing.from_terms. `terms`,
    word -> value, is built on first read."""

    __slots__ = ("ring", "vecs", "den", "_terms", "_rows")

    def __init__(self, ring: SeriesRing, vecs: dict, den: int = 1):
        """The series vecs / den (nonzero vectors, den > 0), reduced to canonical form."""
        self.ring, self._terms, self._rows = ring, None, None
        self.vecs, self.den = _reduced(ring.coeff, vecs, den)

    @property
    def terms(self) -> dict:
        """word -> nonzero value, built on first read."""
        if self._terms is None:
            rebuild, den = self.ring.coeff.rebuild, self.den
            self._terms = {w: rebuild(v, den) for w, v in self.vecs.items()}
        return self._terms

    def _kernel_rows(self) -> list:
        """A row (_word_info(w), vector) per word w, shortest words first, kept
        until the series changes."""
        if self._rows is None:
            info = self.ring._word_info
            rows = [(info(w), v) for w, v in self.vecs.items()]
            self._rows = sorted(rows, key=_row_length)
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
        return TwistedSeries(self.ring, dict(self.vecs), self.den)

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
        self.vecs, self.den = _reduced(A, acc, den)
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
        return TwistedSeries(self.ring, vecs, self.den * q.denominator)

    # -- multiplication ----------------------------------------------------------
    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        self._check_ring(other)
        return sums_of_products(self.ring, [[(self, other)]])[0]

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
        return TwistedSeries(ring, {w: v for w, v in self.vecs.items() if len(w) <= order},
                             self.den)

    # -- inversion -------------------------------------------------------------------
    def inverse(self) -> "TwistedSeries":
        """Two-sided inverse; needs eps of the series to be a unit of A."""
        A = self.ring.coeff
        try:
            return inverse_entries(self.ring, [self])[0]
        except NotAUnit:
            raise AugmentationNotUnit(f"augmentation {A.element_to_literal(self.augmentation())} "
                                      f"is not a unit of {A.name}") from None


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

    Left vectors are brought over dl, the lcm of the left denominators
    (`_left_rows`), and right ones over dr. A move through twist key K (the
    inverse twists of a left word's twisted letters) stands over F_K, the
    product of its twists' factors, times the denominator, so right vectors
    are scaled to dr * L, L the lcm of F_K over the keys of the left words
    within `top`, and each output word is one `A.dot` over dl * dr * L
    (`_convolve`)."""
    A, top = R.coeff, R.order if top is None else top
    left, right = {}, {}  # by id: the operand, then its rows (left) or right operand
    for pairs in sums:
        for s, t in pairs:
            left[id(s)] = s
            right[id(t)] = t
    dl, factors, scale = _left_rows(A, left, top)
    dr = math.lcm(*map(_den, right.values()))
    for i, t in right.items():
        right[i] = ({}, t._kernel_rows(), dr // t.den, {})
    den, results = dl * dr * scale, []
    for pairs in sums:
        out = _convolve(R, [(left[id(s)], right[id(t)]) for s, t in pairs], top, factors, scale)
        results.append(TwistedSeries(R, out, den))
    return results


_den = operator.attrgetter("den")


def _row_length(row) -> int:
    """The word length of a kernel row."""
    return row[0][0]


def _left_rows(A, left: dict, top: int) -> tuple:
    """Replace each left operand of a kernel call, the values of `left`, by
    its kernel rows over den, the lcm of their denominators, and return
    (den, factors, L): key -> F_K, the product of K's twists' factors, over
    the keys of the rows within `top`, and L, the lcm of the F_K."""
    scale_vector, den = A.scale_vector, math.lcm(*map(_den, left.values()))
    factors = {}
    for i, s in left.items():
        rows = s._kernel_rows()
        for (lv, _, _, _, key), _ in rows:
            if lv > top:
                break
            if key not in factors:
                f = 1
                for auto in key:
                    f *= auto.factor
                factors[key] = f
        left[i] = rows if s.den == den else [
            (info, scale_vector(a, den // s.den)) for info, a in rows]
    return den, factors, math.lcm(*factors.values())


def _convolve(R: SeriesRing, pairs: list, room: int, factors: dict, scale: int) -> dict:
    """word -> nonzero vector of the sum, over (left rows, right operand)
    pairs, of each left row (length lv, key K) times each right row of length
    at most room - lv: the kernel's one pair loop.

    A right operand is (its rows by key, its kernel rows, times, its memo).
    The first time a left row with key K meets it, its rows are moved
    leftward past K by the view actions (`act`) of K's twists (the memo
    keeps the move through each suffix of a key, for all keys), scaled by
    times * scale / factors[K], and cut at room - |K|. The pairs' vectors are
    gathered per output word, named by its code (so no word tuple is built
    or hashed per pair), and summed by one `A.dot`. Rows are shortest first,
    so a left row's inner loop stops at the first right row that
    overshoots."""
    A, gathered = R.coeff, {}
    for rows, (by_key, right_rows, times, memo) in pairs:
        for (lv, v, cv, _, key), a in rows:
            rest = room - lv
            if rest < 0:
                break
            moved = by_key.get(key)
            if moved is None:
                k_times = times * (scale // factors[key])
                moved = by_key[key] = (right_rows if k_times == 1 and not key else _moved_rows(
                    A, right_rows, key, k_times, room - len(key), memo))
            for (lw, w, cw, sw, _), b in moved:
                if lw > rest:
                    break
                code = cv * sw + cw
                both = gathered.get(code)
                if both is None:
                    gathered[code] = (v, w, [a], [b])
                else:
                    both[2].append(a)
                    both[3].append(b)
    commute, out = R.letters_commute, {}
    dot, nonzero = A.dot, A.nonzero
    for v, w, xs, ys in gathered.values():
        vec = dot(xs, ys)
        if nonzero(vec):
            word = v + w
            out[tuple(sorted(word)) if commute else word] = vec
    return out


def _moved_rows(A, rows: list, key: tuple, times: int, room: int, memo: dict) -> list:
    """The rows of length at most `room`, each vector moved leftward past
    `key` and scaled by `times`."""
    scale_vector, moved = A.scale_vector, []
    for info, b in rows:
        if info[0] > room:
            break
        if key:
            b = _move(key, info[1], b, memo)
        if times != 1:
            b = scale_vector(b, times)
        moved.append((info, b))
    return moved


def _move(key: tuple, w: tuple, b, memo: dict):
    """The vector b of a right word w moved leftward past the nonempty twist
    key: the view actions of the key's automorphisms, last letter first.
    Since the move through key is key[0] after the move through key[1:],
    `memo` (the operand's own) keeps every suffix's move."""
    vec = memo.get((key, w))
    if vec is None:
        rest = key[1:]
        vec = memo[key, w] = key[0].act(_move(rest, w, b, memo) if rest else b)
    return vec


def inverse_entries(R: SeriesRing, x: list) -> list:
    """The entries of x^-1, row-major, for the n x n matrix x of series of R
    given by its n*n row-major entries (a series is the case n = 1); raises
    NotAUnit when eps(x) is not invertible over A.

    inv0 = eps(x)^-1 is one `A.invert_vectors` elimination, and y = x^-1
    solves y = inv0 + q*y for q = -inv0 * x+, x+ = x - eps(x), so that
    x*y = 1; in a ring local over the augmentation this right inverse is
    two-sided. q is one kernel call and the degrees of y one `_solve` pass."""
    A, n = R.coeff, math.isqrt(len(x))
    den = math.lcm(*map(_den, x))
    vecs, den = A.invert_vectors([A.scale_vector(e.vecs[()], den // e.den) if () in e.vecs
                                  else R._zero_vec for e in x], den, n)
    y0 = [{(): v} if A.nonzero(v) else {} for v in vecs]
    neg0 = [TwistedSeries(R, {w: A.scale_vector(v, -1) for w, v in e.items()}, den) for e in y0]
    plus = [TwistedSeries(R, {w: v for w, v in e.vecs.items() if w}, e.den) for e in x]
    q = sums_of_products(R, [[(neg0[i + t], plus[t * n + j]) for t in range(n)]
                             for i in range(0, n * n, n) for j in range(n)])
    return _solve(R, q, y0, den)


def _solve(R: SeriesRing, q: list, y0: list, den: int) -> list:
    """The entries of y = y0/den + q*y, row-major n x n, for entries q of
    augmentation 0 and constant y0/den: y_0 = y0/den and
    y_d = sum_{k=1..d} q_k * y_{d-k} for d = 1..N, in one pass.

    q's rows are read once, as a product's left operands are (`_left_rows`):
    over dq, the lcm of q's denominators, with the factors F_K of their keys
    and L, the lcm of the F_K. Each y_d is kept with one reduced denominator
    den_d, and each of its entries is one right operand of `_convolve`,
    whose rows are moved and scaled to den_d * L under each key once, for
    every later degree. At degree d the rows of q of length k meet only
    y_{d-k}, so each is scaled once, by D / den_{d-k} for D the lcm of those
    den_{d-k}, and y_d is one `_convolve` per entry over dq * D * L. The
    degrees are merged once at the end."""
    A, top, n = R.coeff, R.order, math.isqrt(len(q))
    scale, info = A.scale_vector, R._word_info
    left = dict(enumerate(q))  # per entry of q: length -> its rows of that length, over dq
    dq, factors, L = _left_rows(A, left, top)
    for i, rows in left.items():
        by_len = left[i] = {}
        for row in rows:
            by_len.setdefault(row[0][0], []).append(row)
    lengths = {k for by_len in left.values() for k in by_len}
    entries, den = _reduced_all(A, y0, den)
    ys, dens, right = [entries], [den], []  # y_d's entries, den_d, and right operands
    for d in range(1, top + 1):
        right.append([({}, [(info(w), v) for w, v in e.items()], 1, {}) for e in ys[-1]])
        D = math.lcm(*[dens[d - k] for k in lengths if k <= d])
        scaled = [{k: rows if D == dens[d - k] else
                   [(i, scale(a, D // dens[d - k])) for i, a in rows]
                   for k, rows in by_len.items() if k <= d} for by_len in left.values()]
        entries, den = _reduced_all(A, [
            _convolve(R, [(rows, right[d - k][t * n + j])
                          for t in range(n) for k, rows in scaled[i + t].items()], d, factors, L)
            for i in range(0, n * n, n) for j in range(n)], dq * D * L)
        ys.append(entries)
        dens.append(den)
    result = []
    for idx in range(n * n):
        parts = [(entries[idx], den) for entries, den in zip(ys, dens) if entries[idx]]
        total, vecs = math.lcm(*[den for _, den in parts]), {}
        for e, den in parts:
            vecs.update(e if den == total else {w: scale(v, total // den) for w, v in e.items()})
        result.append(TwistedSeries(R, vecs, total))
    return result


def _reduced_all(A, entries: list, den: int) -> tuple:
    """(entries, den) for word -> vector maps over one den, divided by the gcd
    of den and every entry of their vectors."""
    g = math.gcd(den, *[A.content(v) for vecs in entries for v in vecs.values()])
    if g != 1:
        entries = [{w: A.divide_vector(v, g) for w, v in vecs.items()} for vecs in entries]
    return entries, den // g


def _power_sum(theta: TwistedSeries, coeff) -> TwistedSeries:
    """sum_{k=1..N} coeff(k) * theta^k for theta of augmentation 0, by Horner's
    rule inside the kernel: from h = 0, h = theta*h + coeff(k) for k = N down
    to 1, then theta*h. theta's rows are set up once (`_left_rows`); h stays
    a raw (vecs, den) map, coeff(k) goes into its constant vector, and each
    step is one `_convolve` cut at degree N - k, since only the degrees up to
    N - k of the h at k reach the order."""
    R, n = theta.ring, theta.ring.order
    A, info = R.coeff, R._word_info
    left = {0: theta}
    dt, factors, scale = _left_rows(A, left, n)
    vecs, den = {}, 1
    for k in range(n, -1, -1):
        rows = sorted([(info(w), v) for w, v in vecs.items()], key=_row_length)
        vecs = _convolve(R, [(left[0], ({}, rows, 1, {}))], n - k, factors, scale)
        den *= dt * scale
        if not k:
            return TwistedSeries(R, vecs, den)
        c = coeff(k)
        total = math.lcm(den, c.denominator)
        if total != den:
            vecs = {w: A.scale_vector(v, total // den) for w, v in vecs.items()}
        vecs[()] = A.scale_vector(R._one_vec, c.numerator * (total // c.denominator))
        vecs, den = _reduced(A, vecs, total)


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

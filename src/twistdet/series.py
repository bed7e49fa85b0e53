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
and documents.

A ring of one letter has only the words x^d, and a coefficient moves past
x^k by xi^-k, the letter's inverse twist k times: a*x^i * b*x^j =
a*xi^-i(b) * x^(i+j). There the kernel pairs terms by degree
(`SeriesRing._by_degree`, read off the alphabet; there is no switch), and
a right operand has one form, its diagonals (`_diagonals`): entry k of
diagonal d is its vector of degree d - k moved by xi^-k, the one that a
left term of degree k meets in output degree d, at flat[origin[d] - k] of
one flat list. Over an untwisted letter the diagonals overlap, and the
flat list is the operand's vectors by degree. Over a twisted letter
diagonal d is diagonal d - 1 moved once by the twist's view action, in a
loop, up to reach, the highest left degree that reads the operand, so
each (shift, degree) is moved once per operation; a move divides by the
twist's factor F (`_move`), exactly, since right vectors carry F^e for e
the most shifts a call moves them by. Each output degree of a product or a
Schur complement, up to the order or the highest degree its operands
reach, is one `A.dot` of the pairs it gathers (`_convolve_by_degree`), and
the solve pass grows each entry of y by one diagonal per degree
(`_solve_by_degree`). A left is read by one rule (`_pairs_at`): one that
fills more than half of its degrees is a run, read with a diagonal by one
slice each, and a sparse one row by row, so it costs a step per row and
degree, not per degree squared. Log and exp are one Horner pass on lists
by degree (`_power_sum_by_degree`): degree d of h*theta is one `A.dot` of
h[:d] and a slice of theta's diagonal d, built once per pass, with one gcd
reduction per step and no series built between steps.

A ring of two or more letters takes the word path. Every product goes
through one pair loop, `_convolve`, which sums the pairs per output word,
named by an integer code (so no word tuple is built or hashed per pair):
the pairs' vectors are gathered per output word and summed by one
`A.dot`, over every ring. Each output series is reduced once.
Each series keeps its kernel rows (words with codes and twist keys,
shortest first). Consecutive left rows of one length and twist key form a
run, and a run's inner loop ends at the first right word that would
overshoot the order. A word's move depends only on its twist key, the
inverse twists of its twisted letters (RingAutomorphism objects; letters
twisted alike share one): untwisted words move nothing. A move divides by
the twists' factors (`_move`), and right vectors carry M, the lcm of the
factors to the power of the longest left word, so it divides exactly, a
moved row keeps its operand's denominator, and a right operand keeps one
move table for the whole operation: its rows moved past each key, each
list extended in a loop from that of the key's next shorter suffix
(`_moved_rows`), so each (key, right word) is moved once, through the
twists' view actions, when a left word with that key first reaches it. Log
and exp are one power-sum pass, `_power_sum`: each step of Horner's rule,
h = h*theta + c_k, is one `_convolve` with theta the right operand of
every step, so theta's rows are moved past each key once for the pass.

Over Q and Z/m on letters that do not commute, where nothing moves, a
ring whose k^N words can make a Kronecker product of `_KRONECKER_MIN`
entries has a length-block view (`SeriesRing._blocks`, read off the ring;
there is no switch). A word's index reads its letters as base-k digits,
and its code is that index plus (k^l - 1) / (k - 1) for a word of length
l, so it comes with the word's info. By the half rule that `_by_rows`
applies on one letter, an operand is dense when each of its lengths fills
more than half of its k^l words, and the view holds it as (length, block)
rows, each block the list of that length's k^l integers by index. Since
index(v + w) = index(v) * k^j + index(w) for |w| = j, the pairs of blocks
of lengths i and j are their Kronecker product, so the view is a
coefficient ring for the one-letter drivers, with a length for a degree:
a product or Schur complement whose operands are all dense, and whose
Kronecker products can reach `_KRONECKER_MIN` entries, is one
`_convolve_by_degree`, an inverse whose q is dense one `_solve_by_degree`,
and a log or exp of a dense theta one `_power_sum_by_degree`. A gap in a
run is the empty block, which the view's `dot` skips. A solve or Horner
pass that makes a length that is not empty and not dense (`thin`) starts
again on the word path, so no block is held that fills half or less of
its words beyond the one that shows it. Every other call runs wholly on
the word path; no operand is held as blocks and rows at once.

On either path a series product, a whole series-matrix product and the
entries of l and u in an LDU split are one kernel call,
`sums_of_products`, and so are the products a21 * u of a Schur
complement. Series are canonical, so no output depends on the path.

The augmentation eps reads off the empty-word coefficient; it is a ring map
onto A with section lift(). A series is invertible exactly when eps of it is
a unit of A (the ring is local over the augmentation), and because the
augmentation ideal is nilpotent at any finite order the inverse is fixed
degree by degree from inv0 = eps^{-1}: all its degrees are one solve pass,
`_solve`, shared with series matrices (`inverse_entries`). One rule
picks how inv0 is found: a scalar constant c I is read; any other constant
is one elimination. Over x's denominator dx, eps(x) = (c / dx) I for an
integer c (among them the identity, the constant of every unit of
augmentation 1 and of every matrix of augmentation identity) has inv0 =
(dx / c) I, or c^-1 mod m over Z/m, and q = -inv0 * x+ is x's own kernel
rows, each scaled by one integer; so `is_unit` over Q<y,...>/deg>d makes
no elimination either.
Any other constant is one `A.invert_vectors`, and each word of q is one
`A.dot` over the nonzero entries of a row of inv0. Degree d of y stands
over den * g^d for one g.
The pass makes no kernel call: each degree of each entry is one
`_convolve` that reads exactly that degree, of n pairs, one per right
operand, an entry of y that grows by a degree at a time; over one letter
it is one `A.dot` of the pairs (q_it row of degree k, y_tj[d - k] moved by
xi^-k), with no `_convolve` call.
"""

from __future__ import annotations

import bisect
import itertools
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
    ValidationError,
)
from .rings import _TOKEN, CoeffRing, RationalMatrixRing


# The fewest products, k^(i + j), of a pair of blocks of lengths i and j
# for which a product of dense operands runs on the length-block view
# (`_block_view`), and the fewest words k^N of a ring that has one: below
# it the fixed cost of a product of lists outweighs its saving per pair,
# and the call runs on the word path. Measured with Python 3.11.7 on an
# Intel Xeon: dense two-letter operands over Q ran products, inverses and
# logs x1.07-1.59 slower by blocks at orders 1-4 (at most 16 words of a
# length) and x0.86-0.91 faster at order 5 (32).
_KRONECKER_MIN = 32


def _grlex(word: tuple) -> tuple:
    return (len(word), word)


def _word_code(word: tuple, base: int) -> int:
    """The code of a word whose letters are the digits 1..base in base
    `base`, built by halves, code(v + w) = code(v) * base^|w| + code(w), so
    a long word costs no digit-by-digit loop on a growing integer."""
    if len(word) > 64:
        half = len(word) // 2
        return (_word_code(word[:half], base) * base ** (len(word) - half)
                + _word_code(word[half:], base))
    code = 0
    for i in word:
        code = code * base + i + 1
    return code


class SeriesRing:
    """A_xi<<X>> truncated at total word length `order`. An argument it
    refuses raises ValidationError (a ValueError) whose path names it as a
    field of a series ring document."""

    def __init__(self, coeff: CoeffRing, alphabet=("x",), twist=None, order=4,
                 letters_commute=False):
        alphabet, twist = tuple(alphabet), twist or {}
        if any(len(a) != 1 for a in alphabet) or len(set(alphabet)) != len(alphabet):
            raise ValidationError("alphabet letters must be distinct single characters",
                                  ("alphabet",))
        for i, a in enumerate(alphabet):  # each word must read back inside one w("...") factor
            if getattr(_TOKEN.fullmatch(f'w("{a}")'), "lastgroup", None) != "word":
                raise ValidationError(f"letter {a!r} cannot be written in a w(\"...\") factor",
                                      ("alphabet", i))
        if order < 0:
            raise ValidationError("order must be >= 0", ("order",))
        stray = sorted(set(twist) - set(alphabet))
        if stray:
            raise ValidationError(f"twist names letters not in the alphabet: {stray}",
                                  ("twist", stray[0]))
        if letters_commute and any(n != "id" for n in twist.values()):
            raise ValidationError("commuting letters require identity twists",
                                  ("letters_commute",))
        names = tuple(twist.get(a, "id") for a in alphabet)
        # each twisted letter's inverse twist: one registry object per name,
        # so letters twisted alike share it
        self._inverse_by_letter = {i: coeff.automorphism(n).inverse
                                   for i, n in enumerate(names) if n != "id"}
        # the lcm of their factors: a kernel call's right vectors carry a power
        # of it, so each move divides by its factor exactly (`_move`)
        self._factor = math.lcm(*(a.factor for a in self._inverse_by_letter.values()))
        # whether every word is x^d, so the kernel pairs terms by degree
        # alone, and a move past x^k is k view actions of the one letter's
        # inverse twist, `_shift` (None if the letter is untwisted)
        self._by_degree = len(alphabet) == 1
        self._shift = self._inverse_by_letter.get(0) if self._by_degree else None
        # the length-block view (`_LengthBlocks`), on which dense operands
        # run through the degree drivers: over letters that do not commute and
        # a one-integer view, where nothing moves, at an order whose k^N words
        # can make a Kronecker product of `_KRONECKER_MIN` entries (k^n passes
        # it at n = its bit length, so no power above that is taken); else None
        k = len(alphabet)
        self._blocks = (_LengthBlocks(k, coeff.view_modulus)
                        if k > 1 and not letters_commute and not self._inverse_by_letter
                        and coeff.view_modulus is not None
                        and k ** min(order, _KRONECKER_MIN.bit_length()) >= _KRONECKER_MIN
                        else None)
        self.coeff = coeff
        self.alphabet = alphabet
        self.twist_names = names
        self.order = order
        self.letters_commute = bool(letters_commute)
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
        """(length, word, code, scale, twist key) of a word, built once per
        word. The code is an integer that names the word (its normal form, if
        letters commute), and code(v + w) = code(v) * scale(w) + code(w).
        Where letters do not commute, the letters are the digits 1..k in base
        k (`_word_code`), so the words of length l have the codes from
        (k^l - 1) / (k - 1) on, each that offset plus its index, its letters
        read as base-k digits 0..k-1 (`_LengthBlocks`)."""
        info = self._infos.get(word)
        if info is None:
            if self.letters_commute:  # exponents, in base order + 1
                code, scale = sum((self.order + 1) ** i for i in word), 1
            else:
                base = len(self.alphabet)
                code, scale = _word_code(word, base), base ** len(word)
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
    takes vectors; values enter through SeriesRing.from_terms. A series is
    never written after its constructor returns, so `terms`, word -> value,
    and the kernel rows, built on first read, stay valid for its life."""

    __slots__ = ("ring", "vecs", "den", "_terms", "_rows", "_blocks")

    def __init__(self, ring: SeriesRing, vecs: dict, den: int = 1):
        """The series vecs / den (nonzero vectors, den > 0), reduced to canonical form."""
        self.ring, self._terms, self._rows, self._blocks = ring, None, None, None
        self.vecs, self.den = _reduced(ring.coeff, vecs, den)

    @property
    def terms(self) -> dict:
        """word -> nonzero value, built on first read."""
        if self._terms is None:
            rebuild, den = self.ring.coeff.rebuild, self.den
            self._terms = {w: rebuild(v, den) for w, v in self.vecs.items()}
        return self._terms

    def _kernel_rows(self) -> list:
        """The kernel rows, shortest words first, built on first read: over
        one letter a row (d, vector) per word x^d, else a row
        (_word_info(w), vector) per word w."""
        if self._rows is None:
            if self.ring._by_degree:
                self._rows = sorted([(len(w), v) for w, v in self.vecs.items()], key=_first)
            else:
                info = self.ring._word_info
                self._rows = sorted([(info(w), v) for w, v in self.vecs.items()],
                                    key=_row_length)
        return self._rows

    def _length_blocks(self):
        """On a block ring, the series' blocks by length if it is dense, else
        False (`_LengthBlocks.blocks`), built on first read."""
        if self._blocks is None:
            V, n = self.ring._blocks, len(self.vecs) - (() in self.vecs)
            # k // 2 or fewer terms of positive length fill no length l >= 1 past
            # half of its k^l words, so a tiny series is read off its size
            self._blocks = False if 0 < n <= V.k // 2 else V.blocks(self._kernel_rows())
        return self._blocks

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
        """Both operands' vectors brought over the lcm of their denominators
        into a new map, reduced once by the constructor."""
        self._check_ring(other)
        A = self.ring.coeff
        add, nonzero, scale = A.add_vectors, A.nonzero, A.scale_vector
        den = math.lcm(self.den, other.den)
        times = den // self.den
        acc = ({w: scale(v, times) for w, v in self.vecs.items()} if times != 1
               else dict(self.vecs))
        times = den // other.den
        for w, v in other.vecs.items():
            v = scale(v, times) if times != 1 else v
            if w in acc:
                v = add(acc[w], v)
                if not nonzero(v):
                    del acc[w]
                    continue
            acc[w] = v
        return TwistedSeries(self.ring, acc, den)

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
        """The series in its ring at `order`, words longer than that dropped;
        an order above the ring's is refused, since the words between are
        not known."""
        if order > self.ring.order:
            raise ValueError(f"cannot raise the order of a series of {self.ring!r} to {order}")
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
    g = _content(A, vecs.values(), den)
    if g != 1:
        if A.view_modulus is not None:  # a vector is one integer
            vecs = {w: v // g for w, v in vecs.items()}
        else:
            vecs = {w: A.divide_vector(v, g) for w, v in vecs.items()}
    return vecs, den // g


def _content(A, vectors, den: int) -> int:
    """The gcd of den and every entry of the vectors."""
    if den == 1:
        return 1
    if A.view_modulus is not None:  # a vector is one integer
        return math.gcd(den, *vectors)
    g = den
    for v in vectors:
        if g == 1:
            break
        g = math.gcd(g, A.content(v))
    return g


class _LengthBlocks:
    """The length-block view of a block ring (`SeriesRing._blocks`), which
    stands in for the coefficient ring on the degree drivers when every
    operand is dense: a vector of degree l is a block, the list of the k^l
    integers of the words of length l by index, or the gap (), which `dot`
    skips and `content` and `divide_vector` read as zero. Since index(v + w)
    = index(v) * k^j + index(w) for |w| = j, the pairs of a block of length
    i and one of length j are their Kronecker product."""

    zero, one, nonzero, view_modulus = (), [1], bool, None

    def __init__(self, k: int, modulus: int):
        self.k, self.modulus, self._words = k, modulus, {}
        # the shortest length whose k^l words make `_KRONECKER_MIN` products
        self.reach = next(d for d in itertools.count() if k ** d >= _KRONECKER_MIN)

    def blocks(self, rows: list):
        """[(length, block)] of kernel rows of the word path, shortest first,
        if every length they have fills more than half of its k^l words
        (they are dense), each block its k^l integers by index (a word's code
        less (k^l - 1) / (k - 1), `SeriesRing._word_info`) with 0 in the
        gaps; else False."""
        k, lengths, spans = self.k, [info[0] for info, _ in rows], []
        i, n = 0, len(rows)
        while i < n:
            l, j = lengths[i], bisect.bisect_right(lengths, lengths[i], i)
            # 2c < 2^l <= k^l from l = the bit length of 2c on: k^l is not taken
            if l >= (2 * (j - i)).bit_length() or 2 * (j - i) <= k ** l:
                return False
            spans.append((l, i, j))
            i = j
        out = []
        for l, i, j in spans:
            block, offset = [0] * k ** l, (k ** l - 1) // (k - 1)
            for info, a in rows[i:j]:
                block[info[2] - offset] = a
            out.append((l, block))
        return out

    def dot(self, lefts, rights):
        """The block of sum_i lefts[i] * rights[i], all of one length, each
        term a Kronecker product, reduced by the modulus, if any, once; the
        gap if it is all zero."""
        acc = None
        for a, b in zip(lefts, rights):
            if a and b:
                terms = [x * y for x in a for y in b]
                acc = terms if acc is None else list(map(operator.add, acc, terms))
        if acc is not None and self.modulus:
            acc = [x % self.modulus for x in acc]
        return acc if acc is not None and any(acc) else ()

    # a block is a list of integers, as an M_k(Q) vector is
    scale_vector = RationalMatrixRing.scale_vector
    content = RationalMatrixRing.content
    divide_vector = RationalMatrixRing.divide_vector

    def thin(self, block) -> bool:
        """Whether a block is not the gap and fills at most half its words:
        a degree driver's output that is no longer dense."""
        return bool(block) and 2 * (len(block) - block.count(0)) <= len(block)

    def terms(self, blocks) -> dict:
        """word -> nonzero integer of (length, block) pairs; the k^l words of
        a length are built once per ring and length."""
        words, out = self._words, {}
        for l, block in blocks:
            if block:
                if l not in words:
                    words[l] = list(itertools.product(range(self.k), repeat=l))
                out.update({w: x for w, x in zip(words[l], block) if x})
        return out


def sums_of_products(R: SeriesRing, sums: list) -> list:
    """[sum of s*t over pairs, for pairs in sums], for lists of (s, t) series
    of R: one convolution in the coefficient ring's integer view, truncated
    at R.order.

    Left vectors are brought over dl, the lcm of the left denominators, and
    right vectors over dr, the lcm of the right denominators, and scaled by
    M = f^e, for f the lcm of the twists' factors and e the longest left
    word (`_left_rows`), once per call. A move past a letter
    divides by its twist's factor (`_move`), exactly, since a right vector
    is moved past at most e letters, so each output word is one sum of
    products over dl * dr * M (`_convolve`, or `_convolve_by_degree` over
    one letter). On a block ring a call whose operands are all dense, and
    can make a Kronecker product of at least `_KRONECKER_MIN` entries, runs
    on `_convolve_by_degree` over the length-block view (`_block_view`)."""
    left, right = {}, {}  # by id: the operand, then its rows (left) or right operand
    for pairs in sums:
        for s, t in pairs:
            left[id(s)] = s
            right[id(t)] = t
    f, V = R._factor, R._blocks and _block_view(R, sums)
    M = f ** max((len(w) for s in left.values() for w in s.vecs), default=0) if f != 1 else 1
    dl, dr = _left_rows(R, left, V), _left_rows(R, right, V, M)
    den = dl * dr * M
    if R._by_degree or V:
        out = _convolve_by_degree(R, [[(left[id(s)], right[id(t)]) for s, t in pairs]
                                      for pairs in sums], V)
        return [TwistedSeries(R, vecs, den) for vecs in out]
    right = {i: ({(): rows}, None) for i, rows in right.items()}
    return [TwistedSeries(R, _convolve(R, [(left[id(s)], right[id(t)]) for s, t in pairs],
                                       0, R.order), den) for pairs in sums]


def _block_view(R: SeriesRing, sums: list):
    """R's length-block view if every operand of the (s, t) pairs of sums is
    dense and a pair of their lengths i and j makes a Kronecker product of
    at least `_KRONECKER_MIN` entries within the order, else None."""
    V, pays = R._blocks, False
    for pairs in sums:
        for s, t in pairs:
            if (a := s._length_blocks()) is False or (b := t._length_blocks()) is False:
                return None
            pays = pays or any(V.reach <= i + j <= R.order for i, _ in a for j, _ in b)
    return V if pays else None


_den = operator.attrgetter("den")
_first = operator.itemgetter(0)


def _row_length(row) -> int:
    """The word length of a kernel row of the word path."""
    return row[0][0]


def _left_rows(R: SeriesRing, ops: dict, V=None, times: int = 1) -> int:
    """Replace each operand of a kernel call, a power-sum pass or an
    inverse, the values of `ops`, by its kernel rows (its blocks by length
    over a length-block view V), each vector brought over den, the lcm of
    their denominators, and scaled by `times`; return den. Left operands
    are set up with times 1, and right ones, which twists move, with times
    M, a power of the lcm of the twists' factors large enough that each
    move divides exactly (`_move`)."""
    scale_vector, den = (V or R.coeff).scale_vector, math.lcm(*map(_den, ops.values()))
    for i, s in ops.items():
        rows, t = s._length_blocks() if V else s._kernel_rows(), den // s.den * times
        ops[i] = rows if t == 1 else [(info, scale_vector(a, t)) for info, a in rows]
    return den


def _move(auto):
    """The move of a vector past a letter twisted by `auto`, one of the
    inverse twists: its view action, then, for a factor F != 1, one exact
    division by F, so a moved vector stands over its own denominator. The
    vector must carry a multiple of F, which the kernel's right vectors do
    (`sums_of_products`)."""
    act, f = auto.act, auto.factor
    if f == 1:
        return act
    divide = auto.ring.divide_vector
    return lambda v: divide(act(v), f)


def _convolve(R: SeriesRing, pairs: list, lo: int, room: int) -> dict:
    """word -> nonzero vector of the sum, over (left rows, right operand)
    pairs, of each left row (length lv, key K) times each right row of
    length lo - lv .. room - lv: the pair loop of rings of two or more
    letters. Left rows are shortest first (`_left_rows`).

    A right operand is (by_key, starts). by_key is its move table: by_key[()]
    holds its kernel rows, over the right denominator of the call, times M
    (`sums_of_products`), and by_key[K] those rows moved leftward past K, over
    the same denominator (`_move`), as far as a left row has
    read them (`_moved_rows`); the table lives as long as the operand, so
    each (key, right row) is moved once. Consecutive left rows of one length
    and key form a run, which looks its moved rows up once; rows are
    shortest first, so a run's inner loop ends at the first right row that
    overshoots room - lv. A run shorter than lo starts at the offset of
    length lo - lv: starts[m] counts the right rows of length below m, up to
    m = room + 1 - lv (an operand read only from degree 0 needs none). The
    pairs' vectors are gathered per output word, named by its code (so no
    word tuple is built or hashed per pair), and summed by one `A.dot`."""
    A, gathered = R.coeff, {}  # code -> (v, w, lefts, rights)
    for rows, (by_key, starts) in pairs:
        run_lv = run_key = None
        for (lv, v, cv, _, key), a in rows:
            if lv != run_lv or key != run_key:
                rest = room - lv
                if rest < 0:
                    break
                if key != run_key:  # a longer run of the same key reads less
                    moved, run_key = _moved_rows(by_key, key, rest), key
                run_lv = lv
                run = moved if lo <= lv else moved[starts[lo - lv]:starts[rest + 1]]
            for (lw, w, cw, sw, _), b in run:
                if lw > rest:
                    break
                code = cv * sw + cw
                both = gathered.get(code)
                if both is None:
                    gathered[code] = (v, w, [a], [b])
                else:
                    both[2].append(a)
                    both[3].append(b)
    dot, nonzero, commute, out = A.dot, A.nonzero, R.letters_commute, {}
    for v, w, xs, ys in gathered.values():
        vec = dot(xs, ys)
        if nonzero(vec):
            word = v + w
            out[tuple(sorted(word)) if commute else word] = vec
    return out


def _convolve_by_degree(R: SeriesRing, sums: list, V=None) -> list:
    """The pair loop over one letter, where every word is x^d, or over the
    length-block view V, where a degree is a length: [word -> nonzero vector
    of the sum] for each list of (left rows, right rows) pairs, rows (d,
    vector) shortest first, as `_left_rows` sets them up. A left
    row of degree k meets the right operand moved by xi^-k, so each right
    operand is held in its diagonal form (`_diagonals`), built once per call
    through its reach, the highest left degree of the call that reads it.
    Each output degree of a sum, up to the order or the highest left degree
    plus right degree of its pairs, is one `A.dot` of the pairs it gathers
    (`_pairs_at`)."""
    room, zero = R.order, R._zero_vec if V is None else V.zero
    rights, by_sum = {}, []  # id of right rows -> [rows, reach], then (flat, origin, low, top)
    for pairs in sums:
        reads, lowest, highest = [], room + 1, 0
        for rows, right in pairs:
            if not rows or not right:
                continue
            lo, hi = rows[0][0] + right[0][0], rows[-1][0] + right[-1][0]  # its output degrees
            if lo > room:
                continue
            entry = rights.get(id(right))
            if entry is None:
                entry = rights[id(right)] = [right, rows[-1][0]]
            elif rows[-1][0] > entry[1]:
                entry[1] = rows[-1][0]
            reads.append((rows, entry))
            if lo < lowest:
                lowest = lo
            if hi > highest:
                highest = hi
        by_sum.append((reads, lowest, min(highest, room)))
    for entry in rights.values():
        rows, reach = entry
        low, top = rows[0][0], rows[-1][0]
        dense = [zero] * (top + 1)
        for k, v in rows:
            dense[k] = v
        reach = min(reach, room - low)
        entry[:] = *_diagonals(R, dense, reach, min(room, reach + top)), low, top
    A, out = V or R.coeff, []
    dot, nonzero = A.dot, A.nonzero
    for reads, lowest, highest in by_sum:
        sides, vecs = [], {}
        for rows, entry in reads:
            sides.append((*_by_rows(rows, zero), *entry))
        for d in range(lowest, highest + 1):
            xs, ys = _pairs_at(d, sides)
            if xs:
                vec = dot(xs, ys)
                if nonzero(vec):
                    vecs[d if V else (0,) * d] = vec
        out.append(V.terms(vecs.items()) if V else vecs)
    return out


def _diagonals(R: SeriesRing, dense: list, reach: int, end: int, form=None) -> tuple:
    """The diagonal form (flat, origin), through diagonal `end`, of a right
    operand over one letter whose vectors by degree are `dense` (the zero
    vector where it has none) and that left degrees up to `reach` read;
    `form`, if given, is extended in place. Entry k of diagonal d is the
    vector of degree d - k moved by xi^-k, and it is flat[origin[d] - k].

    Over an untwisted letter the diagonals overlap: flat is dense itself and
    origin[d] = d, and nothing is copied or moved. Over a twisted letter
    diagonal d holds its entries min(d, reach) down to the lowest of degree
    at most top = len(dense) - 1, each entry k >= 1 one move (`_move`) of
    entry k - 1 of diagonal d - 1 (the zero vector, that object, is carried
    as it is), in a loop, so each (shift, degree) is moved once; then entry
    0, dense[d], where d <= top. A solve pass grows y by a degree at a time,
    so it extends the form of y by a diagonal per degree and puts entry 0,
    y_d, at flat[origin[d]] itself."""
    if R._shift is None:
        return dense, list(range(end + 1))
    flat, origin = form or ([], [])
    move, zero, top = _move(R._shift), R._zero_vec, len(dense) - 1
    for d in range(len(origin), end + 1):
        lo = max(1, d - top)  # entries below lo have degrees above top: zero
        if d:
            o = origin[-1]
            flat += [v if v is zero else move(v) for v in flat[o - min(d, reach) + 1:o - lo + 2]]
        origin.append(len(flat) + lo - 1)
        if d <= top:
            flat.append(dense[d])
    return flat, origin


def _by_rows(rows: list, zero) -> tuple:
    """(k0, k1, vectors, degrees) of left rows (d, vector) of degrees k0 ..
    k1 (`_pairs_at`): rows that fill more than half of those degrees are a
    run, their vectors by degree from k1 down to k0, each gap the vector
    `zero`, and degrees None; other rows are read one at a time."""
    k0, k1 = rows[0][0], rows[-1][0]
    if 2 * len(rows) <= k1 - k0 + 1:
        return k0, k1, [v for _, v in rows], [k for k, _ in rows]
    vs = [zero] * (k1 - k0 + 1)
    for k, v in rows:
        vs[k1 - k] = v
    return k0, k1, vs, None


def _pairs_at(d: int, sides: list) -> tuple:
    """(lefts, rights): the pairs of degree d over `sides`, each (k0, k1,
    vectors, degrees, flat, origin, low, top): the first four items from
    `_by_rows`, of a left operand of degrees k0 .. k1, and the diagonal form
    (`_diagonals`) of a right operand of degrees low .. top. A left row of
    degree k meets entry k of diagonal d, flat[origin[d] - k], for d - k
    from low to top: a run is read with the diagonal by one slice each, and
    rows one at a time."""
    xs = ys = ()
    for k0, k1, vs, ks, flat, origin, low, top in sides:
        a, b = d - top, d - low  # the degrees k that meet the right operand
        if a < k0:
            a = k0
        if b > k1:
            b = k1
        if a > b:
            continue
        o = origin[d]
        if ks is None:
            vecs, read = vs[k1 - b:k1 - a + 1], flat[o - b:o - a + 1]
        else:
            i, j = bisect.bisect_left(ks, a), bisect.bisect_right(ks, b)
            vecs, read = vs[i:j], [flat[o - k] for k in ks[i:j]]
        if xs:
            xs += vecs
            ys += read
        else:  # both are new lists
            xs, ys = vecs, read
    return xs, ys


def _moved_rows(by_key: dict, key: tuple, room: int) -> list:
    """by_key[key], first extended to every row of by_key[()] of length at
    most `room`: the rows moved leftward past `key` by its twists, last
    letter first (`_move`). The move past key[i:] is key[i] after the
    move past key[i+1:], so each suffix of key, shortest first, is extended
    from the next shorter one's list, and each (suffix, row) is moved once.
    A list that already reaches `room` is returned at once (so does the
    list of each suffix of key, which is no shorter), so the suffixes of a
    key are sliced and hashed only when rows remain to move."""
    rows, moved = by_key[()], by_key.get(key)
    if moved is not None and (len(moved) == len(rows) or rows[len(moved)][0][0] > room):
        return moved
    moved = rows
    for i in range(len(key) - 1, -1, -1):
        shorter, move = moved, _move(key[i])
        moved = by_key.setdefault(key[i:], [])
        for j in range(len(moved), len(shorter)):
            info, b = shorter[j]
            if info[0] > room:
                break
            moved.append((info, move(b)))
    return moved


def inverse_entries(R: SeriesRing, x: list) -> list:
    """The entries of x^-1, row-major, for the n x n matrix x of series of R
    given by its n*n row-major entries (a series is the case n = 1); raises
    NotAUnit when eps(x) is not invertible over A.

    y = x^-1 solves y = inv0 + q*y for inv0 = eps(x)^-1 and q = -inv0 * x+,
    x+ = x - eps(x), so that x*y = 1; in a ring local over the augmentation
    this right inverse is two-sided. x's kernel rows are read once, over dx,
    the lcm of x's denominators (`_left_rows`), and so are its constant
    terms. A scalar constant c I, over dx for an integer c, is read; any
    other constant is one elimination. Over Z/m, inv0 = c^-1 mod m (dx =
    1), and over a Q-algebra, inv0 = (dx / c) I in lowest terms; c = 0, or
    c not prime to m, is not a unit. q is then x's own rows, each vector
    scaled by one integer. Any other constant is one `A.invert_vectors` of
    the constant terms over dx, to inv0 over den, and each word of q_ij is one
    `A.dot` over the s of sum_s (-inv0)_is * x+_sj. For g = den * dx, a row
    of length k is scaled by g^(k-1), with the (-inv0)_is or the integer, so
    that it stands over g^k, and the degrees of y are one `_solve` pass."""
    A, n, top = R.coeff, math.isqrt(len(x)), R.order
    scale, nonzero, m = A.scale_vector, A.nonzero, A.view_modulus
    by_degree = R._by_degree  # a row's info is then its degree, which names its word
    rows = dict(enumerate(x))
    dx = _left_rows(R, rows)
    consts = [scale(e.vecs[()], dx // e.den) if () in e.vecs else R._zero_vec for e in x]
    c = A.content(consts[0])  # |c|, or c itself, if consts is c I
    c = c if consts[0] == (scale(R._one_vec, c) if c else R._zero_vec) else -c
    if consts == [scale(R._one_vec, c) if c and e % (n + 1) == 0 else R._zero_vec
                  for e in range(n * n)]:
        if m:
            if math.gcd(c, m) != 1:
                raise NotAUnit(f"{c} is not a unit of {A.name}")
            p, den = pow(c, -1, m), 1
        elif not c:
            raise NotAUnit(f"zero constant over {A.name}")
        else:
            h = math.gcd(c, dx)
            p, den = (dx if c > 0 else -dx) // h, abs(c) // h
        g = den * dx
        neg = [0] + [-p * g ** k for k in range(top)]  # neg[k] = -p * g^(k-1)
        one = R._one_vec if p == 1 else scale(R._one_vec, p)
        return _solve(R, [[(info, scale(a, neg[k])) for info, a in rows[e]
                           if (k := info if by_degree else info[0])] for e in range(n * n)],
                      [one if e % (n + 1) == 0 else R._zero_vec for e in range(n * n)],
                      den, g)
    inv0, den = A.invert_vectors(consts, dx, n)
    g, dot, q = den * dx, A.dot, []
    neg = {k: [scale(v, -g ** (k - 1)) for v in inv0] for k in range(1, top + 1)}
    for i in range(0, n * n, n):
        ss = [s for s in range(n) if nonzero(inv0[i + s])]
        for j in range(n):
            gathered = {}  # code -> (info, the (-inv0)_is g^(k-1), the x+_sj vectors)
            for s in ss:
                for info, a in rows[s * n + j]:
                    if k := info if by_degree else info[0]:
                        _, cs, xs = gathered.setdefault(info if by_degree else info[2],
                                                        (info, [], []))
                        cs.append(neg[k][i + s])
                        xs.append(a)
            sums = ((info, dot(cs, xs)) for info, cs, xs in gathered.values())
            q.append(sorted([(info, v) for info, v in sums if nonzero(v)],
                            key=_first if by_degree else _row_length))
    return _solve(R, q, inv0, den, g)


def _solve(R: SeriesRing, q: list, y0: list, den: int, g: int) -> list:
    """The entries of y, row-major n x n, with y = y0/den + q*y: y_0 =
    y0/den and y_d = sum_{k=1..d} q_k * y_{d-k} for d = 1..N, in one pass.

    q holds per entry the kernel rows, shortest first, of augmentation 0 of
    a left operand with a row of length k over g^k. y0 is first scaled by
    M = f^N, for f the lcm of the twists' factors, and den by M, so each
    y_d stands over den * g^d and is a multiple of f^(N-d): a row of length
    k meets only y_{d-k}, moved past its key, at most k letters, each move
    dividing exactly by its factor (`_move`), and y_d_ij is one `_convolve`
    of the n pairs (q_it, y_tj) that reads exactly degree d. Each y_tj is
    one right operand for the whole pass, to which each degree's rows are
    appended as it is solved, so its rows are moved past each key once.
    Nothing is rescaled or reduced between degrees; they are merged once,
    over den * g^N, and reduced by the TwistedSeries constructor. Over one
    letter the same q and the same bookkeeping solve each degree by one
    `A.dot` per entry, with no `_convolve` call (`_solve_by_degree`), and so
    they do on a block ring where every entry of q is dense, over the
    length-block view, unless a degree of y is not (`_LengthBlocks.thin`):
    then the pass starts again here."""
    M = R._factor ** R.order
    if M != 1:
        y0, den = [R.coeff.scale_vector(v, M) for v in y0], den * M
    if R._by_degree:
        return _solve_by_degree(R, q, y0, den, g)
    V = R._blocks
    if V:
        blocks = [V.blocks(rows) for rows in q]
        if all(b is not False for b in blocks):
            y = _solve_by_degree(R, blocks, [[v] if v else V.zero for v in y0], den, g, V)
            if y is not None:
                return y
    A, top, n, info = R.coeff, R.order, math.isqrt(len(q)), R._word_info
    ys = [[{(): v} if A.nonzero(v) else {} for v in y0]]
    right = [({(): []}, [0]) for _ in y0]  # y's entries, grown a degree at a time
    pairs = [[(q[i + t], right[t * n + j]) for t in range(n)]
             for i in range(0, n * n, n) for j in range(n)]
    for d in range(1, top + 1):
        for (by_key, starts), e in zip(right, ys[-1]):
            rows = by_key[()]
            rows += [(info(w), v) for w, v in e.items()]
            starts.append(len(rows))
        ys.append([_convolve(R, entry, d, d) for entry in pairs])
    scale, merged = A.scale_vector, [{} for _ in y0]
    for d, entries in enumerate(ys):
        times = g ** (top - d)
        for vecs, e in zip(merged, entries):
            vecs.update(e if times == 1 else {w: scale(v, times) for w, v in e.items()})
    return [TwistedSeries(R, vecs, den * g ** top) for vecs in merged]


def _solve_by_degree(R: SeriesRing, q: list, y0: list, den: int, g: int, V=None):
    """_solve over one letter, or over the length-block view V: each entry
    of y is a list by degree, and y_d_ij is one `A.dot` of the pairs (q_it
    row of degree k, entry k of diagonal d of y_tj) over t and the rows of
    q_it (`_pairs_at`). Each y_tj grows one diagonal per degree through its
    reach, the highest degree of the q_it (`_diagonals`), so each (shift,
    degree of y_tj) is moved once. Over V, None as soon as a degree of y is
    thin."""
    A, top, n, twisted = V or R.coeff, R.order, math.isqrt(len(q)), R._shift is not None
    dot, zero = A.dot, R._zero_vec if V is None else V.zero
    ys = [[v] for v in y0]
    reach = [0] * n  # of y_tj, for every j: the highest degree of the q_it
    for e, rows in enumerate(q):
        if rows and rows[-1][0] > reach[e % n]:
            reach[e % n] = rows[-1][0]
    # y grows a degree at a time: its diagonals, where they are not y itself,
    # are built a diagonal per degree, from diagonal 0
    forms = [_diagonals(R, y, reach[e // n], 0 if twisted else top) for e, y in enumerate(ys)]
    q = [_by_rows(rows, zero) if rows else None for rows in q]
    sides = [[(*q[i + t], *forms[t * n + j], 0, top) for t in range(n) if q[i + t]]
             for i in range(0, n * n, n) for j in range(n)]
    for d in range(1, top + 1):
        if twisted:
            for e, (y, form) in enumerate(zip(ys, forms)):
                _diagonals(R, y, reach[e // n], d, form)
        for y, entry in zip(ys, sides):
            xs, bs = _pairs_at(d, entry)
            y.append(dot(xs, bs) if xs else zero)
        if twisted:  # y_d is entry 0 of diagonal d
            for (flat, _), y in zip(forms, ys):
                flat.append(y[-1])
        if V and any(V.thin(y[-1]) for y in ys):
            return None
    scale, nonzero = A.scale_vector, A.nonzero
    times = [g ** (top - d) for d in range(top + 1)]
    if V:
        return [TwistedSeries(R, V.terms((d, v if times[d] == 1 else scale(v, times[d]))
                                         for d, v in enumerate(y)), den * g ** top)
                for y in ys]
    return [TwistedSeries(R, {(0,) * d: v if times[d] == 1 else scale(v, times[d])
                              for d, v in enumerate(y) if nonzero(v)}, den * g ** top)
            for y in ys]


def _power_sum(theta: TwistedSeries, coeff) -> TwistedSeries:
    """sum_{k=1..N} coeff(k) * theta^k for theta of augmentation 0, by Horner's
    rule inside the kernel: from h = 0, h = h*theta + coeff(k) for k = N down
    to 1, then h*theta. h is a polynomial in theta with rational
    coefficients, so it commutes with theta, and theta is the one right
    operand of every step, set up once (`_left_rows`) with M = f^(N-1), for
    f the lcm of the twists' factors, since h has words of at most N - 1
    letters: its rows are moved past each key of h once for the whole pass.
    Each step is one `_convolve` cut at degree N - k, since only the degrees
    up to N - k of the h at k reach the order, with h's rows set up as left
    rows (`_left_rows`) and coeff(k) put into its constant vector. Over one
    letter the pass runs on lists by degree (`_power_sum_by_degree`), and so
    it does on a block ring where theta is dense, over the length-block
    view, unless a degree of h*theta is not (`_LengthBlocks.thin`): then the
    pass starts again here."""
    R, n = theta.ring, theta.ring.order
    if R._by_degree:
        return _power_sum_by_degree(theta, coeff)
    if R._blocks and theta._length_blocks() is not False:
        h = _power_sum_by_degree(theta, coeff, R._blocks)
        if h is not None:
            return h
    A, M, right, h = R.coeff, R._factor ** max(n - 1, 0), {0: theta}, R.zero()
    dtheta = _left_rows(R, right, None, M) * M
    right = ({(): right[0]}, None)
    for k in range(n, -1, -1):
        left = {0: h}
        den = _left_rows(R, left) * dtheta
        vecs = _convolve(R, [(left[0], right)], 0, n - k)
        if not k:
            return TwistedSeries(R, vecs, den)
        c = coeff(k)
        total = math.lcm(den, c.denominator)
        if total != den:
            vecs = {w: A.scale_vector(v, total // den) for w, v in vecs.items()}
        vecs[()] = A.scale_vector(R._one_vec, c.numerator * (total // c.denominator))
        h = TwistedSeries(R, vecs, total)


def _power_sum_by_degree(theta: TwistedSeries, coeff, V=None):
    """_power_sum over one letter, or over the length-block view V, on lists
    by degree: degree d of h*theta is sum_{i<d} h_i * xi^-i(theta_{d-i}),
    one `A.dot` of h[:d], kept highest degree first, and one slice of
    diagonal d of theta. theta's vectors are scaled by M = F^(N-1), for F
    the factor of the letter's inverse twist, and its diagonals are built
    once for the pass, through reach N - 1 (`_diagonals`), so each (shift,
    degree of theta) is moved once, each move dividing exactly by F
    (`_move`), and every pair stands over M times theta's denominator. Each
    step adds coeff(k) to the constant and divides by the gcd, as the
    TwistedSeries constructor does; no series is built between steps. Over
    V, None as soon as a degree of h*theta is thin."""
    R, n = theta.ring, theta.ring.order
    A, zero, one = (R.coeff, R._zero_vec, R._one_vec) if V is None else (V, V.zero, V.one)
    dot, scale = A.dot, A.scale_vector
    reach = max(n - 1, 0)
    M, dense = R._factor ** reach, [zero] * (n + 1)
    for d, v in theta._length_blocks() if V else ((len(w), v) for w, v in theta.vecs.items()):
        dense[d] = v if M == 1 else scale(v, M)
    dtheta = theta.den * M
    flat, origin = _diagonals(R, dense, reach, n)
    diagonals = [flat[o - d + 1:o + 1] for d, o in enumerate(origin)]  # entries d-1 .. 0
    h, dh = [], 1  # h by degree, highest first
    for k in range(n, -1, -1):
        m = len(h) - 1
        vecs = [dot(h[m - d + 1:], diagonals[d]) for d in range(1, n - k + 1)]
        den = dh * dtheta
        if V and any(map(V.thin, vecs)):
            return None
        if not k:
            if V:
                return TwistedSeries(R, V.terms(enumerate(vecs, 1)), den)
            nonzero = A.nonzero
            return TwistedSeries(R, {(0,) * d: v for d, v in enumerate(vecs, 1) if nonzero(v)},
                                 den)
        c = coeff(k)
        total = math.lcm(den, c.denominator)
        if total != den:
            vecs = [scale(v, total // den) for v in vecs]
        vecs.reverse()
        vecs.append(scale(one, c.numerator * (total // c.denominator)))
        g = _content(A, vecs, total)
        h, dh = [A.divide_vector(v, g) for v in vecs] if g != 1 else vecs, total // g


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

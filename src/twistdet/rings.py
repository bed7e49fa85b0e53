"""Coefficient rings for the series engine.

Five exact-arithmetic ring instances share one interface: the rationals,
integers mod m, k x k rational matrices, rational group algebras of finite
groups, and a degree-truncated free associative algebra over Q. Elements are
immutable canonical values (Fraction, int, nested tuples); all operations go
through the ring object.

The contract, `CoeffRing`, is what the series, matrix, K-group, Novikov and
document layers call:
- `zero`, `one`, `name`, `kind` and `contains_rationals`, the one capability
  flag: Q sits in the centre, so the ring scales by rationals and has a
  rational-valued `trace(a)` (a dict label -> Fraction, zeros dropped),
  defined once, in `CoeffRing`, as clear, `trace_vector` and divide;
- `add`, `neg`, `sub`, `mul`, `scalar_mul`, `is_zero`, `is_one`, `is_unit`
  and `invert` on elements, defined once, in `CoeffRing`, through the view;
- the Z-linear view: `clear` turns a list of values into integer vectors
  over one shared denominator, `dot` computes the integer vector of a sum
  of products sum_i x_i * y_i, and `rebuild` is the one read-back: it turns
  a vector from either (or an automorphism's action on one) and a
  denominator back into a value. Each vector has one form, so equal values
  over one denominator have equal vectors: Q's is one integer, and Z/m's
  one integer in [0, m) (their `view_modulus` is 0 and m, which the
  series layer reads for its length-block view and to invert a scalar
  constant, series.py); M_k(Q)'s is a list of its k*k
  entries, zeros kept; a basis algebra's is its (key, integer) pairs, from
  which `clear`, `dot`, `act`, `add_vectors` and `scale_vector` drop zero
  entries and whose keys they sort. `nonzero`, `content`, `divide_vector`
  and `invert_vectors` (of an n x n matrix of vectors) serve the series
  layer;
- `emat_identity`, `emat_mul`, `mat_is_invertible` and `mat_invert` on
  square matrices (tuples of rows) of elements, defined once, in
  `CoeffRing`: `mat_is_invertible` (and so `is_unit`) is whether the
  elimination of `invert_vectors` succeeds, with no second test;
- `random_element`, `random_unit` and `random_central` for sampling;
- `element_to_literal` and `parse_element_literal`, the only way elements
  are read and written (rationals through `frac_str` and `frac_from_str`,
  which also handle integers past Python's int-string digit limit: written
  exactly, refused by name when read; errors show literals `quoted`);
- `automorphisms`/`automorphism(name)`, the registry of named automorphisms
  (each with its registered inverse) usable as letter twists. It is the one
  record of a ring's twists: `twists()` lists the registered forward
  automorphisms' `RingAutomorphism.data`, which `signature()` (ring
  equality) reads; no ring is written back to a document. Each automorphism
  is defined once, by an integer action on the Z-linear view below and a
  fixed denominator factor.

A ring kind supplies only its basis and view (`clear`, `dot`, `rebuild` and
the vector helpers), its twist actions, its literals and its trace on the
view, `trace_vector` (integer sums by label; Q's one label is "1", M_k(Q)'s
"tr", the diagonal sum, and a basis algebra's its keys' `_trace_label`). Each
concrete class restates `add`, `mul` and `invert` by one alias line, because
perfbench/spans.py wraps them per class through vars(cls).

Rings represented over Q share two bases. `_RepresentedRing` (Q, M_k(Q)
and Q[G]) inverts matrices over the ring by one elimination of their block
image under a faithful representation into M_d(Q). `_BasisAlgebra` (Q[G]
and Q<gens>/deg>N) holds the sparse (basis key, integer) view and its
read-back, the trace by basis-key label, random units, element literals and
permutation automorphisms.

Values are Fractions, but products and inverses work on integers, through
the view (after FLINT's fmpq_poly layout: integer numerators over one
shared denominator), and series keep their coefficients in it (series.py).
Z/m has denominator 1 and reduces mod m once per output entry; Q's vector
is the numerator, M_k(Q)'s the k*k entries row by row, Q[G]'s and
Q<gens>/deg>N's their (basis key, integer) pairs, multiplied through the
group table or by word concatenation. M_k(Q) multiplies through index
tables: `dot` of n pairs reads both sides' flat entries through the two
tables of n, built on first use and kept on the ring, so the n*k products
of each output entry are one run of one `map`. Automorphisms act on the
view too: an M_k(Q) conjugation by P reads one flat k*k x k*k integer
table (a -> N a adj(N) for N = d P integral, factor |det N|) the same way,
and a permutation of Q[G] or Q<gens>/deg>N relabels the (key, integer)
pairs (factor 1); `RingAutomorphism.apply` is clear, act and `rebuild`.
Every inverse, over Q, M_k(Q), Q[G] and Z/m, is one `fraction_free`
elimination of integers, of which only the entries read back are built;
it is also the one invertibility test. Units and matrices over
Q<gens>/deg>N go through `series.inverse_entries` over Q<<gens>>: the
scalar part of a unit, or of a matrix whose scalar part is the identity,
is read and never eliminated, that of any other matrix is one
elimination, and the degrees are one solve pass over the element's own
(word, integer) pairs.
The layers above also share `Record` (their result records),
`twisted_conjugacy_classes`, and the one writer and the one reader of
signed-sum literals, `rational_sum_literal` and `signed_terms`, from here.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import LiteralSyntaxError, NeedsRationalCoefficients, NeedsTrace, NotAUnit


def frac_from_str(text: str) -> Fraction:
    """The rational `n` or `n/d` (ASCII digits, an optional leading '-')."""
    return _read_numeral(r"-?[0-9]+(?:/[0-9]+)?", Fraction, "rational", text)


def _read_numeral(grammar: str, convert: Callable, kind: str, text: str):
    """convert(text) for a text that `grammar` matches in full, but for white
    space around it; any other text, d = 0 in n/d and a numeral past the
    int-string digit limit are bad `kind` literals."""
    numeral = text.strip()
    try:
        if re.fullmatch(grammar, numeral):
            return convert(numeral)
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad_literal(kind, text) from exc
    raise _bad_literal(kind, text)


def quoted(text: str) -> str:
    """repr(text) for an error message, clipped to its first 80 characters
    and its length when it is longer."""
    return repr(text) if len(text) <= 80 else f"{text[:80]!r}... ({len(text)} characters)"


def _bad_literal(kind: str, text: str) -> LiteralSyntaxError:
    """The error for a `kind` literal that does not convert. It shows the text
    `quoted`, and names Python's limit on int-string conversion
    (sys.get_int_max_str_digits) when the text has more digits."""
    shown = quoted(text)
    limit = sys.get_int_max_str_digits()
    if limit and sum(map(str.isdigit, text)) > limit:
        return LiteralSyntaxError(f"{kind} literal {shown} has more than {limit} digits, "
                                  "the limit of int-string conversion")
    return LiteralSyntaxError(f"bad {kind} literal {shown}")


def frac_str(q: Fraction) -> str:
    """str(q), also for numerators and denominators past the int-string
    digit limit (written through Decimal, which has none)."""
    try:
        return str(q)
    except ValueError:
        num, den = (str(Decimal(x)) for x in (q.numerator, q.denominator))
        return num if den == "1" else f"{num}/{den}"


def rational_sum_literal(terms) -> str:
    """The literal of a sum of (name, nonzero Fraction) terms: "q*name",
    "name" for q = 1, "-name" for q = -1 and the bare q for the empty name,
    joined by "+" with "+-" written "-"; "0" for no terms."""
    parts = []
    for name, q in terms:
        if not name:
            parts.append(frac_str(q))
        elif q == 1:
            parts.append(name)
        elif q == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{frac_str(q)}*{name}")
    return "+".join(parts).replace("+-", "-") if parts else "0"


# one token of a signed-sum literal, after any white space ("bad": any other character)
_TOKEN = re.compile(r"""\s*(?:
    (?P<rat>[0-9]+(?:/[0-9]+)?)
  | w\(\s*"(?P<word>[^"]*)"\s*\)
  | \[(?P<elem>[^\]]*)\]
  | (?P<name>[^\s\d+\-*/()\[\]"][^\s+\-*/()\[\]"]*)
  | (?P<op>[-+*])
  | (?P<bad>\S))""", re.VERBOSE)


def signed_terms(text: str) -> list[tuple[Fraction, list[tuple[str, str]]]]:
    """Read a literal of the form `rational_sum_literal` writes: a signed sum
    of '*'-products of factors. A run of signs may start it, and each later
    term follows one '+' or '-'. Each term is (q, factors): q is its sign
    times its rational factors (written anywhere in the term), and factors
    are its other factors in written order, as (kind, text) pairs of kind
    "word" (w("text")), "elem" ([text]) or "name"."""
    terms, q, factors, last = [], Fraction(1), [], "start"  # last: "start", "op" or "factor"
    for m in _TOKEN.finditer(text):
        kind, val = m.lastgroup, m[m.lastgroup]
        if kind == "bad":
            raise LiteralSyntaxError(f"bad character {val!r} in {quoted(text)}")
        if kind != "op":
            if last == "factor":
                raise LiteralSyntaxError(f"missing '*' before {quoted(val)} in {quoted(text)}")
            if kind == "rat":
                q *= frac_from_str(val)
            else:
                factors.append((kind, val))
            last = "factor"
        elif last == "factor":  # '*' leads to the next factor, a sign to the next term
            if val != "*":
                terms.append((q, factors))
                q, factors = Fraction(-1 if val == "-" else 1), []
            last = "op"
        elif last == "start" and val != "*":
            q = -q if val == "-" else q
        else:
            raise LiteralSyntaxError(f"misplaced {val!r} in {quoted(text)}")
    if last != "factor":
        raise LiteralSyntaxError(f"incomplete literal {quoted(text)}")
    terms.append((q, factors))
    return terms


def sum_by_key(pairs) -> dict:
    """Sum the values of (key, value) pairs with equal keys, in first-seen key
    order: a key's first value is stored as it is, and zero sums are dropped."""
    acc: dict = {}
    for k, v in pairs:
        acc[k] = acc[k] + v if k in acc else v
    return {k: v for k, v in acc.items() if v}


class Record:
    """A result record whose fields are its `__slots__` (a slot named with a
    leading "_" caches what the fields determine, and is no field): two
    records are equal when they are of one class with equal fields
    (NotImplemented for any other class), the repr names every field, and
    records are unhashable."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> list:
        return [f for f in self.__slots__ if f[0] != "_"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields()]
                == [getattr(other, f) for f in self._fields()])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields())
        return f"{type(self).__name__}({fields})"


class RingAutomorphism:
    """A named ring automorphism with a registered inverse, defined once by an
    integer action on its ring's Z-linear view: `act` maps a vector from
    `clear` to the vector of the image, which stands over `factor` times the
    vector's denominator (a fixed positive integer). `apply` is clear, act
    and `rebuild`; the series kernel moves cleared vectors with `act` alone.
    `data` is the automorphism's defining data, as signatures read it."""

    def __init__(self, ring: "CoeffRing", name: str, data: tuple, act: Callable,
                 factor: int = 1):
        self.ring = ring
        self.name = name
        self.data = data
        self.act = act
        self.factor = factor
        self.inverse: "RingAutomorphism" = self  # fixed up by _register_pair

    def apply(self, a):
        ring = self.ring
        (vec,), den = ring.clear((a,))
        return ring.rebuild(self.act(vec), den * self.factor)

    def __repr__(self):
        return f"RingAutomorphism({self.name})"


# ---------------------------------------------------------------------------
# The integer kernel for rational matrices (shared by several rings)

def fraction_free(rows) -> tuple[int, Optional[list]]:
    """(det M, adj M) of a square integer matrix M, so M * adj M = det M * I, by
    fraction-free Gauss-Jordan elimination (Bareiss 1968): a step replaces each
    row r by (p*r - f*pivot_row) / (previous pivot), an exact division, and the
    last pivot is det M up to the sign of the row swaps. adj is None when
    det M = 0. Every inverse over Q, Z/m, M_k(Q) and Q[G] is one such
    elimination, and so is every invertibility test. Over Q<gens>/deg>N
    they go through `series.inverse_entries` over Q<<gens>>, whose degrees
    are one solve pass with no product: it reads the scalar part of a unit,
    and a scalar part that is the identity, with no elimination, so
    `is_unit`, `invert` and those `mat_is_invertible` calls make none, and
    eliminates the scalar part of any other matrix once."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[i][j] is the index of g_i * g_j. The table is validated on
    construction (identity, inverses, associativity).
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G"):
        self.table = t = tuple(tuple(int(x) for x in row) for row in table)
        self.name = name
        self.order = n = len(t)
        if n == 0 or any(len(row) != n for row in t):
            raise ValueError("group table must be square and nonempty")
        if any(not (0 <= x < n) for row in t for x in row):
            raise ValueError("group table entries out of range")
        idents = [e for e in range(n) if all(t[e][a] == a == t[a][e] for a in range(n))]
        if len(idents) != 1:
            raise ValueError("group table has no unique identity")
        self.identity = e = idents[0]
        self.inv = [next((b for b in range(n) if t[a][b] == e == t[b][a]), None)
                    for a in range(n)]
        if None in self.inv:
            raise ValueError(f"element {self.inv.index(None)} has no inverse")
        if any(t[t[a][b]][c] != t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            raise ValueError("group table is not associative")
        self.names = tuple(f"g{i}" for i in range(n))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugacy_classes(self) -> list[frozenset]:
        return twisted_conjugacy_classes(self, None, 0)

    def class_of(self, g: int) -> frozenset:
        for cls in self.conjugacy_classes():
            if g in cls:
                return cls
        raise ValueError(g)

    def is_automorphism(self, perm: Sequence[int]) -> bool:
        n = self.order
        if sorted(perm) != list(range(n)):
            return False
        return all(self.table[perm[a]][perm[b]] == perm[self.table[a][b]]
                   for a in range(n) for b in range(n))


def twisted_conjugacy_classes(group: FiniteGroup, perm, n: int) -> list[frozenset]:
    """Orbits of g -> h g perm^n(h^-1) over all h, as frozensets of indices;
    at n = 0 (perm unused) the conjugacy classes."""
    sigma_n = range(group.order)
    for _ in range(n):
        sigma_n = [perm[x] for x in sigma_n]
    seen, classes = set(), []
    for g in range(group.order):
        if g in seen:
            continue
        orbit = frozenset(group.mul(group.mul(h, g), sigma_n[group.inv[h]])
                          for h in range(group.order))
        classes.append(orbit)
        seen |= orbit
    return classes


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], name=f"C{n}")


# ---------------------------------------------------------------------------


class CoeffRing:
    """Common interface of the coefficient rings, and their value arithmetic:
    clear the values, compute on the integer vectors, and `rebuild`."""

    kind: str = "?"
    name: str = "?"
    contains_rationals: bool = False

    def __init__(self):
        self.automorphisms: dict[str, RingAutomorphism] = {
            "id": RingAutomorphism(self, "id", ("id",), lambda vec: vec)}

    # -- registry ----------------------------------------------------------
    def automorphism(self, name: str) -> RingAutomorphism:
        try:
            return self.automorphisms[name]
        except KeyError:
            raise LiteralSyntaxError(
                f"ring {self.name} has no automorphism named {quoted(name)}") from None

    def _register_pair(self, name, data, act, factor, inv_data, inv_act, inv_factor):
        """Register `name` and its inverse `name^-1`, neither yet taken, from their actions."""
        if name == "id":
            # every layer reads a twist named "id" as the identity
            raise ValueError("'id' names the identity automorphism")
        for taken in (name, name + "^-1"):
            if taken in self.automorphisms:
                raise ValueError(f"automorphism {quoted(taken)} is already registered")
        fwd = RingAutomorphism(self, name, data, act, factor)
        bwd = RingAutomorphism(self, name + "^-1", inv_data, inv_act, inv_factor)
        fwd.inverse, bwd.inverse = bwd, fwd
        self.automorphisms[fwd.name] = fwd
        self.automorphisms[bwd.name] = bwd
        return fwd

    def twists(self) -> tuple:
        """(name, data) of each registered forward automorphism, by name."""
        return tuple((name, auto.data) for name, auto in sorted(self.automorphisms.items())
                     if auto.inverse.name == name + "^-1")

    # -- arithmetic on values, through the view ------------------------------
    def add(self, a, b):
        (x, y), den = self.clear((a, b))
        return self.rebuild(self.add_vectors(x, y), den)

    def neg(self, a):
        return self.scalar_mul(-1, a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        (x, y), den = self.clear((a, b))
        return self.rebuild(self.dot((x,), (y,)), den * den)

    def scalar_mul(self, q: Fraction, a):
        """q * a; a ring without Q refuses a non-integral q."""
        q = Fraction(q)
        if not q:
            return self.zero
        if q.denominator != 1 and not self.contains_rationals:
            raise NeedsRationalCoefficients(f"cannot scale by {q} over {self.name}")
        (vec,), den = self.clear((a,))
        return self.rebuild(self.scale_vector(vec, q.numerator), den * q.denominator)

    def is_zero(self, a) -> bool:
        return a == self.zero

    def is_one(self, a) -> bool:
        return a == self.one

    _non_unit = "non-unit of {}"

    def is_unit(self, a) -> bool:
        return self.mat_is_invertible(((a,),))

    def invert(self, a):
        """One elimination through mat_invert; NotAUnit worded by `_non_unit`."""
        try:
            return self.mat_invert(((a,),))[0][0]
        except NotAUnit:
            raise NotAUnit(self._non_unit.format(self.name)) from None

    def trace(self, a) -> dict:
        """label -> nonzero Fraction: a's cleared vector through
        `trace_vector`, each sum over the denominator."""
        (vec,), den = self.clear((a,))
        return {label: Fraction(t, den) for label, t in self.trace_vector(vec).items()}

    def trace_vector(self, vec) -> dict:
        """label -> nonzero integer, sorted by label: the trace of a vector
        from clear or dot (over that vector's denominator)."""
        raise NeedsTrace(f"ring {self.name} has no trace")

    # -- the Z-linear view (overridden; the defaults are an integer's) ---------
    def clear(self, values) -> tuple[list, int]:
        """(vecs, den): integer vectors with values[i] = vecs[i] / den, over
        one shared denominator den."""
        raise NotImplementedError

    def dot(self, lefts, rights):
        """The integer vector of sum_i lefts[i] * rights[i], for vectors from
        clear; it stands over the product of the two sides' denominators."""
        raise NotImplementedError

    def rebuild(self, vec, den: int):
        """The value vec / den, for a vector from dot or from clear (or an
        automorphism's action on one): both have one form."""
        raise NotImplementedError

    nonzero = bool  # whether a canonical vector is not 0

    # where the view is one integer (Q, Z/m): the modulus that reduces a sum
    # of products, 0 where none does; None where a vector is more than one
    # integer. The series layer holds dense series over such a view as
    # length blocks (`series._LengthBlocks`) and reads the constant of a
    # series over it as a scalar to invert (`series.inverse_entries`)
    view_modulus = None

    def scale_vector(self, vec, s: int):
        """s * vec, for an integer s != 0."""
        return vec * s

    def add_vectors(self, x, y):
        return x + y

    def content(self, vec) -> int:
        """The gcd of the vector's entries."""
        return vec

    def divide_vector(self, vec, g: int):
        """vec / g, for g dividing every entry."""
        return vec // g

    def invert_vectors(self, vecs, den: int, n: int):
        """(vecs, den) of the inverse of the n x n matrix vecs / den (row-major)."""
        raise NotImplementedError

    # -- matrices over the ring (lists of lists of elements) ----------------
    def emat_identity(self, n: int):
        return tuple(tuple(self.one if i == j else self.zero for j in range(n))
                     for i in range(n))

    def emat_mul(self, a, b):
        """Each entry is one integer dot product of a row of a and a column of b."""
        n = len(b)
        va, da = self.clear([x for row in a for x in row])
        vb, db = self.clear([y for col in zip(*b) for y in col])
        den = da * db
        return tuple(tuple(self.rebuild(self.dot(va[i:i + n], vb[j:j + n]), den)
                           for j in range(0, len(vb), n))
                     for i in range(0, len(va), n))

    def mat_is_invertible(self, rows) -> bool:
        """Whether `invert_vectors` inverts the matrix: the elimination that
        inverts is the one test."""
        try:
            self.invert_vectors(*self.clear([x for row in rows for x in row]), len(rows))
        except NotAUnit:
            return False
        return True

    def mat_invert(self, rows):
        n = len(rows)
        vecs, den = self.invert_vectors(*self.clear([x for row in rows for x in row]), n)
        return tuple(tuple(self.rebuild(v, den) for v in vecs[i:i + n])
                     for i in range(0, n * n, n))

    # -- sampling ------------------------------------------------------------
    def random_element(self, rng):
        raise NotImplementedError

    def random_unit(self, rng):
        while True:
            a = self.random_element(rng)
            if self.is_unit(a):
                return a

    def random_central(self, rng):
        return self.scalar_mul(Fraction(rng.randint(-4, 4)), self.one)

    # -- literals ----------------------------------------------------------------
    def element_to_literal(self, a) -> str:
        raise NotImplementedError

    def parse_element_literal(self, text: str):
        raise NotImplementedError

    def signature(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, CoeffRing) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return self.name


class _RepresentedRing(CoeffRing):
    """A ring with a faithful representation over Q: `_rep(vec)` is the d x d
    integer matrix (d = `_dim`) of a vector, and `_unrep(big, r, c)` reads a
    vector back from the d x d block of the integer matrix `big` at rows r..,
    columns c... A matrix M = N/d is inverted by one fraction-free elimination
    of N's block image, M^-1 = d adj(N)/det(N), of which only the read-back
    entries are kept; it is refused (NotAUnit) when det(N) = 0."""

    def _image(self, vecs, n: int) -> list:
        """The integer block image of the n x n matrix of vectors vecs."""
        big = []
        for i in range(0, n * n, n):
            reps = [self._rep(v) for v in vecs[i:i + n]]
            big.extend([x for rep in reps for x in rep[r]] for r in range(self._dim))
        return big

    def invert_vectors(self, vecs, den, n):
        det, adj = fraction_free(self._image(vecs, n))
        if not det:
            raise NotAUnit(f"singular matrix over {self.name}")
        d, s = self._dim, den if det > 0 else -den
        return [self.scale_vector(self._unrep(adj, i * d, j * d), s)
                for i in range(n) for j in range(n)], abs(det)


class RationalField(_RepresentedRing):
    """Q with Fraction elements, represented over Q by 1 x 1 matrices (d = 1)."""

    kind = "rational"
    contains_rationals = True

    def __init__(self):
        super().__init__()
        self.name = "Q"
        self.zero = Fraction(0)
        self.one = Fraction(1)

    add, mul, invert = CoeffRing.add, CoeffRing.mul, CoeffRing.invert
    view_modulus = 0

    def trace_vector(self, vec):
        return {"1": vec} if vec else {}

    def clear(self, values):
        den = math.lcm(*[c.denominator for c in values])
        return [c.numerator * (den // c.denominator) for c in values], den

    def dot(self, lefts, rights):
        return sum(map(operator.mul, lefts, rights))

    def rebuild(self, vec, den):
        return Fraction(vec, den)

    _dim = 1

    def _rep(self, vec):
        return ((vec,),)

    def _unrep(self, big, r0, c0):
        return big[r0][c0]

    def random_element(self, rng):
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    def element_to_literal(self, a):
        return frac_str(a)

    def parse_element_literal(self, text):
        return frac_from_str(text)

    def signature(self):
        return ("rationals",)


class IntegersMod(CoeffRing):
    """Z/m with int elements in [0, m). It has no rational-valued trace."""

    kind = "int_mod"

    def __init__(self, modulus: int):
        super().__init__()
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = self.view_modulus = modulus
        self.name = f"Z/{modulus}"
        self.zero = 0
        self.one = 1 % modulus

    add, mul, invert = CoeffRing.add, CoeffRing.mul, CoeffRing.invert

    def clear(self, values):
        return [a % self.modulus for a in values], 1

    def dot(self, lefts, rights):
        return sum(map(operator.mul, lefts, rights)) % self.modulus

    def rebuild(self, vec, den):
        return vec

    def scale_vector(self, vec, s):
        return vec * s % self.modulus

    def add_vectors(self, x, y):
        return (x + y) % self.modulus

    def invert_vectors(self, vecs, den, n):
        det, adj = fraction_free([vecs[i:i + n] for i in range(0, n * n, n)])
        m = self.modulus
        if math.gcd(det, m) != 1:
            raise NotAUnit(f"matrix determinant {det % m} is not a unit of {self.name}")
        dinv = pow(det, -1, m)
        return [x * dinv % m for row in adj for x in row], 1

    def random_element(self, rng):
        return rng.randrange(self.modulus)

    def element_to_literal(self, a):
        return str(a % self.modulus)

    def parse_element_literal(self, text):
        return _read_numeral(r"-?[0-9]+", int, "Z/m", text) % self.modulus

    def signature(self):
        return ("zmod", self.modulus)


class RationalMatrixRing(_RepresentedRing):
    """M_k(Q): k x k matrices of Fractions, stored as nested tuples, and
    represented over Q by themselves (d = k).

    Automorphisms: inner (conjugation by an invertible matrix), registered by
    name together with the inverse conjugation.
    """

    kind = "matrix"
    contains_rationals = True

    def __init__(self, size: int):
        super().__init__()
        if size < 1:
            raise ValueError("matrix size must be >= 1")
        self.size = self._dim = size
        self._dot_tables: dict[int, tuple] = {}  # pair count -> `_dot_table`
        self.name = f"M{size}(Q)"
        self.zero = tuple(tuple(Fraction(0) for _ in range(size)) for _ in range(size))
        self.one = tuple(tuple(Fraction(int(i == j)) for j in range(size)) for i in range(size))

    def register_conjugation(self, name: str, matrix) -> RingAutomorphism:
        p = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        if len(p) != self.size or any(len(row) != self.size for row in p):
            raise ValueError(f"conjugating matrix must be {self.size}x{self.size}")
        try:
            pinv = self.invert(p)
        except NotAUnit:
            raise ValueError("conjugating matrix must be invertible") from None
        return self._register_pair(name, ("conj", _mat_key(p)), *self._conjugation(p),
                                   ("conj", _mat_key(pinv)), *self._conjugation(pinv))

    def _conjugation(self, p) -> tuple:
        """(act, factor) of a -> p a p^-1 on the view. With N = d p integral,
        p a p^-1 = N a adj(N) / det N, and factor is |det N| (the sign of
        det N goes into the table). act reads one flat k*k x k*k integer
        table, row-major, whose row e holds the coefficients of a's entries
        in entry e of the image: the table times a's entries repeated k*k
        times is one `map`, and each entry of the image sums one run of k*k
        of its products."""
        k = self.size
        kk = k * k
        n = self._rep(self.clear((p,))[0][0])
        det, adj = fraction_free(n)
        sign = 1 if det > 0 else -1
        table = [sign * n[r][i] * adj[j][c]
                 for r in range(k) for c in range(k) for i in range(k) for j in range(k)]

        def act(vec):
            return list(map(sum, zip(*[map(operator.mul, table, vec * kk)] * kk)))
        return act, abs(det)

    add, mul, invert = CoeffRing.add, CoeffRing.mul, CoeffRing.invert

    def clear(self, values):
        """Each matrix as its k*k entries, row by row."""
        den = math.lcm(*[x.denominator for a in values for row in a for x in row])
        return [[x.numerator * (den // x.denominator) for row in a for x in row]
                for a in values], den

    def dot(self, lefts, rights):
        """Entry (r, c) is the sum over the n pairs of row r of the left times
        column c of the right. The pairs' entries are laid side by side in one
        flat list per side, read through the two index tables of n
        (`_dot_table`, built on first use and kept on the ring), multiplied by
        one `map`, and each entry sums one run of n*k of the products. More
        than _DOT_PAIRS pairs are read in runs of that many, each one `dot`."""
        n = len(lefts)
        if n > _DOT_PAIRS:
            return list(map(sum, zip(*[self.dot(lefts[i:i + _DOT_PAIRS], rights[i:i + _DOT_PAIRS])
                                       for i in range(0, n, _DOT_PAIRS)])))
        tables = self._dot_tables.get(n)
        if tables is None:
            tables = self._dot_tables[n] = self._dot_table(n)
        left, right = tables
        if n == 1:
            xs, ys = lefts[0], rights[0]
        else:
            xs, ys = [x for a in lefts for x in a], [y for b in rights for y in b]
        return list(map(sum, zip(*[map(operator.mul, left(xs), right(ys))] * (n * self.size))))

    def _dot_table(self, n: int) -> tuple:
        """(left, right): getters of the flat lists of n pairs (`dot`) that
        give, entry (r, c) after entry, for each pair i and each j < k, pair
        i's left entry (r, j) and right entry (j, c). Over k = 1 the tables
        are the identity, and both getters are `tuple`: an
        operator.itemgetter of one index would return the bare item."""
        k = self.size
        if k == 1:
            return tuple, tuple
        kk = k * k
        pairs = range(0, n * kk, kk)
        left = [i + r + j for r in range(0, kk, k) for _ in range(k) for i in pairs
                for j in range(k)]
        right = [i + j * k + c for _ in range(k) for c in range(k) for i in pairs
                 for j in range(k)]
        return operator.itemgetter(*left), operator.itemgetter(*right)

    def rebuild(self, vec, den):
        k = self.size
        return tuple(tuple(Fraction(x, den) for x in vec[r:r + k]) for r in range(0, k * k, k))

    def scale_vector(self, vec, s):
        return [x * s for x in vec]

    nonzero = any

    def add_vectors(self, x, y):
        return list(map(operator.add, x, y))

    def content(self, vec):
        return math.gcd(*vec)

    def divide_vector(self, vec, g):
        return [x // g for x in vec]

    def _rep(self, vec):
        k = self.size
        return [vec[r:r + k] for r in range(0, k * k, k)]

    def _unrep(self, big, r0, c0):
        k = self.size
        return [big[r0 + r][c0 + c] for r in range(k) for c in range(k)]

    def trace_vector(self, vec):
        t = sum(vec[::self.size + 1])  # the diagonal entries
        return {"tr": t} if t else {}

    def random_element(self, rng):
        return tuple(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                           for _ in range(self.size)) for _ in range(self.size))

    def element_to_literal(self, a):
        return ";".join(",".join(map(frac_str, row)) for row in a)

    def parse_element_literal(self, text):
        rows = [part.split(",") for part in text.split(";")]
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise LiteralSyntaxError(
                f"matrix literal must have {self.size} rows of {self.size} entries")
        return tuple(tuple(frac_from_str(x) for x in row) for row in rows)

    def signature(self):
        return ("matrix", self.size, self.twists())


# the most pairs that RationalMatrixRing.dot reads through one pair of index
# tables, so that a ring keeps at most this many pairs of tables, whatever the
# order of its series
_DOT_PAIRS = 32


def _mat_key(rows) -> tuple:
    return tuple(tuple(map(frac_str, row)) for row in rows)


class _BasisAlgebra(CoeffRing):
    """A Q-algebra with a named basis: an element is a tuple of (basis key,
    nonzero Fraction) pairs with distinct keys, sorted by `_sort_key` (a sort
    key on the pairs; None sorts them by basis key). Its view is its (basis
    key, integer) pairs, and `dot` gives pairs with distinct keys too. A
    subclass supplies the key of 1 (`one`), `_keys()` (the basis),
    `_key_name`/`_parse_key` (a key's literal name and back) and
    `_trace_label` (the trace bucket of a key); automorphisms are
    permutations acting on keys."""

    contains_rationals = True
    _sort_key = None

    def __init__(self):
        super().__init__()
        self.zero = ()

    def _merge(self, pairs) -> list:  # summed by key, zeros dropped, sorted
        return sorted(sum_by_key(pairs).items(), key=self._sort_key)

    def _canon(self, pairs) -> tuple:
        return tuple(self._merge(pairs))

    def _register_permutation(self, name, perm, tag, move) -> RingAutomorphism:
        """Register perm (and its inverse) relabelling the keys of a cleared
        vector by move(perm, key), with factor 1."""
        inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        def act(p):
            return lambda vec: sorted([(move(p, k), c) for k, c in vec], key=self._sort_key)
        return self._register_pair(name, (tag, perm), act(perm), 1, (tag, inv), act(inv), 1)

    def rebuild(self, vec, den):
        return tuple((k, Fraction(c, den)) for k, c in vec)

    def scale_vector(self, vec, s):
        return [(k, c * s) for k, c in vec]

    def add_vectors(self, x, y):
        return self._merge(x + y)

    def content(self, vec):
        return math.gcd(*[c for _, c in vec])

    def divide_vector(self, vec, g):
        return [(k, c // g) for k, c in vec]

    def clear(self, values):
        """Each element as its (basis key, integer) pairs, in canonical form
        (sorted, keys distinct, no zero) however its pairs were given."""
        den = math.lcm(*[c.denominator for a in values for _, c in a])
        return [self._merge((k, c.numerator * (den // c.denominator)) for k, c in a)
                for a in values], den

    def trace_vector(self, vec):
        return dict(sorted(sum_by_key((self._trace_label(k), c) for k, c in vec).items()))

    def random_element(self, rng):
        keys = self._keys()
        picks = rng.sample(keys, k=min(len(keys), rng.randint(1, 3)))
        return self._canon((k, Fraction(rng.randint(-3, 3))) for k in picks)

    def random_unit(self, rng):
        while True:
            a = self.add(self.scalar_mul(Fraction(rng.randint(1, 4)), self.one),
                         self.random_element(rng))
            if self.is_unit(a):
                return a

    def element_to_literal(self, a):
        return rational_sum_literal((self._key_name(k), c) for k, c in a)

    def parse_element_literal(self, text):
        """A signed sum (`signed_terms`) of terms q times at most one basis name."""
        pairs = []
        for q, factors in signed_terms(text):
            if [kind for kind, _ in factors] not in ([], ["name"]):
                raise LiteralSyntaxError(
                    f"a term of a {self.name} literal is q or q*name: {quoted(text)}")
            pairs.append((self._parse_key(factors[0][1]) if factors else self.one[0][0], q))
        return self._canon(pairs)


class GroupAlgebra(_BasisAlgebra, _RepresentedRing):
    """Q[G] for a finite group G given by its multiplication table.

    Elements: sorted tuples of (element index, nonzero Fraction). Units and
    inverses come from the left regular representation (d = |G|), read back
    from the column of the identity. The trace is the full conjugacy-class
    vector; the identity-class component is the classical trace functional.
    Automorphisms are induced by group automorphisms (permutations preserving
    the table).
    """

    kind = "group_algebra"

    def __init__(self, group: FiniteGroup):
        super().__init__()
        self.group = group
        self._dim = group.order
        self.name = f"Q[{group.name}]"
        self.one = ((group.identity, Fraction(1)),)
        self._index = {name: g for g, name in enumerate(group.names)}
        self._classes = group.conjugacy_classes()
        self._class_label = {}
        for cls in self._classes:
            label = group.names[min(cls)]
            for g in cls:
                self._class_label[g] = label

    def register_group_automorphism(self, name: str, perm: Sequence[int]) -> RingAutomorphism:
        perm = tuple(int(x) for x in perm)
        if not self.group.is_automorphism(perm):
            raise ValueError(f"{perm} is not an automorphism of {self.group.name}")
        return self._register_permutation(name, perm, "gperm", lambda p, g: p[g])

    add, mul, invert = CoeffRing.add, CoeffRing.mul, CoeffRing.invert

    def dot(self, lefts, rights):
        """The (element, integer) pairs of the sum, through the group table."""
        table, acc = self.group.table, [0] * self.group.order
        for a, b in zip(lefts, rights):
            for g, x in a:
                row = table[g]
                for h, y in b:
                    acc[row[h]] += x * y
        return [(g, c) for g, c in enumerate(acc) if c]

    def basis_element(self, g: int):
        return ((g % self.group.order, Fraction(1)),)

    def _rep(self, vec):
        """The left regular representation: column j holds a * g_j."""
        n = self.group.order
        mat = [[0] * n for _ in range(n)]
        for g, c in vec:
            for j, gj in enumerate(self.group.table[g]):
                mat[gj][j] = c
        return mat

    def _unrep(self, big, r0, c0):
        """The column of the identity."""
        col = c0 + self.group.identity
        return [(g, big[r0 + g][col]) for g in range(self.group.order) if big[r0 + g][col]]

    def _keys(self):
        return range(self.group.order)

    def _key_name(self, g):
        return self.group.names[g]

    def _parse_key(self, name):
        if name not in self._index:
            raise LiteralSyntaxError(f"no element of {self.group.name} is named {quoted(name)} "
                                     f"(g0 to g{self.group.order - 1})")
        return self._index[name]

    def _trace_label(self, g):
        return self._class_label[g]

    def random_central(self, rng):
        acc = ()
        for cls in self._classes:
            q = Fraction(rng.randint(-2, 2))
            if q:
                acc = self.add(acc, tuple((g, q) for g in sorted(cls)))
        return acc

    def signature(self):
        return ("group_algebra", self.group.table, self.twists())


def least_rotation(word: tuple) -> int:
    """Index r minimizing word[r:]+word[:r]; smallest such r on ties."""
    best, best_r = word, 0
    for r in range(1, len(word)):
        cand = word[r:] + word[:r]
        if cand < best:
            best, best_r = cand, r
    return best_r


class TruncatedFreeAlgebra(_BasisAlgebra):
    """Q<gens> / (words of degree > max_degree).

    Elements: graded-lex sorted tuples of (word, nonzero Fraction) where a
    word is a tuple of generator indices. Units are elements with nonzero
    scalar part. Products multiply the (word, integer) pairs in `dot`. As a
    word -> Fraction map an element is also a series of the untwisted ring
    Q<<gens>> at order max_degree, and only inverses (of elements and of
    matrices) go through it: `series.inverse_entries` reads the scalar part
    of a unit, or a scalar part that is the identity, with no elimination,
    eliminates that of any other matrix once, and solves the degrees in one
    pass, with no product. The
    trace is the projection onto cyclic word classes, labelled by least
    rotation.
    Automorphisms: permutations of the generators.
    """

    kind = "free_trunc"
    _sort_key = staticmethod(lambda pair: (len(pair[0]), pair[0]))

    def __init__(self, generators: Sequence[str], max_degree: int):
        super().__init__()
        gens = tuple(generators)
        if not gens or any(len(g) != 1 for g in gens) or len(set(gens)) != len(gens):
            raise ValueError("generators must be distinct single characters")
        for g in gens:  # each word must read back as one name of a literal
            if getattr(_TOKEN.fullmatch(g), "lastgroup", None) != "name":
                raise ValueError(f"generator {g!r} cannot start a name in a literal")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        self.generators = gens
        self.max_degree = max_degree
        self.name = f"Q<{','.join(gens)}>/deg>{max_degree}"
        self.one = (((), Fraction(1)),)
        self._gen_index = {g: i for i, g in enumerate(gens)}

    @cached_property
    def _series_ring(self):
        """Q<<gens>> at order max_degree, built on first use (series imports rings)."""
        from .series import SeriesRing
        return SeriesRing(RationalField(), self.generators, order=self.max_degree)

    def register_generator_permutation(self, name: str, perm: Sequence[int]) -> RingAutomorphism:
        perm = tuple(int(x) for x in perm)
        if sorted(perm) != list(range(len(self.generators))):
            raise ValueError("bad generator permutation")
        return self._register_permutation(name, perm, "fperm",
                                          lambda p, w: tuple(p[i] for i in w))

    def word(self, text: str) -> tuple:
        try:
            w = tuple(self._gen_index[ch] for ch in text)
        except KeyError as exc:
            raise LiteralSyntaxError(f"unknown generator {exc.args[0]!r}") from None
        if len(w) > self.max_degree:
            raise LiteralSyntaxError(
                f"word {quoted(text)} exceeds max degree {self.max_degree}")
        return w

    def word_str(self, w: tuple) -> str:
        return "".join(self.generators[i] for i in w)

    _parse_key, _key_name = word, word_str

    def _trace_label(self, w):
        r = least_rotation(w)
        return self.word_str(w[r:] + w[:r]) if w else "1"

    add, mul, invert = CoeffRing.add, CoeffRing.mul, CoeffRing.invert

    def dot(self, lefts, rights):
        """The (word, integer) pairs of the sum; words above max_degree drop."""
        top, acc = self.max_degree, {}
        for a, b in zip(lefts, rights):
            for u, x in a:
                room = top - len(u)
                for w, y in b:  # graded-lex, so the first long word ends the row
                    if len(w) > room:
                        break
                    k = u + w
                    acc[k] = acc.get(k, 0) + x * y
        return sorted([(k, c) for k, c in acc.items() if c], key=self._sort_key)

    _non_unit = "zero scalar part: non-unit of {}"

    def invert_vectors(self, vecs, den, n):
        """By `inverse_entries` over Q<<gens>> of the (word, integer) pairs."""
        from .series import TwistedSeries, inverse_entries
        R = self._series_ring
        try:
            out = inverse_entries(R, [TwistedSeries(R, dict(v), den) for v in vecs])
        except NotAUnit:
            raise NotAUnit(f"matrix has singular scalar part over {self.name}") from None
        d = math.lcm(*[e.den for e in out])
        return [self.scale_vector(sorted(e.vecs.items(), key=self._sort_key), d // e.den)
                for e in out], d

    def all_words(self, min_len: int = 0) -> list[tuple]:
        words: list[tuple] = []
        frontier: list[tuple] = [()]
        for _ in range(self.max_degree):
            frontier = [w + (i,) for w in frontier for i in range(len(self.generators))]
            words.extend(frontier)
        return [w for w in ([()] + words) if len(w) >= min_len]

    _keys = all_words

    def random_central(self, rng):
        # scalars plus top-degree words (degree-d words are central: any
        # product with a generator lands above the truncation degree).
        acc = self.scalar_mul(Fraction(rng.randint(-3, 3)), self.one)
        top = [w for w in self.all_words(min_len=self.max_degree)]
        for w in rng.sample(top, k=min(len(top), rng.randint(0, 2))):
            acc = self.add(acc, ((w, Fraction(rng.randint(-2, 2))),))
        return acc

    def signature(self):
        return ("free_trunc", self.generators, self.max_degree, self.twists())


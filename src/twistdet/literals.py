"""Series literal syntax.

Every literal that is a signed sum (a series literal, or an element literal
of `Q[G]` or `Q<gens>/deg>N`) is read by one reader, `rings.signed_terms`,
and written by one rule, `rings.rational_sum_literal` (series over other
rings put a bracketed coefficient before each word). The shared grammar:

- A term is a '*'-separated product of factors. A run of signs may start
  the literal, and each later term follows exactly one '+' or '-'.
- A rational factor is digits, or digits '/' digits (7, 3/2), and may stand
  anywhere in a term; a sign stands only before a term.
- The other factors are `w("xy")`, a word over the series alphabet,
  `[...]`, a coefficient-ring element literal, and a bare name.

A series term takes rationals, bracket factors, which multiply in the order
written, and at most one word factor, after the bracket factors; a name is
refused. A term of a `Q[G]` or `Q<gens>/deg>N` element literal takes
rationals and at most one basis name (`g2`, `yz`). Examples over Q:
`1 - w("x")`; over M2(Q): `[1,0;0,0]*w("x")`; over Q<y,z>:
`[yz-zy]*w("x") + 2`.

Rendering produces the canonical form: terms in graded-lex word order,
unit coefficients dropped, rationals written bare.
"""

from __future__ import annotations

from .errors import LiteralSyntaxError
from .rings import RationalField, quoted, rational_sum_literal, signed_terms
from .series import SeriesRing, TwistedSeries


def parse_series(text: str, ring: SeriesRing) -> TwistedSeries:
    """Parse a series literal in the given ring."""
    A = ring.coeff
    terms = []
    for q, factors in signed_terms(text):
        coeff = word = None
        for kind, val in factors:
            if kind == "name" or word is not None:
                raise LiteralSyntaxError(f"a series term takes rationals, [elements] and at "
                                         f"most one w(\"...\") after them: {quoted(text)}")
            if kind == "elem":
                e = A.parse_element_literal(val)
                coeff = e if coeff is None else A.mul(coeff, e)
            else:
                word = ring.word_from_str(val)
        terms.append((word or (), A.scalar_mul(q, A.one if coeff is None else coeff)))
    return ring.from_terms(terms)


def render_series(s: TwistedSeries) -> str:
    """Canonical literal for a series: graded-lex terms joined by '+'."""
    ring = s.ring
    A = ring.coeff
    terms = [(f'w("{ring.word_to_str(w)}")' if w else "", s.terms[w]) for w in s.support()]
    if isinstance(A, RationalField):
        return rational_sum_literal(terms)
    # a bracketed coefficient and the word, either left out when it is 1;
    # no term starts with "-", so none needs the rational "+-" rule
    parts = []
    for word, c in terms:
        coeff = "" if A.is_one(c) else f"[{A.element_to_literal(c)}]"
        parts.append("*".join(filter(None, (coeff, word))) or "1")
    return "+".join(parts) or "0"

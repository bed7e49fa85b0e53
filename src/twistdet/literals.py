"""Series literal syntax.

A series literal is a sum of terms joined by '+' and '-'. Each term is a
'*'-separated product of factors:

    rational        3/2, -1, 7
    [element]       a coefficient-ring element literal in brackets
    w("xy")         a word over the series alphabet

Rational factors may appear anywhere in a term; bracket factors multiply in
the order written and must precede the word factor; at most one word factor
per term. Examples over Q: `1 - w("x")`; over M2(Q): `[1,0;0,0]*w("x")`;
over Q<y,z>: `[yz-zy]*w("x") + 2`.

Rendering produces the canonical form: terms in graded-lex word order,
unit coefficients dropped, rationals written bare.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import LiteralSyntaxError
from .rings import RationalField, frac_from_str, quoted, rational_sum_literal
from .series import SeriesRing, TwistedSeries

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<word>w\(\s*"(?P<wbody>[^"]*)"\s*\))
  | (?P<elem>\[(?P<ebody>[^\]]*)\])
  | (?P<rat>\d+(?:/\d+)?)
  | (?P<op>[+\-*])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise LiteralSyntaxError(f"bad character {text[pos]!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        if m.group("word") is not None:
            tokens.append(("word", m.group("wbody")))
        elif m.group("elem") is not None:
            tokens.append(("elem", m.group("ebody")))
        elif m.group("rat") is not None:
            tokens.append(("rat", m.group("rat")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_series(text: str, ring: SeriesRing) -> TwistedSeries:
    """Parse a series literal in the given ring."""
    tokens = _tokenize(text)
    if not tokens:
        raise LiteralSyntaxError("empty series literal")
    A = ring.coeff
    terms = []

    # split into sign-prefixed terms on top-level +/-
    idx = 0
    n = len(tokens)
    while idx < n:
        sign = 1
        while idx < n and tokens[idx][0] == "op" and tokens[idx][1] in "+-":
            if tokens[idx][1] == "-":
                sign = -sign
            idx += 1
        factors = []
        expect_factor = True
        while idx < n:
            kind, val = tokens[idx]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise LiteralSyntaxError("misplaced '*'")
                expect_factor = True
                idx += 1
                continue
            if not expect_factor:
                raise LiteralSyntaxError(f"missing '*' before {quoted(val)}")
            factors.append((kind, val))
            expect_factor = False
            idx += 1
        if expect_factor or not factors:
            raise LiteralSyntaxError("empty term in series literal")

        q = Fraction(sign)
        coeff = None
        word = None
        for kind, val in factors:
            if kind == "rat":
                q *= frac_from_str(val)
            elif kind == "elem":
                if word is not None:
                    raise LiteralSyntaxError(
                        "coefficient factors must precede the word factor")
                e = A.parse_element_literal(val)
                coeff = e if coeff is None else A.mul(coeff, e)
            else:
                if word is not None:
                    raise LiteralSyntaxError("at most one word factor per term")
                word = ring.word_from_str(val)
        if coeff is None:
            coeff = A.one
        coeff = A.scalar_mul(q, coeff)
        terms.append((word if word is not None else (), coeff))
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

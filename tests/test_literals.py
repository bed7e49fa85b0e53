from fractions import Fraction as F

import pytest

from twistdet import LiteralSyntaxError, SeriesRing, parse_series, render_series

from conftest import assert_folded, one_letter, two_letter


def test_parse_rational_series(qq):
    R = SeriesRing(qq, order=3)
    s = parse_series('1 - w("x") + 1/2*w("xx")', R)
    assert s.coefficient(()) == F(1)
    assert s.coefficient("x") == F(-1)
    assert s.coefficient("xx") == F(1, 2)


def test_parse_bracket_coefficients(free_yz):
    R = one_letter(free_yz, 2)
    s = parse_series('[yz-zy]*w("x") + 2', R)
    assert s.coefficient("x") == free_yz.parse_element_literal("yz-zy")
    assert s.coefficient(()) == free_yz.parse_element_literal("2")


def test_parse_factor_products(m2):
    R = one_letter(m2, 2)
    # bracket factors multiply in written order, rationals scale anywhere
    s = parse_series('2*[0,1;0,0]*[0,0;1,0]*w("x")', R)
    e = m2.parse_element_literal("0,1;0,0")
    f = m2.parse_element_literal("0,0;1,0")
    assert s.coefficient("x") == m2.scalar_mul(F(2), m2.mul(e, f))


def test_render_frozen_strings(qq, free_yz):
    R = SeriesRing(qq, order=3)
    x = R.letter("x")
    assert render_series(R.one() - x) == '1-w("x")'
    assert render_series(R.zero()) == "0"
    assert render_series(R.one().scale(F(-3, 2))) == "-3/2"
    Rf = one_letter(free_yz, 2)
    u = Rf.one() + Rf.from_terms([("x", free_yz.parse_element_literal("yz-zy"))])
    assert render_series(u) == '1+[yz-zy]*w("x")'


def test_render_orders_terms_graded_lex(qq):
    R = SeriesRing(qq, alphabet=("x", "y"), order=2)
    s = R.from_terms([("yx", F(1)), ("y", F(1)), ("xy", F(1)), ((), F(1))])
    assert render_series(s) == '1+w("y")+w("xy")+w("yx")'


def test_roundtrip_random(qq, m2, qc4, free_yz):
    rings = [two_letter(qq, 3), one_letter(m2, 3, twist="swap"), one_letter(qc4, 2),
             one_letter(free_yz, 3)]
    assert_folded("parse-render-roundtrip", rings, 10)


def test_parse_errors(qq):
    R = SeriesRing(qq, order=3)
    for text in ('w("q")', "1+", "&", 'w("x")*w("x")', "1**2", '1+-w("x")'):
        with pytest.raises(LiteralSyntaxError):
            parse_series(text, R)
    # brackets are element literals, legal over Q too
    assert parse_series("[1]", R).is_one()


def test_word_too_long_is_dropped(qq):
    R = SeriesRing(qq, order=2)
    assert parse_series('w("xxx")', R).is_zero()

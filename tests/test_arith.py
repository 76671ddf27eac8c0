"""Exact-arithmetic layer: quadratic numbers, dense polynomials, separability."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from superelliptic.arith import Poly, QuadNum, is_separable
from superelliptic.family import EquationTemplate, ParamCoeff, Term


def test_quadnum_normalisation() -> None:
    assert QuadNum(2, 0) == QuadNum(2) == 2 == Fraction(2)
    assert QuadNum(2, 0).is_rational and not QuadNum(0, 1).is_rational
    assert QuadNum(1, 1) != QuadNum(1) and QuadNum(1, 1) != QuadNum(0, 1)
    assert repr(QuadNum(1, Fraction(-1, 2))) == "QuadNum(Fraction(1, 1), Fraction(-1, 2))"
    with pytest.raises(AttributeError):
        QuadNum(1).a = Fraction(2)
    with pytest.raises(AttributeError):
        QuadNum(1).d = -3


def test_quadnum_basic_arithmetic() -> None:
    x = QuadNum(1, 2)
    y = QuadNum(Fraction(1, 2), -1)
    assert x + y == QuadNum(Fraction(3, 2), 1)
    assert x - y == QuadNum(Fraction(1, 2), 3)
    # (1 + 2r)(1/2 - r) with r^2 = -3: 1/2 - r + r - 2r^2 = 1/2 + 6
    assert x * y == QuadNum(Fraction(13, 2), 0)
    assert (x * y).is_rational
    assert x * x.inverse() == QuadNum(1)
    assert 1 / x == x.inverse()
    assert 2 + x == QuadNum(3, 2)
    assert 2 - x == QuadNum(1, -2)
    with pytest.raises(ZeroDivisionError):
        QuadNum(0).inverse()


_R = sp.sqrt(-3)
_RATIONAL = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-50, max_value=50, max_denominator=12))


def _sympy(q: QuadNum) -> sp.Expr:
    return sp.Rational(q.a.numerator, q.a.denominator) \
        + sp.Rational(q.b.numerator, q.b.denominator) * _R


@given(_RATIONAL, _RATIONAL, _RATIONAL, _RATIONAL)
def test_quadnum_against_sympy(a, b, c, d) -> None:
    x, y = QuadNum(a, b), QuadNum(c, d)
    sx, sy = _sympy(x), _sympy(y)
    pairs = [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy)]
    if y:
        pairs += [(x / y, sx / sy), (y.inverse(), 1 / sy)]
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for ours, theirs in pairs:
        assert sp.expand(sp.radsimp(_sympy(ours) - theirs)) == 0
    assert hash(QuadNum(a)) == hash(a) and QuadNum(a) == a


def test_quadnum_str() -> None:
    assert str(QuadNum(2)) == "2"
    assert str(QuadNum(Fraction(-1, 3))) == "-1/3"
    assert str(QuadNum(0, 2)) == "2*sqrt(-3)"
    assert str(QuadNum(1, 1)) == "1+sqrt(-3)"
    assert str(QuadNum(1, -1)) == "1-sqrt(-3)"
    assert str(QuadNum(0, Fraction(-1, 2))) == "-1/2*sqrt(-3)"


def test_poly_dense_construction() -> None:
    p = Poly([-3, 0, Fraction(3), 0, QuadNum(0)])     # 3x^2 - 3, trailing zeros trimmed
    assert p.coeffs == (QuadNum(-3), QuadNum(0), QuadNum(3))
    assert p == Poly((QuadNum(-3), 0, 3)) and p.degree == 2
    assert Poly(()).is_zero and Poly([0, 0]) == Poly(())
    with pytest.raises(ValueError):
        _ = Poly(()).degree
    with pytest.raises(TypeError):                       # it would read the exponents
        Poly({2: 1, 0: -1})


def test_instantiate_product_against_sympy() -> None:
    # (x^2 - 1)(x + 1), then (x^2 + a_1)(x^3 + sqrt(-3)x)(x + 1) at a_1 = 5
    one = QuadNum(1)
    plain = EquationTemplate(((Term(2, one), Term(0, QuadNum(-1))), (Term(1, one), Term(0, one))))
    assert plain.instantiate({}) == Poly([-1, -1, 1, 1])
    mixed = EquationTemplate(((Term(2, one), Term(0, ParamCoeff(1))),
                              (Term(3, one), Term(1, QuadNum(0, 1))),
                              (Term(1, one), Term(0, one))))
    x = sp.Symbol("x")
    expected = sp.expand((x**2 + 5) * (x**3 + _R * x) * (x + 1))
    assert sp.expand(_to_sympy(mixed.instantiate({1: 5}), x) - expected) == 0


def _to_sympy(p: Poly, x: sp.Symbol) -> sp.Expr:
    return sum((_sympy(c) * x**e for e, c in enumerate(p.coeffs)), sp.Integer(0))


@pytest.mark.parametrize("coeffs,expected", [
    ([1, 2, 1], False),                           # (x+1)^2
    ([-1, 0, 1], True),                           # x^2 - 1
    ([1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1], True),
    ([1, 0, 0, 0, 14, 0, 0, 0, 1], True),
    ([0, 0, 0, 1], False),                        # x^3
    ([7], True),
])
def test_separability(coeffs: list, expected: bool) -> None:
    p = Poly(coeffs)
    assert is_separable(p) is expected
    # cross-check with the discriminant where sympy applies
    if p.degree >= 1:
        x = sp.Symbol("x")
        assert (sp.discriminant(_to_sympy(p, x), x) != 0) is expected


def test_separability_with_radical_coefficients() -> None:
    # x^4 + 2 sqrt(-3) x^2 + 1 has distinct roots
    p = Poly([1, 0, QuadNum(0, 2), 0, 1])
    assert is_separable(p)
    # (x^2 + sqrt(-3))^2 = x^4 + 2 sqrt(-3) x^2 - 3 does not
    assert not is_separable(Poly([-3, 0, QuadNum(0, 2), 0, 1]))


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_SMALL_FACTOR = (st.lists(st.builds(QuadNum, _SMALL, st.one_of(st.just(Fraction(0)), _SMALL)),
                          min_size=1, max_size=4)
                 .filter(any).map(lambda cs: tuple(Term(e, c) for e, c in enumerate(cs))))


@settings(max_examples=50, deadline=None)
@given(_SMALL_FACTOR, _SMALL_FACTOR, st.booleans())
def test_separability_against_sympy_over_q_sqrt_minus_3(g, h, square) -> None:
    f = EquationTemplate((g, h, h) if square else (g, h)).instantiate({})
    x = sp.Symbol("x")
    big_f = sp.Poly(_to_sympy(f, x), x, extension=_R)
    assert is_separable(f) is (sp.gcd(big_f, big_f.diff(x)).degree() == 0)

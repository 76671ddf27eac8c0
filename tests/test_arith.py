"""Exact-arithmetic layer: quadratic numbers, dense polynomials, separability."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from superelliptic.arith import Poly, QuadNum, Rational, is_separable
from superelliptic.family import EquationTemplate, ParamCoeff, Term


def test_quadnum_normalisation() -> None:
    assert QuadNum(2, 0) == QuadNum(2) == 2 == Fraction(2)
    assert QuadNum(2, 0).b == 0 and QuadNum(0, 1).b != 0
    assert QuadNum(1, 1) != QuadNum(1) and QuadNum(1, 1) != QuadNum(0, 1)
    assert repr(QuadNum(1, Fraction(-1, 2))) == "QuadNum(Rational(1, 1), Rational(-1, 2))"
    with pytest.raises(AttributeError):
        QuadNum(1).a = Fraction(2)
    with pytest.raises(AttributeError):
        QuadNum(1).d = -3


_R = sp.sqrt(-3)


def _sympy(q: QuadNum) -> sp.Expr:
    return sp.Rational(q.a.numerator, q.a.denominator) \
        + sp.Rational(q.b.numerator, q.b.denominator) * _R


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
    assert plain.instantiate() == Poly([-1, -1, 1, 1])
    mixed = EquationTemplate(((Term(2, one), Term(0, ParamCoeff(1))),
                              (Term(3, one), Term(1, QuadNum(0, 1))),
                              (Term(1, one), Term(0, one))))
    x = sp.Symbol("x")
    expected = sp.expand((x**2 + 5) * (x**3 + _R * x) * (x + 1))
    assert sp.expand(_to_sympy(mixed.instantiate(), x) - expected) == 0


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


# small fractions, and denominators 7 and the certificate prime, whose cleared
# products the exact path multiplies out
_SMALL = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                   st.builds(Fraction, st.integers(-3, 3), st.sampled_from((7, 1_073_741_719))))
_SMALL_FACTOR = (st.lists(st.builds(QuadNum, _SMALL, st.one_of(st.just(Fraction(0)), _SMALL)),
                          min_size=1, max_size=4)
                 .filter(any).map(lambda cs: tuple(Term(e, c) for e, c in enumerate(cs))))


@settings(max_examples=50, deadline=None)
@given(_SMALL_FACTOR, _SMALL_FACTOR, st.booleans())
def test_separability_against_sympy_over_q_sqrt_minus_3(g, h, square) -> None:
    f = EquationTemplate((g, h, h) if square else (g, h)).instantiate()
    x = sp.Symbol("x")
    big_f = sp.Poly(_to_sympy(f, x), x, extension=_R)
    assert is_separable(f) is (sp.gcd(big_f, big_f.diff(x)).degree() == 0)


# -- Rational against fractions.Fraction ------------------------------------------

_INT = st.integers(-10**30, 10**30)
_FRACTION = st.fractions(max_denominator=10**12)
_NUMBER = st.one_of(_INT, _FRACTION,
                  st.sampled_from((0, 1, -1, Fraction(1, 2**61 - 1), Fraction(-3, 2**61 - 1))))


def _outcome(build, *args):
    """(numerator, denominator) of what ``build`` makes, or its error's type and text."""
    try:
        value = build(*args)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)
    return value.numerator, value.denominator


@given(_NUMBER, _NUMBER)
def test_rational_equality_agrees_with_fraction(x, y) -> None:
    # Rational on either side or both; the other operand an int or a Fraction
    for a, b in ((Rational(x), Rational(y)), (Rational(x), y), (x, Rational(y))):
        assert (a == b, a != b) == (x == y, x != y)
    assert hash(QuadNum(x)) == hash(x) and QuadNum(x) == x


@given(_NUMBER)
def test_rational_agrees_with_fraction_on_one_value(x) -> None:
    ours, theirs = Rational(x), Fraction(x)
    assert (ours.numerator, ours.denominator) == (theirs.numerator, theirs.denominator)
    assert hash(ours) == hash(theirs)
    assert str(ours) == str(theirs) and f"{ours}" == f"{theirs}"
    assert bool(ours) is bool(theirs)
    assert ours == theirs and theirs == ours and {theirs: 1}[ours] == 1
    assert Rational(ours) is ours and pickle.loads(pickle.dumps(ours)) == ours


def test_rational_and_quadnum_are_values() -> None:
    # the package computes on integers: neither type has arithmetic or an order
    x, q = Rational(1, 2), QuadNum(1, 2)
    for build in (lambda: x + 1, lambda: 1 - x, lambda: x * x, lambda: x / 2, lambda: -x,
                  lambda: int(x), lambda: x < 1, lambda: x > 1,
                  lambda: q + q, lambda: q - q, lambda: q * q, lambda: q * 3):
        with pytest.raises(TypeError):
            build()
    assert not hasattr(q, "inverse")


_ARGUMENT = st.one_of(
    _INT, _FRACTION, st.booleans(), st.none(), st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="0123456789-+/._eE ٣²", max_size=6))


@given(_ARGUMENT, st.one_of(st.none(), _ARGUMENT))
def test_rational_constructor_agrees_with_fraction(numerator, denominator) -> None:
    args = (numerator,) if denominator is None else (numerator, denominator)
    assert _outcome(Rational, *args) == _outcome(Fraction, *args)


def test_rational_constructor_errors_are_fractions() -> None:
    # verify prints the two-argument TypeError for a row whose genus is a float
    for args in ((3.5, 2), (1, 0.5), ("1", 2), (None, 1), (1, 0), (-4, Fraction(0)),
                 ("1/0",), ("-1/0",), ("x",), ("²",), ("1/²",), ("٣/٤",), (None,), ([1],),
                 (float("nan"),)):
        assert _outcome(Rational, *args) == _outcome(Fraction, *args), args
    assert Rational(Rational(1, 3), Fraction(2, 3)) == Fraction(1, 2)
    assert Rational(Fraction(-6, 4)) == Rational("-3/2") == Rational(-1.5) == Fraction(-3, 2)

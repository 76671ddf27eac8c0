"""Exact-arithmetic layer: quadratic numbers and sparse polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy as sp

from superelliptic.arith import Poly, QuadNum, is_separable, is_square_free, poly_gcd


def test_square_free() -> None:
    assert is_square_free(-3)
    assert is_square_free(1)
    assert is_square_free(30)
    assert not is_square_free(0)
    assert not is_square_free(12)
    assert not is_square_free(-4)


def test_quadnum_normalisation() -> None:
    assert QuadNum(2, 0, -3) == QuadNum(2)
    assert QuadNum(2, 0, -3).d == 1
    # sqrt(1) folds into the rational part
    assert QuadNum(2, 3, 1) == QuadNum(5)
    with pytest.raises(ValueError):
        QuadNum(1, 1, 12)


def test_quadnum_basic_arithmetic() -> None:
    x = QuadNum(1, 2, -3)
    y = QuadNum(Fraction(1, 2), -1, -3)
    assert x + y == QuadNum(Fraction(3, 2), 1, -3)
    assert x - y == QuadNum(Fraction(1, 2), 3, -3)
    # (1 + 2r)(1/2 - r) with r^2 = -3: 1/2 - r + r - 2r^2 = 1/2 + 6
    assert x * y == QuadNum(Fraction(13, 2), 0)
    assert (x * y).is_rational
    assert x * x.inverse() == QuadNum(1)
    assert 1 / x == x.inverse()
    assert 2 + x == QuadNum(3, 2, -3)
    assert 2 - x == QuadNum(1, -2, -3)


def test_quadnum_mixed_radicands_rejected() -> None:
    with pytest.raises(ValueError):
        QuadNum(0, 1, -3) + QuadNum(0, 1, 5)
    # rational operands mix with anything
    assert QuadNum(2) + QuadNum(0, 1, 5) == QuadNum(2, 1, 5)


def test_quadnum_against_sympy() -> None:
    r = sp.sqrt(-3)
    x = QuadNum(Fraction(1, 2), 3, -3)
    y = QuadNum(2, Fraction(-1, 3), -3)
    sx = sp.Rational(1, 2) + 3 * r
    sy = 2 - sp.Rational(1, 3) * r
    for ours, theirs in ((x * y, sx * sy), (x + y, sx + sy),
                         (x - y, sx - sy), (x / y, sx / sy)):
        reconstructed = sp.Rational(str(ours.a)) + sp.Rational(str(ours.b)) * r
        assert sp.simplify(reconstructed - theirs) == 0


def test_quadnum_str() -> None:
    assert str(QuadNum(2)) == "2"
    assert str(QuadNum(Fraction(-1, 3))) == "-1/3"
    assert str(QuadNum(0, 2, -3)) == "2*sqrt(-3)"
    assert str(QuadNum(1, 1, -3)) == "1+sqrt(-3)"
    assert str(QuadNum(1, -1, -3)) == "1-sqrt(-3)"


def test_poly_construction_and_merge() -> None:
    p = Poly([(2, 1), (2, 2), (0, -3), (1, 0)])
    assert p == Poly({2: 3, 0: -3})
    assert p.degree == 2
    assert p.coefficient(1) == QuadNum(0)
    assert Poly(()).is_zero
    with pytest.raises(ValueError):
        Poly({-1: 1})
    with pytest.raises(ValueError):
        _ = Poly(()).degree


def test_poly_ring_operations() -> None:
    p = Poly({2: 1, 0: -1})            # x^2 - 1
    q = Poly({1: 1, 0: 1})             # x + 1
    assert p + q == Poly({2: 1, 1: 1})
    assert p - p == Poly(())
    assert p * q == Poly({3: 1, 2: 1, 1: -1, 0: -1})
    quo, rem = p.divmod(q)
    assert quo == Poly({1: 1, 0: -1})
    assert rem.is_zero
    assert p.derivative() == Poly({1: 2})
    assert Poly({3: 2, 0: 4}).monic() == Poly({3: 1, 0: 2})


def _to_sympy(p: Poly, x: sp.Symbol) -> sp.Expr:
    total = sp.Integer(0)
    for e, c in p.items():
        assert c.is_rational
        total += sp.Rational(str(c.a)) * x**e
    return total


def test_poly_gcd_against_sympy() -> None:
    x = sp.Symbol("x")
    common = Poly({2: 1, 0: -1})
    p = common * Poly({3: 1, 0: 2})
    q = common * Poly({1: 1, 0: 5})
    ours = poly_gcd(p, q)
    theirs = sp.Poly(sp.gcd(_to_sympy(p, x), _to_sympy(q, x)), x).monic().as_expr()
    assert sp.expand(_to_sympy(ours, x) - theirs) == 0


@pytest.mark.parametrize("coeffs,expected", [
    ({2: 1, 1: 2, 0: 1}, False),                 # (x+1)^2
    ({2: 1, 0: -1}, True),                        # x^2 - 1
    ({12: 1, 8: -33, 4: -33, 0: 1}, True),
    ({8: 1, 4: 14, 0: 1}, True),
    ({3: 1}, False),                              # x^3
    ({0: 7}, True),
])
def test_separability(coeffs: dict, expected: bool) -> None:
    p = Poly(coeffs)
    assert is_separable(p) is expected
    # cross-check with the discriminant where sympy applies
    if p.degree >= 1:
        x = sp.Symbol("x")
        assert (sp.discriminant(_to_sympy(p, x), x) != 0) is expected


def test_separability_with_radical_coefficients() -> None:
    # x^4 + 2 sqrt(-3) x^2 + 1 has distinct roots
    p = Poly({4: 1, 2: QuadNum(0, 2, -3), 0: 1})
    assert is_separable(p)
    # (x^2 + sqrt(-3))^2 does not
    q = Poly({2: 1, 0: QuadNum(0, 1, -3)})
    assert not is_separable(q * q)

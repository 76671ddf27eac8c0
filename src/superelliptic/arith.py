"""Exact arithmetic: numbers in Q(sqrt(-3)), dense polynomials, separability.

The classification tables need no field beyond Q(sqrt(-3)): every coefficient
is rational except the 2*sqrt(-3) of the tetrahedral form x^4 + 2*sqrt(-3)x^2 + 1.
A number is a + b*sqrt(-3) with rational a, b.  Everything here is exact --
built on :class:`fractions.Fraction` -- and floating point is never involved.

Conventions:

* A ``QuadNum`` with b == 0 is a rational: it equals and hashes like its
  :class:`~fractions.Fraction`.
* ``Poly`` is an immutable dense tuple of ``QuadNum`` coefficients, lowest
  degree first, with no trailing zero: ``Poly([-1, 0, 1])`` is x^2 - 1.  The
  zero polynomial is the empty tuple and has no degree (``degree`` raises).
* ``is_separable`` and ``is_separable_mod_p`` run the same dense Euclid loop
  on gcd(f, f'): the first over Q(sqrt(-3)), the second on integer residues
  over a prime field F_p, where it backs the fast certificate in :mod:`family`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

RationalLike = Union[int, Fraction]
NumberLike = Union[int, Fraction, "QuadNum"]

__all__ = [
    "QuadNum",
    "Poly",
    "is_separable",
    "is_separable_mod_p",
]


class QuadNum:
    """An exact number a + b*sqrt(-3), a and b rational."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike, b: RationalLike = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadNum is immutable")

    def __reduce__(self):
        # pickle and deepcopy would restore the slots through __setattr__
        return (QuadNum, (self.a, self.b))

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def coerce(value: NumberLike) -> "QuadNum":
        if isinstance(value, QuadNum):
            return value
        return QuadNum(Fraction(value))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: NumberLike) -> "QuadNum":
        o = QuadNum.coerce(other)
        return QuadNum(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.a, -self.b)

    def __sub__(self, other: NumberLike) -> "QuadNum":
        return self + (-QuadNum.coerce(other))

    def __rsub__(self, other: NumberLike) -> "QuadNum":
        return QuadNum.coerce(other) + (-self)

    def __mul__(self, other: NumberLike) -> "QuadNum":
        o = QuadNum.coerce(other)
        return QuadNum(self.a * o.a - 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        if not self:
            raise ZeroDivisionError("division by zero")
        # (a + b sqrt(-3))(a - b sqrt(-3)) = a^2 + 3b^2, positive for a nonzero number
        norm = self.a * self.a + 3 * self.b * self.b
        return QuadNum(self.a / norm, -self.b / norm)

    def __truediv__(self, other: NumberLike) -> "QuadNum":
        return self * QuadNum.coerce(other).inverse()

    def __rtruediv__(self, other: NumberLike) -> "QuadNum":
        return QuadNum.coerce(other) * self.inverse()

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        root = "sqrt(-3)"
        if self.b == 1:
            radical = root
        elif self.b == -1:
            radical = f"-{root}"
        else:
            radical = f"{self.b}*{root}"
        if self.a == 0:
            return radical
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{radical}"

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r})"


# A NamedTuple may not define __new__: the subclass below checks the fields.
class _Poly(NamedTuple):
    coeffs: tuple[QuadNum, ...]


class Poly(_Poly):
    """A polynomial as its QuadNum coefficients, lowest degree first, no trailing zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, coeffs: Iterable[NumberLike] = ()) -> "Poly":
        if isinstance(coeffs, Mapping):  # iterating it would read the exponents
            raise TypeError("Poly takes dense coefficients, lowest degree first, not a mapping")
        return super().__new__(cls, tuple(_trim([QuadNum.coerce(c) for c in coeffs])))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1


def is_separable(p: Poly) -> bool:
    """True when p has no repeated roots, i.e. gcd(p, p') is constant.

    The Euclid loop of :func:`is_separable_mod_p`, run on dense ``QuadNum``
    coefficients over Q(sqrt(-3)) instead of residues.
    """
    if p.is_zero:
        raise ValueError("separability is undefined for the zero polynomial")
    f = list(p.coeffs)
    g = _trim([c * e for e, c in enumerate(f)][1:])
    while g:
        lead_inv = g[-1].inverse()
        while len(f) >= len(g):
            q = f[-1] * lead_inv
            shift = len(f) - len(g)
            f[shift:] = [a - q * b for a, b in zip(f[shift:-1], g)]
            _trim(f)
        f, g = g, f
    return len(f) == 1


def is_separable_mod_p(coeffs: Sequence[int], p: int) -> bool:
    """True when f = sum coeffs[e] x^e has gcd(f, f') = 1 over F_p (p prime).

    ``coeffs`` is dense, lowest degree first.  The zero polynomial is not
    separable.  Euclid's algorithm on residues: no coefficient growth.
    """
    f = _trim([c % p for c in coeffs])
    if not f:
        return False
    g = _trim([e * c % p for e, c in enumerate(f)][1:])
    while g:
        lead_inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            q = f[-1] * lead_inv % p
            shift = len(f) - len(g)
            # f - q x^shift g: its top coefficient is 0, so the slice drops it
            f[shift:] = [(a - q * b) % p for a, b in zip(f[shift:-1], g)]
            _trim(f)
        f, g = g, f
    return len(f) == 1


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs

"""Exact arithmetic: rationals, numbers in Q(sqrt(-3)), dense polynomials, separability.

The classification tables need no field beyond Q(sqrt(-3)): every coefficient
is rational except the 2*sqrt(-3) of the tetrahedral form x^4 + 2*sqrt(-3)x^2 + 1.
A number is a + b*sqrt(-3) with rational a, b.  Everything here is exact and
floating point is never involved.

Conventions:

* ``Rational`` is the package's one rational type, n/d in lowest terms with
  d > 0.  It equals, orders and hashes like the :class:`fractions.Fraction`
  of the same value, and its ``str``, ``int()`` and constructor errors are
  Fraction's too.  Its arithmetic (``+``, ``-``, ``*``, ``/``, negation) mixes
  with an ``int``, or anything with ``numerator`` and ``denominator``, on
  either side.  It exists so that no call imports :mod:`fractions`, which
  loads :mod:`decimal` and :mod:`numbers` and compiles a regex: a few
  milliseconds of every process.  The constructor reads the canonical spelling
  ``-?digits(/digits)?`` itself, and any other string or a float through
  ``Fraction``, imported on that path only.
* A ``QuadNum`` with b == 0 is a rational: it equals and hashes like its
  ``Rational``.  It has only the arithmetic the exact separability path runs:
  ``+`` and ``-`` of two ``QuadNum``s, ``*`` by a ``QuadNum`` or an ``int``,
  and ``inverse()``.  An ``int`` or rational enters as ``QuadNum(x)``; there
  is no division operator and no mixed ``+``/``-``.
* ``Poly`` is an immutable dense tuple of ``QuadNum`` coefficients, lowest
  degree first, with no trailing zero: ``Poly([-1, 0, 1])`` is x^2 - 1, its
  ``int`` and rational coefficients wrapped.  The zero polynomial is the
  empty tuple and has no degree (``degree`` raises).
* ``is_separable`` and ``is_separable_mod_p`` run Euclid's algorithm on
  gcd(f, f') over dense coefficients: the first over Q(sqrt(-3)), the second
  on integer residues over a prime field F_p, updating f in place.  The
  second backs the fast certificate in :mod:`family`.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from math import gcd

__all__ = [
    "Rational",
    "QuadNum",
    "Poly",
    "is_separable",
    "is_separable_mod_p",
]

_HASH_MODULUS = sys.hash_info.modulus


def _add(na: int, da: int, nb: int, db: int) -> Rational:
    # Fraction's form: split the gcd of the denominators so the sum needs no full reduction
    g = gcd(da, db)
    if g == 1:
        return _reduced(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _reduced(t, s * db)
    return _reduced(t // g2, s * (db // g2))


def _sub(na: int, da: int, nb: int, db: int) -> Rational:
    return _add(na, da, -nb, db)


def _mul(na: int, da: int, nb: int, db: int) -> Rational:
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _reduced(na * nb, db * da)


def _div(na: int, da: int, nb: int, db: int) -> Rational:
    # _mul by db/nb, the sign moved to the numerator
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _reduced(-n, -d) if d < 0 else _reduced(n, d)


def _ratio(x) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or a rational operand; None for anything else."""
    if type(x) is int:
        return x, 1
    try:
        return x.numerator, x.denominator
    except AttributeError:
        return None


def _operators(op):
    """The forward and reflected methods of ``op(na, da, nb, db)``."""

    def forward(a: Rational, b) -> Rational:
        if type(b) is Rational:
            return op(a._n, a._d, b._n, b._d)
        other = _ratio(b)
        return NotImplemented if other is None else op(a._n, a._d, *other)

    def reflected(b: Rational, a) -> Rational:
        other = _ratio(a)
        return NotImplemented if other is None else op(*other, b._n, b._d)

    return forward, reflected


class Rational:
    """An exact rational number n/d, in lowest terms with d > 0.

    ``Rational(3)``, ``Rational(-1, 3)`` and ``Rational("-1/3")`` build one,
    as ``Fraction`` would; a ``Rational`` argument comes back as it is.
    """

    __slots__ = ("_n", "_d")

    def __new__(cls, numerator=0, denominator=None) -> Rational:
        if denominator is None:
            if type(numerator) is int:
                return _reduced(numerator, 1)
            if type(numerator) is Rational:
                return numerator
            if type(numerator) is str:
                value = _parse(numerator)
                if value is not None:
                    return value
            other = _ratio(numerator)
            if other is None:   # a float, a Decimal or another spelling: Fraction reads it
                from fractions import Fraction
                other = Fraction(numerator).as_integer_ratio()
            return _reduced(*other)
        if type(numerator) is int is type(denominator):
            n, d = numerator, denominator
        else:
            top, bottom = _ratio(numerator), _ratio(denominator)
            if top is None or bottom is None:
                raise TypeError("both arguments should be Rational instances")
            n, d = top[0] * bottom[1], bottom[0] * top[1]
        if d == 0:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        g = gcd(n, d)
        if d < 0:
            g = -g
        return _reduced(n // g, d // g)

    numerator = property(lambda self: self._n)
    denominator = property(lambda self: self._d)

    def as_integer_ratio(self) -> tuple[int, int]:
        return self._n, self._d

    def __reduce__(self):
        return (Rational, (self._n, self._d))

    # -- arithmetic ------------------------------------------------------

    __add__, __radd__ = _operators(_add)
    __sub__, __rsub__ = _operators(_sub)
    __mul__, __rmul__ = _operators(_mul)
    __truediv__, __rtruediv__ = _operators(_div)

    def __neg__(self) -> Rational:
        return _reduced(-self._n, self._d)

    def __int__(self) -> int:
        # truncation toward zero, as int() of a Fraction
        return self._n // self._d if self._n >= 0 else -(-self._n // self._d)

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is Rational:
            return self._n == other._n and self._d == other._d
        other = _ratio(other)
        return NotImplemented if other is None else (self._n, self._d) == other

    def __lt__(self, other) -> bool:
        other = _ratio(other)
        return NotImplemented if other is None else self._n * other[1] < other[0] * self._d

    def __gt__(self, other) -> bool:
        other = _ratio(other)
        return NotImplemented if other is None else self._n * other[1] > other[0] * self._d

    def __hash__(self) -> int:
        # Fraction's hash: n * d^-1 modulo the numeric hash modulus, so an integral
        # value hashes like its int
        n, d = self._n, self._d
        if d == 1:
            return hash(n)
        try:
            inverse = pow(d, -1, _HASH_MODULUS)
        except ValueError:   # d is a multiple of the modulus
            value = sys.hash_info.inf
        else:
            value = hash(hash(abs(n)) * inverse)
        value = value if n >= 0 else -value
        return -2 if value == -1 else value

    def __bool__(self) -> bool:
        return self._n != 0

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

    def __repr__(self) -> str:
        return f"Rational({self._n}, {self._d})"


def _reduced(n: int, d: int) -> Rational:
    """The Rational n/d, for n/d already in lowest terms with d > 0."""
    value = object.__new__(Rational)
    value._n = n
    value._d = d
    return value


def _parse(text: str) -> Rational | None:
    """The Rational that ``-?digits(/digits)?`` in ASCII spells; None for any other text."""
    top, slash, bottom = text.partition("/")
    digits = top[1:] if top.startswith("-") else top
    if not (digits.isascii() and digits.isdigit()):
        return None
    if not slash:
        return _reduced(int(top), 1)
    if not (bottom.isascii() and bottom.isdigit()):
        return None
    return Rational(int(top), int(bottom))


class QuadNum:
    """An exact number a + b*sqrt(-3), a and b rational."""

    __slots__ = ("a", "b")

    def __init__(self, a: int | Rational, b: int | Rational = 0):
        object.__setattr__(self, "a", Rational(a))
        object.__setattr__(self, "b", Rational(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadNum is immutable")

    def __reduce__(self):
        # pickle and deepcopy would restore the slots through __setattr__
        return (QuadNum, (self.a, self.b))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: QuadNum) -> QuadNum:
        return QuadNum(self.a + other.a, self.b + other.b)

    def __sub__(self, other: QuadNum) -> QuadNum:
        return QuadNum(self.a - other.a, self.b - other.b)

    def __mul__(self, other: QuadNum | int) -> QuadNum:
        if isinstance(other, int):  # is_separable scales by an exponent
            return QuadNum(self.a * other, self.b * other)
        return QuadNum(self.a * other.a - 3 * self.b * other.b,
                       self.a * other.b + self.b * other.a)

    def inverse(self) -> QuadNum:
        if not self:
            raise ZeroDivisionError("division by zero")
        # (a + b sqrt(-3))(a - b sqrt(-3)) = a^2 + 3b^2, positive for a nonzero number
        norm = self.a * self.a + 3 * self.b * self.b
        return QuadNum(self.a / norm, -self.b / norm)

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            return self.a == other.a and self.b == other.b
        if hasattr(other, "denominator"):   # an int or a rational
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
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


class Poly(namedtuple("Poly", "coeffs")):
    """A polynomial as its QuadNum coefficients, lowest degree first, no trailing zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, coeffs: Iterable[QuadNum | int | Rational] = ()) -> Poly:
        if isinstance(coeffs, Mapping):  # iterating it would read the exponents
            raise TypeError("Poly takes dense coefficients, lowest degree first, not a mapping")
        return super().__new__(cls, tuple(_trim(
            [c if isinstance(c, QuadNum) else QuadNum(c) for c in coeffs])))

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

    Euclid's algorithm of :func:`is_separable_mod_p`, run on dense ``QuadNum``
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
        n = len(g) - 1
        while len(f) > n:
            # f - q x^shift g, in place: its top coefficient is 0 and is popped
            q = f.pop() * lead_inv % p
            shift = len(f) - n
            for j in range(n):
                f[shift + j] = (f[shift + j] - q * g[j]) % p
            _trim(f)
        f, g = g, f
    return len(f) == 1


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs

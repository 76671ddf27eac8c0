"""Exact arithmetic: rationals, numbers in Q(sqrt(-3)), dense polynomials, separability.

The classification tables need no field beyond Q(sqrt(-3)): every coefficient
is rational except the 2*sqrt(-3) of the tetrahedral form x^4 + 2*sqrt(-3)x^2 + 1.
A number is a + b*sqrt(-3) with rational a, b.  Everything here is exact and
floating point is never involved.

Conventions:

* ``Rational`` is the package's one rational type, n/d in lowest terms with
  d > 0.  It is a value, read and written at the boundary: it equals and
  hashes like the :class:`fractions.Fraction` of the same value, and its
  ``str`` and constructor errors are Fraction's too, but it has no
  arithmetic, does not order and does not convert with ``int()``; callers
  compute on its ``numerator`` and ``denominator``.  It exists so that no
  call imports :mod:`fractions`, which loads :mod:`decimal` and
  :mod:`numbers` and compiles a regex: a few milliseconds of every process.
  The constructor reads the canonical spelling ``-?digits(/digits)?`` itself,
  and any other string or a float through ``Fraction``, imported on that
  path only.
* A ``QuadNum`` is a value too, with no arithmetic.  With b == 0 it is a
  rational: it equals and hashes like its ``Rational``.
* ``Poly`` is an immutable dense tuple of ``QuadNum`` coefficients, lowest
  degree first, with no trailing zero: ``Poly([-1, 0, 1])`` is x^2 - 1, its
  ``int`` and rational coefficients wrapped.  The zero polynomial is the
  empty tuple and has no degree (``degree`` raises).
* Computation runs on ints.  Numbers of Q(sqrt(-3)) become integer pairs
  (a, b) = a + b*sqrt(-3) over one common denominator: ``expand_product``
  multiplies sparse factors out on them, and ``is_separable`` runs the
  subresultant sequence of f and f' on them, over Z[sqrt(-3)].
  ``is_separable_mod_p`` runs Euclid's algorithm on integer residues over a
  prime field F_p, updating f in place, and backs the fast certificate in
  :mod:`family`.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from math import gcd, lcm

__all__ = [
    "Rational",
    "QuadNum",
    "Poly",
    "is_separable",
    "is_separable_mod_p",
]

_HASH_MODULUS = sys.hash_info.modulus


def _ratio(x) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or a rational operand; None for anything else."""
    if type(x) is int:
        return x, 1
    try:
        return x.numerator, x.denominator
    except AttributeError:
        return None


class Rational:
    """An exact rational number n/d, in lowest terms with d > 0.

    ``Rational(3)``, ``Rational(-1, 3)`` and ``Rational("-1/3")`` build one,
    as ``Fraction`` would; a ``Rational`` argument comes back as it is.  It
    has ``==`` and a hash but no arithmetic, no ``<`` or ``>`` and no
    ``int()``: read ``numerator`` and ``denominator`` instead.
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

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is Rational:
            return self._n == other._n and self._d == other._d
        other = _ratio(other)
        return NotImplemented if other is None else (self._n, self._d) == other

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
    """An exact number a + b*sqrt(-3), a and b rational; a value with no arithmetic."""

    __slots__ = ("a", "b")

    def __init__(self, a: int | Rational, b: int | Rational = 0):
        object.__setattr__(self, "a", Rational(a))
        object.__setattr__(self, "b", Rational(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadNum is immutable")

    def __reduce__(self):
        # pickle and deepcopy would restore the slots through __setattr__
        return (QuadNum, (self.a, self.b))

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
        sign = "+" if self.b.numerator > 0 else ""
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


def expand_product(factors: Iterable[Iterable[tuple[int, QuadNum]]]) -> Poly:
    """The product of sparse factors, each (exponent, coefficient) pairs, as a Poly.

    It runs on integer pairs (a, b) = a + b*sqrt(-3) over one denominator,
    the product of the factors' common denominators.
    """
    product, denominator = [(1, 0)], 1
    for factor in factors:
        exponents, numbers = zip(*factor)
        pairs, d = _integer_pairs(numbers)
        nonzero = [(k, a, b) for k, (a, b) in enumerate(product) if a or b]
        out = [(0, 0)] * (len(product) + max(exponents))
        for e, (c, s) in zip(exponents, pairs):
            for k, a, b in nonzero:
                x, y = out[k + e]
                out[k + e] = (x + a * c - 3 * b * s, y + a * s + b * c)
        product, denominator = out, denominator * d
    return Poly([QuadNum(Rational(a, denominator), Rational(b, denominator))
                 for a, b in product])


def _integer_pairs(numbers: Sequence[QuadNum]) -> tuple[list[tuple[int, int]], int]:
    """Integer pairs (a, b) and one d > 0 with numbers[i] = (a + b*sqrt(-3)) / d."""
    d = lcm(*(c.a.denominator for c in numbers), *(c.b.denominator for c in numbers))
    return [(c.a.numerator * (d // c.a.denominator), c.b.numerator * (d // c.b.denominator))
            for c in numbers], d


def is_separable(p: Poly) -> bool:
    """True when p has no repeated roots, i.e. gcd(p, p') is constant.

    p's denominators are cleared once; then the subresultant pseudo-remainder
    sequence of p and p' (Collins 1967; Brown and Traub 1971) runs on integer
    pairs over Z[sqrt(-3)].  Its divisions are exact in any integral domain,
    and each remainder is a nonzero multiple of Euclid's over Q(sqrt(-3)), so
    p is separable iff the last nonzero remainder is a constant.
    """
    if p.is_zero:
        raise ValueError("separability is undefined for the zero polynomial")
    f = _integer_pairs(p.coeffs)[0]
    g = [(e * a, e * b) for e, (a, b) in enumerate(f)][1:]   # p', whose top is deg(p) * lc(p)
    lead = h = (1, 0)
    while len(g) > 1:
        # deg f - deg g >= 1 throughout: f' is one below f, a remainder below its divisor
        delta = len(f) - len(g)
        r = _pseudo_remainder(f, g)
        if not r:
            return False
        divisor = _times(lead, _power(h, delta))
        f, g = g, [_exact_quotient(c, divisor) for c in r]
        lead = f[-1]
        h = _exact_quotient(_power(lead, delta), _power(h, delta - 1))
    return True


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = x, y
    return a * c - 3 * b * d, a * d + b * c


def _power(x: tuple[int, int], k: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(k):
        out = _times(out, x)
    return out


def _exact_quotient(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x / y in Z[sqrt(-3)], for y dividing x: x times y's conjugate, over the norm."""
    (a, b), (c, d) = x, y
    norm = c * c + 3 * d * d
    return (a * c + 3 * b * d) // norm, (b * c - a * d) // norm


def _pseudo_remainder(f: list, g: list) -> list:
    """R with lc(g)^(deg f - deg g + 1) f = Q g + R and deg R < deg g, trimmed."""
    c, d = g[-1]
    n = len(g) - 1
    steps = len(f) - n
    r = f[:]
    while len(r) > n:
        # lc(g) r - lc(r) x^shift g: its top coefficient is 0 and is popped
        s, t = r.pop()
        shift = len(r) - n
        r = [(c * x - 3 * d * y, c * y + d * x) for x, y in r]
        for j, (x, y) in enumerate(g[:-1], shift):
            u, v = r[j]
            r[j] = (u - s * x + 3 * t * y, v - s * y - t * x)
        steps -= 1
        while r and r[-1] == (0, 0):
            r.pop()
    if steps and r:
        scale = _power((c, d), steps)
        r = [_times(scale, x) for x in r]
    return r


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

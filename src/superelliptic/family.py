"""Equation templates y^n = f(x) and their numerical invariants.

A family is presented by a level n and a product of polynomial factors whose
coefficients are numbers of Q(sqrt(-3)), the one coefficient field (each a
:class:`~superelliptic.arith.QuadNum`), or formal parameters a_i (a
:class:`ParamCoeff`, optionally scaled, e.g. -a_1 or 2a_1).  From the
template alone one reads off the degree, the number of independent
parameters, the branch points of the cyclic cover (counting the point at
infinity when the level does not divide the degree) and hence the genus.

``enumerate_levels`` inverts the genus formula 2g = (n-1)(B-2): all candidate
(level, branch count) pairs for a given genus, whether or not each admits the
y^n = f(x) normal form (``normal_form_admissible`` decides that).

``separability_probe`` sets each parameter a_i to the i-th prime from 5
(a_1 = 5, a_2 = 7, a_3 = 11, ...), one fixed rational point, and checks that
the resulting polynomial has the expected degree and no repeated roots: a
modular certificate plus exact fallback.  The certificate reduces the template straight
to F_p, sending sqrt(-3) to (-3)^((p+1)/4), a square root of -3 mod p, and
runs Euclid on f and f' there.  When the degree survives and gcd(f, f') = 1 mod
p, the discriminant of f is a unit at a prime above p, hence nonzero, and f is
separable over Q(sqrt(-3)); that answer is final.  p is 1,073,741,719, or
1,073,741,671 when the first gives no certificate (degree drop or common
factor mod p, a denominator divisible by p).  When neither gives one, the exact
computation over Q(sqrt(-3)) runs, the subresultant sequence of
:func:`~superelliptic.arith.is_separable` on integer pairs, whose messages are
the probe's.  Failures are reported, not raised, so a verification run can
collect them.

The certificate never expands f in x.  One walk over each factor's terms
(``_walk``) gives its top exponent, parameter indices and nonzero residues mod
p, and is memoised on the factor object and p: the embedded table holds 92
factor objects in its 436 factor slots, all certified at the first prime, so a
process walks 92 factors, not 436.  ``_scan`` combines a row's factor walks
into the template's degree and parameter indices, which the probe returns for
the genus and parameter checks of ``verify``, and h.  Each factor is x^lo times
a polynomial in y = x^m, lo its lowest exponent with a nonzero residue, m the
gcd of all exponents' distances from their factor's lo, and h, the product of
those polynomials, gives f = x^eps h(x^m) with h(0) != 0.  A monomial factor
c x^lo adds lo to eps and scales h by c.  For eps <= 1 and p not dividing m, f is
separable iff h is: (h(x^m))' = m x^(m-1) h'(x^m), so a double root x0 != 0 of
h(x^m) makes x0^m a double root of h, and conversely.  (eps >= 2 puts x^2 in
gcd(f, f').)  The walk withholds the certificate when deg f >= p, as m may
then be a multiple of p.  Euclid runs on h, memoised on its residues and p: the
224 embedded rows give 42 distinct h, so a process runs it 42 times, not 224.

A template's JSON form is read and written by :mod:`superelliptic.dataset`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import gcd, isqrt

from ._quote import quote
from .arith import (Poly, QuadNum, Rational, expand_product, is_separable,
                    is_separable_mod_p)

__all__ = [
    "ParamCoeff",
    "Term",
    "EquationTemplate",
    "NonSuperellipticError",
    "branch_count",
    "genus_of_family",
    "enumerate_levels",
    "MAX_LEVELS_GENUS",
    "normal_form_admissible",
    "separability_probe",
    "ProbeResult",
]

# The certificate's primes: the two largest primes below 2^30 that are 7 mod
# 12.  As p = 1 mod 3, -3 is a square mod p, and as p = 3 mod 4,
# (-3)^((p+1)/4) is a square root of it.  A residue is one 30-bit CPython
# digit, so residues and their products stay on the interpreter's small-int
# paths.  The y = x^m lemma needs p > deg f, which ``_scan`` checks.
CERTIFICATE_PRIMES = (1_073_741_719, 1_073_741_671)

# The largest genus enumerate_levels takes: 2g = 10^12.
MAX_LEVELS_GENUS = 5 * 10**11


class NonSuperellipticError(ValueError):
    """The (level, degree) combination admits no y^n = f(x) normal form."""


class ParamCoeff(namedtuple("ParamCoeff", "index scale")):
    """A formal parameter a_i, optionally scaled by an exact rational."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, index: int, scale: int | Rational = 1) -> "ParamCoeff":
        if index < 1:
            raise ValueError(f"parameter index must be positive, got {index}")
        if index > 1000:   # the probe sets a_i to the i-th prime: this keeps that search short
            raise ValueError(f"parameter index must be at most 1000, got {index}")
        scale = Rational(scale)
        if scale == 0:
            raise ValueError("parameter scale must be nonzero")
        return super().__new__(cls, index, scale)

    def __str__(self) -> str:
        name = f"a_{self.index}"
        if self.scale == 1:
            return name
        if self.scale == -1:
            return f"-{name}"
        return f"{self.scale}{name}"


class Term(namedtuple("Term", "exponent coeff")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, exponent: int, coeff: QuadNum | ParamCoeff) -> "Term":
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}")
        return super().__new__(cls, exponent, coeff)


class EquationTemplate(namedtuple("EquationTemplate", "factors")):
    """f(x) as an ordered product of factors, each an ordered list of terms.

    Term order inside a factor is display order (kept as authored).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, factors: tuple[tuple[Term, ...], ...]) -> "EquationTemplate":
        if not factors or not all(factors):
            raise ValueError("template needs at least one non-empty factor")
        for factor in factors:
            if len({t.exponent for t in factor}) != len(factor):
                raise ValueError("duplicate exponent inside one factor")
        return super().__new__(cls, factors)

    # -- invariants --------------------------------------------------------

    @property
    def degree(self) -> int:
        return sum(max(t.exponent for t in factor) for factor in self.factors)

    @property
    def parameter_indices(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for factor in self.factors:
            for t in factor:
                if isinstance(t.coeff, ParamCoeff):
                    seen.add(t.coeff.index)
        return tuple(sorted(seen))

    @property
    def parameter_count(self) -> int:
        return len(self.parameter_indices)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        rendered = []
        for factor in self.factors:
            body = _render_factor(factor)
            if len(self.factors) > 1 and len(factor) > 1:
                body = f"({body})"
            rendered.append(body)
        return "".join(rendered)

    # -- instantiation ---------------------------------------------------------

    def instantiate(self) -> Poly:
        """Expand the product at the probe point, a_i the i-th prime from 5."""
        return expand_product(tuple((e, _probe_value(c)) for e, c in factor)
                              for factor in self.factors)


def _probe_value(c: QuadNum | ParamCoeff) -> QuadNum:
    if type(c) is ParamCoeff:
        return QuadNum(Rational(_probe_prime(c.index) * c.scale.numerator, c.scale.denominator))
    return c


def _render_factor(factor: tuple[Term, ...]) -> str:
    parts = []
    for t in factor:
        c = t.coeff
        if t.exponent == 0:
            text = str(c)
        else:
            x = "x" if t.exponent == 1 else f"x^{t.exponent}"
            if c == 1:          # a ParamCoeff equals no number
                text = x
            elif c == -1:
                text = f"-{x}"
            elif isinstance(c, QuadNum) and c.a and c.b:
                text = f"({c}){x}"
            else:
                text = f"{c}{x}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def branch_count(level: int, template: EquationTemplate | int) -> int:
    """Number of branch points of y^n = f(x) for separable f of this degree.

    Every root of f is a branch point; the point at infinity is one exactly
    when the level does not divide the degree.  Degrees with
    gcd(level, degree) strictly between 1 and level leave the cover branched
    at infinity with order below the level, which the normal form excludes.
    ``template`` may be given by its degree alone.
    """
    if level < 2:
        raise ValueError(f"level must be at least 2, got {level}")
    deg = template if type(template) is int else template.degree
    if deg < 1:
        raise NonSuperellipticError("constant f(x) defines no cover")
    if deg % level == 0:
        return deg
    if gcd(level, deg) == 1:
        return deg + 1
    raise NonSuperellipticError(
        f"level {level} with degree {deg}: gcd {gcd(level, deg)} is neither "
        f"{level} nor 1, so y^{level} = f(x) is not in normal form")


def genus_of_family(level: int, template: EquationTemplate | int) -> int:
    """Genus of y^n = f(x) from 2g = (n - 1)(B - 2), B the branch count.

    2g is always even: n - 1 is when n is odd, and when n is even B is too
    (B = deg with n | deg, or B = deg + 1 with gcd(n, deg) = 1, so deg odd).
    """
    branch_points = branch_count(level, template)
    if branch_points < 3:
        raise ValueError(f"need at least 3 branch points, got {branch_points}")
    return (level - 1) * (branch_points - 2) // 2


def enumerate_levels(genus: int) -> tuple[tuple[int, int], ...]:
    """All (level, branch count) pairs with (level-1)(branch-2) = 2*genus.

    Sorted by level.  Includes pairs that admit no y^n = f(x) normal form;
    filter with :func:`normal_form_admissible` when that matters.  The walk
    tries the divisors of 2*genus up to its square root, at most 10^6 of them
    as the genus is at most :data:`MAX_LEVELS_GENUS`.
    """
    if genus < 2:
        raise ValueError(f"genus must be at least 2, got {genus}")
    if genus > MAX_LEVELS_GENUS:
        raise ValueError(f"genus must be at most {MAX_LEVELS_GENUS}, got {quote(genus)}")
    target = 2 * genus
    low, high = [], []
    for d in range(1, isqrt(target) + 1):
        if target % d == 0:
            low.append(d)
            if d * d < target:
                high.append(target // d)
    return tuple((d + 1, target // d + 2) for d in low + high[::-1])


def normal_form_admissible(level: int, branch_points: int) -> bool:
    """Whether some separable f gives y^n = f(x) with this branch count.

    Either the level divides the branch count (f of degree = branch count,
    unbranched at infinity) or level and branch count - 1 are coprime
    (f of degree = branch count - 1, branched at infinity).
    """
    if level < 2 or branch_points < 3:
        raise ValueError("need level >= 2 and at least 3 branch points")
    return branch_points % level == 0 or gcd(level, branch_points - 1) == 1


_PRIMES = [2, 3, 5]   # the primes in order: found once per process, extended on demand


def _probe_prime(index: int) -> int:
    """The value of a_index at the probe point: the index-th prime from 5."""
    n = _PRIMES[-1]
    while len(_PRIMES) < index + 2:
        n += 2
        if all(n % k for k in range(3, isqrt(n) + 1, 2)):
            _PRIMES.append(n)
    return _PRIMES[index + 1]


class ProbeResult(namedtuple("ProbeResult", "degree indices messages")):
    """The template's degree and parameter indices, and the probe's failures."""

    __slots__ = ()
    ok = property(lambda self: not self.messages)


def separability_probe(level: int, template: EquationTemplate) -> ProbeResult:
    """Degree, parameter indices and probe failures of f, from walks over its terms.

    A level and degree with no normal form are the one failure, and
    separability is not decided; otherwise no failures means that f keeps its
    degree and has no repeated root at the probe point (see module doc).
    """
    first = CERTIFICATE_PRIMES[0]
    degree, indices, h = _scan(template, first)
    try:
        branch_count(level, degree)
    except ValueError as exc:
        return ProbeResult(degree, indices, (str(exc),))
    for p in CERTIFICATE_PRIMES:    # the next prime only when this one gives no certificate
        if p != first:
            h = _scan(template, p)[2]
        if h is not None and _euclid_mod_p(h, p):
            return ProbeResult(degree, indices, ())
    return ProbeResult(degree, indices, _exact_probe(template, degree))


def _exact_probe(template: EquationTemplate, degree: int) -> tuple[str, ...]:
    poly = template.instantiate()
    if poly.is_zero or poly.degree != degree:
        return (f"instantiated degree {'0' if poly.is_zero else poly.degree} "
                f"!= template degree {degree}",)
    if not is_separable(poly):
        return ("instantiated polynomial has a repeated root",)
    return ()


@cache
def _euclid_mod_p(h: tuple[int, ...], p: int) -> bool:
    return is_separable_mod_p(h, p)


def _scan(template: EquationTemplate, p: int):
    """(degree, parameter indices, h) from one walk over each factor's terms.

    h is in F_p[y], lowest degree first, with f = x^eps h(x^m) at the probe
    point, eps <= 1 and h(0) != 0, so f is separable mod p iff h is.  h is
    None when a coefficient has no image in F_p, a factor's leading
    coefficient vanishes mod p (the degree would drop), x^2 divides f mod p
    (then gcd(f, f') is not 1 either), or deg f >= p (module doc).
    """
    degree, eps, m, seen, factors, scale, certify = 0, 0, 0, set(), [], 1, True
    for factor in template.factors:
        top, residues, indices, lo, gap, ok = _walk(factor, p)
        degree += top
        seen.update(indices)
        if not ok:
            certify = False
            continue
        eps += lo
        if gap:
            m = gcd(m, gap)
            factors.append((lo, top, residues))
        else:                       # a monomial c x^lo: x^lo goes to eps, c scales h
            scale = scale * residues[0][1] % p
    indices = tuple(sorted(seen))
    if not certify or eps > 1 or degree >= p:
        return degree, indices, None
    m = m or 1
    h = [scale]
    for lo, top, residues in factors:
        out = [0] * (len(h) + (top - lo) // m)
        for e, c in residues:
            for k, a in enumerate(h, (e - lo) // m):
                out[k] += c * a
        h = [c % p for c in out]
    return degree, indices, tuple(h)


# (id(factor), p) -> (factor, its walk mod p).  Keyed on the object, not the
# tuple of terms: the embedded table holds one object per distinct factor, and
# so does from_json, while hashing a factor would run QuadNum's and Rational's
# hashes, in Python.  The entry keeps the factor alive, so its id is never
# reused.
_WALKS: dict[tuple[int, int], tuple] = {}


def _walk(factor: tuple[Term, ...], p: int) -> tuple:
    """One factor's (top, nonzero residues mod p, indices, lo, gap, ok), computed once.

    ``residues`` lists (exponent, residue) in term order; ``lo`` is the least
    of their exponents and ``gap`` the gcd of their distances from it, 0 for a
    monomial.  ``ok`` is False when a coefficient has no image in F_p or the
    top term's residue is 0; then ``lo`` and ``gap`` are 0.
    """
    known = _WALKS.get((id(factor), p))
    if known is not None:
        return known[1]
    top, residues, indices, ok = -1, [], set(), True
    for e, c in factor:
        if type(c) is ParamCoeff:
            indices.add(c.index)
            scale = _residue(c.scale, p)
            c = None if scale is None else _probe_prime(c.index) * scale % p
        else:
            c = _residue(c, p)
        if e > top:
            top, lead = e, c
        if c:
            residues.append((e, c))
        elif c is None:
            ok = False
    lo = gap = 0
    if ok and lead:
        lo = min(residues)[0]       # exponents are distinct within a factor
        for e, _ in residues:
            gap = gcd(gap, e - lo)
    walk = (top, residues, indices, lo, gap, bool(ok and lead))
    _WALKS[id(factor), p] = (factor, walk)
    return walk


def _residue(value: QuadNum | Rational, p: int) -> int | None:
    """Image in F_p of a rational or of a + b*sqrt(-3), if it has one (module doc)."""
    a, b = (value.a, value.b) if type(value) is QuadNum else (value, None)
    n, d = a.as_integer_ratio()
    if d % p == 0:
        return None
    image = n if d == 1 else n * pow(d, -1, p)
    if b:
        n, d = b.as_integer_ratio()
        if d % p == 0:
            return None
        image += n * pow(d, -1, p) * pow(-3, (p + 1) // 4, p)
    return image % p

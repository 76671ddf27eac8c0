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

``separability_probe`` sets the parameters to the primes 5, 7, 11, ... in
order of parameter index, as many as there are, and checks that the resulting
polynomial has the expected degree and no repeated roots: a modular
certificate plus exact fallback.  The certificate reduces the template
straight to F_p for the prime p = 1,073,741,719, sending sqrt(-3) to a fixed
square root of -3 mod p, and runs Euclid on f and f' there.  When the degree
survives and gcd(f, f') = 1 mod p, the discriminant of f is a unit at a prime
above p, hence nonzero, and f is separable over Q(sqrt(-3)); that answer is
final.  Every other outcome (degree drop or common factor mod p, a
denominator divisible by p, a missing parameter) runs the exact computation
over Q(sqrt(-3)), whose messages are the probe's.  Failures are reported, not
raised, so a verification run can collect them.

The certificate never expands f in x.  One walk over each factor's terms
(``probe``) gives the template's degree and parameter indices, which the
genus and parameter checks of ``verify`` read too, and the terms' residues
mod p.  Each factor is x^lo times a polynomial in y = x^m, lo its lowest
exponent with a nonzero residue, m the gcd of all exponents' distances from
their factor's lo, and h, the product of those polynomials, gives
f = x^eps h(x^m) with h(0) != 0.  For eps <= 1 and p not dividing m, f is
separable iff h is: (h(x^m))' = m x^(m-1) h'(x^m), so a double root x0 != 0
of h(x^m) makes x0^m a double root of h, and conversely.  (eps >= 2 puts x^2
in gcd(f, f').)  The walk withholds the certificate when deg f >= p, as m
may then be a multiple of p.  Euclid runs on h, memoised on its residues: the
224 embedded rows give 42 distinct h, so a process runs it 42 times, not 224.

A template's JSON form is read and written by :mod:`superelliptic.dataset`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from typing import Mapping, Union

from .arith import Poly, QuadNum, is_separable, is_separable_mod_p

__all__ = [
    "ParamCoeff",
    "Term",
    "EquationTemplate",
    "NonSuperellipticError",
    "branch_count",
    "superelliptic_genus",
    "genus_of_family",
    "enumerate_levels",
    "normal_form_admissible",
    "probe_assignment",
    "probe",
    "separability_probe",
    "ProbeResult",
]

# The certificate's prime: the largest prime below 2^30 that is 7 mod 12.  As
# p = 1 mod 3, -3 is a square mod p, and as p = 3 mod 4, (-3)^((p+1)/4) is a
# square root of it.  A residue is one 30-bit CPython digit, so residues and
# their products stay on the interpreter's small-int paths.  The y = x^m lemma
# needs p > deg f, which ``_scan`` checks.
CERTIFICATE_PRIME = 1_073_741_719
SQRT_MINUS_3_MOD_P = pow(-3, (CERTIFICATE_PRIME + 1) // 4, CERTIFICATE_PRIME)


class NonSuperellipticError(ValueError):
    """The (level, degree) combination admits no y^n = f(x) normal form."""


class ParamCoeff(namedtuple("ParamCoeff", "index scale")):
    """A formal parameter a_i, optionally scaled by an exact rational."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, index: int, scale: Fraction = Fraction(1)) -> "ParamCoeff":
        if index < 1:
            raise ValueError(f"parameter index must be positive, got {index}")
        scale = Fraction(scale)
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
        if not factors or any(not f for f in factors):
            raise ValueError("template needs at least one non-empty factor")
        for factor in factors:
            exps = [t.exponent for t in factor]
            if len(set(exps)) != len(exps):
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

    def instantiate(self, values: Mapping[int, Union[int, Fraction, QuadNum]] | None = None) -> Poly:
        """Expand the product with parameters set to ``values`` (default probe)."""
        if values is None:
            values = probe_assignment(self)
        product = [QuadNum(1)]
        for factor in self.factors:
            nonzero = [(k, a) for k, a in enumerate(product) if a]
            out = [QuadNum(0)] * (len(product) + max(t.exponent for t in factor))
            for e, c in factor:
                if isinstance(c, ParamCoeff):
                    if c.index not in values:
                        raise KeyError(f"no value for parameter a_{c.index}")
                    c = QuadNum.coerce(values[c.index]) * QuadNum(c.scale)
                for k, a in nonzero:
                    out[k + e] += c * a
            product = out
        return Poly(product)

    def __str__(self) -> str:
        return self.render()


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


def superelliptic_genus(level: int, branch_points: int) -> int:
    """Genus from 2g = (level - 1)(branch_points - 2)."""
    if level < 2:
        raise ValueError(f"level must be at least 2, got {level}")
    if branch_points < 3:
        raise ValueError(f"need at least 3 branch points, got {branch_points}")
    twice = (level - 1) * (branch_points - 2)
    if twice % 2:
        raise NonSuperellipticError(
            f"level {level} with {branch_points} branch points gives "
            f"non-integral genus {twice}/2")
    return twice // 2


def genus_of_family(level: int, template: EquationTemplate | int) -> int:
    return superelliptic_genus(level, branch_count(level, template))


def enumerate_levels(genus: int) -> tuple[tuple[int, int], ...]:
    """All (level, branch count) pairs with (level-1)(branch-2) = 2*genus.

    Sorted by level.  Includes pairs that admit no y^n = f(x) normal form;
    filter with :func:`normal_form_admissible` when that matters.
    """
    if genus < 2:
        raise ValueError(f"genus must be at least 2, got {genus}")
    out = []
    target = 2 * genus
    for d in range(1, target + 1):
        if target % d == 0:
            out.append((d + 1, target // d + 2))
    return tuple(out)


def normal_form_admissible(level: int, branch_points: int) -> bool:
    """Whether some separable f gives y^n = f(x) with this branch count.

    Either the level divides the branch count (f of degree = branch count,
    unbranched at infinity) or level and branch count - 1 are coprime
    (f of degree = branch count - 1, branched at infinity).
    """
    if level < 2 or branch_points < 3:
        raise ValueError("need level >= 2 and at least 3 branch points")
    return branch_points % level == 0 or gcd(level, branch_points - 1) == 1


def probe_assignment(template: EquationTemplate) -> dict[int, int]:
    """Distinct fixed primes 5, 7, 11, ... keyed by parameter index."""
    indices = template.parameter_indices
    return dict(zip(indices, _probe_primes(len(indices)).values()))


_PROBE_PRIMES = {1: 5}   # the k-th probe prime by k: found once per process, extended on demand


def _probe_primes(count: int) -> dict[int, int]:
    """The probe primes 5, 7, 11, ... keyed 1, 2, 3, ...: at least ``count`` of them."""
    n = _PROBE_PRIMES[len(_PROBE_PRIMES)]
    while len(_PROBE_PRIMES) < count:
        n += 2
        if all(n % k for k in range(3, isqrt(n) + 1, 2)):
            _PROBE_PRIMES[len(_PROBE_PRIMES) + 1] = n
    return _PROBE_PRIMES


ProbeResult = namedtuple("ProbeResult", "ok messages")


def separability_probe(level: int, template: EquationTemplate,
                       values: Mapping[int, Union[int, Fraction, QuadNum]] | None = None) -> ProbeResult:
    """Check shape, degree and separability at the probe assignment (see module doc)."""
    messages = probe(level, template, values)[2]
    return ProbeResult(not messages, tuple(messages))


def probe(level: int, template: EquationTemplate, values: Mapping | None = None
          ) -> tuple[int, tuple[int, ...], list[str]]:
    """Degree, parameter indices and probe failures of f, from one walk over its terms.

    ``values`` defaults to the probe primes.  A level and degree with no normal
    form are the one failure, and separability is not decided; otherwise no
    failures means that f keeps its degree and has no repeated root there.
    """
    degree, indices, h = _scan(template, values)
    try:
        branch_count(level, degree)
    except ValueError as exc:
        return degree, indices, [str(exc)]
    if h is not None and _euclid_mod_p(h):
        return degree, indices, []
    return degree, indices, _exact_probe(template, values, degree)


def _exact_probe(template: EquationTemplate, values: Mapping | None, degree: int) -> list[str]:
    poly = template.instantiate(values)
    if poly.is_zero or poly.degree != degree:
        return [f"instantiated degree {'0' if poly.is_zero else poly.degree} "
                f"!= template degree {degree}"]
    if not is_separable(poly):
        return ["instantiated polynomial has a repeated root"]
    return []


@cache
def _euclid_mod_p(h: tuple[int, ...]) -> bool:
    return is_separable_mod_p(h, CERTIFICATE_PRIME)


def _scan(template: EquationTemplate, values: Mapping | None = None):
    """(degree, parameter indices, h) from one walk over the terms.

    h is in F_p[y], lowest degree first, with f = x^eps h(x^m) at ``values``,
    eps <= 1 and h(0) != 0, so f is separable mod p iff h is.  h is None when
    a coefficient has no image in F_p, a parameter has no value, a factor's
    leading coefficient vanishes mod p (the degree would drop), x^2 divides
    f mod p (then gcd(f, f') is not 1 either), or deg f >= p (module doc).

    The probe primes go to the indices in increasing order, which the walk
    knows only at its end.  It gives a_i the i-th prime, which is right when
    the indices run 1, 2, ..., k, and walks again with the right values if not.
    """
    p = CERTIFICATE_PRIME
    if values is None:   # k <= the number of terms, so the primes suffice
        params = _probe_primes(sum(map(len, template.factors)))
    else:
        params = {i: _number_mod_p(v) if isinstance(v, QuadNum) else _rational_mod_p(v)
                  for i, v in values.items()}
    degree, eps, m, seen, factors, certify = 0, 0, 0, set(), [], True
    for factor in template.factors:
        top, residues = -1, []
        for e, c in factor:
            if type(c) is ParamCoeff:
                seen.add(c.index)
                value, scale = params.get(c.index), _rational_mod_p(c.scale)
                c = None if value is None or scale is None else value * scale % p
            else:
                c = _number_mod_p(c)
            if e > top:
                top, lead = e, c
            if c:
                residues.append((e, c))
            elif c is None:
                certify = False
        degree += top
        if lead:
            lo = min(residues)[0]   # exponents are distinct within a factor
            for e, _ in residues:
                m = gcd(m, e - lo)
            eps += lo
            factors.append((lo, top, residues))
        else:
            certify = False
    indices = tuple(sorted(seen))
    if values is None and indices and indices[-1] != len(indices):
        return _scan(template, probe_assignment(template))
    if not certify or eps > 1 or degree >= p:
        return degree, indices, None
    m = m or 1
    h = [1]
    for lo, top, residues in factors:
        out = [0] * (len(h) + (top - lo) // m)
        for e, c in residues:
            for k, a in enumerate(h, (e - lo) // m):
                out[k] += c * a
        h = [c % p for c in out]
    return degree, indices, tuple(h)


def _number_mod_p(value: QuadNum) -> int | None:
    """Image of a + b*sqrt(-3) under sqrt(-3) -> SQRT_MINUS_3_MOD_P, if it has one."""
    a = _rational_mod_p(value.a)
    if not value.b.numerator or a is None:
        return a
    b = _rational_mod_p(value.b)
    return None if b is None else (a + b * SQRT_MINUS_3_MOD_P) % CERTIFICATE_PRIME


def _rational_mod_p(q: int | Fraction) -> int | None:
    p = CERTIFICATE_PRIME
    n, d = q.as_integer_ratio()
    if d == 1:
        return n % p
    if d % p == 0:
        return None
    return n * pow(d, -1, p) % p

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
order of parameter index, as many as there are, and checks that the resulting polynomial has the
expected degree and no repeated roots: a modular certificate plus exact
fallback.  The certificate reduces the template straight to F_p for the prime
p = 2^61 - 1, sending sqrt(-3) to a fixed square root of -3 mod p, and runs
Euclid on f and f' there.  When the degree survives and gcd(f, f') = 1 mod p,
the discriminant of f is a unit at a prime above p, hence nonzero, and f is
separable over Q(sqrt(-3)); that answer is final.  Every other outcome
(degree drop or common factor mod p, a denominator divisible by p, a missing
parameter) runs the exact computation over Q(sqrt(-3)), whose messages are
the probe's.  Failures are reported, not raised, so a verification run can
collect them.

The certificate never expands f in x.  One pass over each factor's terms gives
their residues mod p, its top exponent and lo, its lowest exponent with a
nonzero residue.  Each factor is x^lo times a polynomial in y = x^m, m the gcd
of all exponents' distances from their factor's lo, and h, the product of those
polynomials, gives f = x^eps h(x^m) with h(0) != 0.  For eps <= 1 and p not
dividing m, f is separable iff h is: (h(x^m))' = m x^(m-1) h'(x^m), so a double
root x0 != 0 of h(x^m) makes x0^m a double root of h, and conversely.
(eps >= 2 puts x^2 in gcd(f, f').)  Euclid runs on h, memoised on its
residues: the 224 embedded rows give 42 distinct h, so a process runs it 42
times, not 224.

``EquationTemplate.from_json_dict`` reads the lossless JSON form.  Each term's
fields are type-checked exactly (``true`` is no integer, ``1.0`` no exact
rational) before a memo keyed on those JSON scalars is consulted, so the
table's 1,300-odd terms cost one ``Fraction`` parse per distinct string and
one ``Term`` per distinct term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt
from typing import Mapping, NamedTuple, Union

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
    "separability_probe",
    "ProbeResult",
]

# The certificate's prime: p = 2^61 - 1 is 1 mod 3, so -3 is a square mod p,
# and 3 mod 4, so one of its square roots is (-3)^((p+1)/4).
CERTIFICATE_PRIME = 2**61 - 1
SQRT_MINUS_3_MOD_P = pow(-3, (CERTIFICATE_PRIME + 1) // 4, CERTIFICATE_PRIME)


class NonSuperellipticError(ValueError):
    """The (level, degree) combination admits no y^n = f(x) normal form."""


# A NamedTuple may not define __new__: the subclass below checks the fields.
class _ParamCoeff(NamedTuple):
    index: int
    scale: Fraction


class ParamCoeff(_ParamCoeff):
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


Coefficient = Union[QuadNum, ParamCoeff]


class _Term(NamedTuple):
    exponent: int
    coeff: Coefficient


class Term(_Term):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, exponent: int, coeff: Coefficient) -> "Term":
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}")
        return super().__new__(cls, exponent, coeff)


class _EquationTemplate(NamedTuple):
    factors: tuple[tuple[Term, ...], ...]


class EquationTemplate(_EquationTemplate):
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
    def radicand(self) -> int:
        """-3 when a constant coefficient is irrational, else 1."""
        return -3 if any(isinstance(t.coeff, QuadNum) and t.coeff.b
                         for factor in self.factors for t in factor) else 1

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

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "factors": [[_term_to_json(t) for t in factor] for factor in self.factors],
            "radicand": self.radicand,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EquationTemplate":
        template = cls(tuple(
            tuple(_term_from_json(t) for t in factor) for factor in data["factors"]))
        derived = template.radicand
        radicand = _field(data, "radicand", "an integer", int) if "radicand" in data else derived
        if radicand != derived:
            raise ValueError(f"field 'radicand' is {radicand!r}, but the coefficients "
                             f"give {derived}")
        return template

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


def _term_to_json(t: Term) -> dict:
    if isinstance(t.coeff, QuadNum):
        v = t.coeff
        c: dict = {"kind": "fixed", "a": str(v.a), "b": str(v.b)}
        if v.b:
            c["d"] = -3
        return {"e": t.exponent, "c": c}
    return {"e": t.exponent,
            "c": {"kind": "param", "i": t.coeff.index, "scale": str(t.coeff.scale)}}


def _term_from_json(data: dict) -> Term:
    # Each field is checked, in order, before the memo sees it: true == 1 and
    # 1.0 == 1 hash alike, so an unchecked key could hit a valid term's entry.
    c, e = data["c"], _field(data, "e", "an integer", int)
    if c["kind"] == "fixed":
        a, b = _rational_text("a", c["a"]), _rational_text("b", c.get("b", "0"))
        irrational = _rational(b) != 0
        if "d" in c or irrational:   # the radicand: type-checked when present, -3 when b != 0
            d = _field(c, "d", "an integer", int)
            if irrational and d != -3:
                raise ValueError(f"field 'd' must be -3 when 'b' is nonzero, got {d}")
        return _fixed_term(e, a, b)
    if c["kind"] == "param":
        return _param_term(e, _field(c, "i", "an integer", int),
                           _rational_text("scale", c.get("scale", "1")))
    raise ValueError(f"field 'kind' must be 'fixed' or 'param', got {c['kind']!r}")


@cache
def _fixed_term(e: int, a: str | int, b: str | int) -> Term:
    return Term(e, QuadNum(_rational(a), _rational(b)))


@cache
def _param_term(e: int, i: int, scale: str | int) -> Term:
    return Term(e, ParamCoeff(i, _rational(scale)))


def _field(obj: dict, key: str, expected: str, *types: type):
    """``obj[key]``, whose type must be exactly one of ``types``: true is no integer."""
    value = obj[key]
    if type(value) not in types:
        raise ValueError(f"field {key!r} must be {expected}, got {value!r}")
    return value


def _rational_text(key: str, text) -> str | int:
    """``text`` itself, once it is known to spell an exact rational."""
    if type(text) not in (str, int):  # a float is inexact, and true is no number
        raise ValueError(f"coefficient field {key!r} must be a string or an integer, "
                         f"got {text!r}")
    if _rational(text) is None:
        raise ValueError(f"coefficient field {key!r} is not a rational number: "
                         f"{text!r}")
    return text


@cache
def _rational(text: str | int) -> Fraction | None:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def branch_count(level: int, template: EquationTemplate) -> int:
    """Number of branch points of y^n = f(x) for separable f of this degree.

    Every root of f is a branch point; the point at infinity is one exactly
    when the level does not divide the degree.  Degrees with
    gcd(level, degree) strictly between 1 and level leave the cover branched
    at infinity with order below the level, which the normal form excludes.
    """
    if level < 2:
        raise ValueError(f"level must be at least 2, got {level}")
    deg = template.degree
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


def genus_of_family(level: int, template: EquationTemplate) -> int:
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
    return _probe_primes(template.parameter_indices)


def _probe_primes(indices: tuple[int, ...]) -> dict[int, int]:
    """The primes from 5 upward, one per index in order: as many as there are indices."""
    primes = (n for n in count(5, 2) if all(n % k for k in range(3, isqrt(n) + 1, 2)))
    return dict(zip(indices, primes))


class ProbeResult(NamedTuple):
    ok: bool
    messages: tuple[str, ...]


def separability_probe(level: int, template: EquationTemplate,
                       values: Mapping[int, Union[int, Fraction, QuadNum]] | None = None) -> ProbeResult:
    """Check degree and separability at the probe assignment (see module doc)."""
    if values is None:
        values = probe_assignment(template)
    messages = _probe_failures(template, values)
    try:
        branch_count(level, template)
    except ValueError as exc:
        messages.append(str(exc))
    return ProbeResult(not messages, tuple(messages))


def _probe_failures(template: EquationTemplate, values: Mapping) -> list[str]:
    return [] if _separable_mod_p(template, values) else _exact_probe(template, values)


def _exact_probe(template: EquationTemplate, values: Mapping) -> list[str]:
    poly = template.instantiate(values)
    if poly.is_zero or poly.degree != template.degree:
        return [f"instantiated degree {'0' if poly.is_zero else poly.degree} "
                f"!= template degree {template.degree}"]
    if not is_separable(poly):
        return ["instantiated polynomial has a repeated root"]
    return []


def _separable_mod_p(template: EquationTemplate, values: Mapping) -> bool:
    """True only when f at ``values`` keeps its degree and gcd(f, f') = 1 mod p."""
    h = _reduce_mod_p(template, values)
    return h is not None and _euclid_mod_p(tuple(h))


@cache
def _euclid_mod_p(h: tuple[int, ...]) -> bool:
    return is_separable_mod_p(h, CERTIFICATE_PRIME)


def _reduce_mod_p(template: EquationTemplate, values: Mapping) -> list[int] | None:
    """h in F_p[y], dense and lowest degree first, with f = x^eps h(x^m) at ``values``.

    eps <= 1, h(0) != 0 and m <= deg f < p: f is separable mod p iff h is.
    None when a coefficient has no image in F_p, a parameter has no value, a
    factor's leading coefficient vanishes mod p (the degree would drop), or
    x^2 divides f mod p (then gcd(f, f') is not 1 either).  One pass over a
    factor's terms gives its nonzero residues and its top exponent.
    """
    p = CERTIFICATE_PRIME
    params = {i: _number_mod_p(v) if isinstance(v, QuadNum) else _rational_mod_p(v)
              for i, v in values.items()}
    factors, eps, m = [], 0, 0
    for factor in template.factors:
        residues, top, lead = [], -1, 0
        for e, coeff in factor:
            if isinstance(coeff, QuadNum):
                c = _number_mod_p(coeff)
            else:
                value, scale = params.get(coeff.index), _rational_mod_p(coeff.scale)
                c = None if value is None or scale is None else value * scale % p
            if c is None:
                return None
            if e > top:
                top, lead = e, c
            if c:
                residues.append((e, c))
        if not lead:
            return None
        lo = min(residues)[0]   # exponents are distinct within a factor
        for e, _ in residues:
            m = gcd(m, e - lo)
        eps += lo
        factors.append((lo, top, residues))
    if eps > 1:
        return None
    m = m or 1
    h = [1]
    for lo, top, residues in factors:
        out = [0] * (len(h) + (top - lo) // m)
        for e, c in residues:
            for k, a in enumerate(h, (e - lo) // m):
                out[k] += c * a
        h = [c % p for c in out]
    return h


def _number_mod_p(value: QuadNum) -> int | None:
    """Image of a + b*sqrt(-3) under sqrt(-3) -> SQRT_MINUS_3_MOD_P, if it has one."""
    if value.b == 0:
        return _rational_mod_p(value.a)
    a, b = _rational_mod_p(value.a), _rational_mod_p(value.b)
    if a is None or b is None:
        return None
    return (a + b * SQRT_MINUS_3_MOD_P) % CERTIFICATE_PRIME


def _rational_mod_p(q: int | Fraction) -> int | None:
    p = CERTIFICATE_PRIME
    if q.denominator == 1:
        return q.numerator % p
    if q.denominator % p == 0:
        return None
    return q.numerator * pow(q.denominator, -1, p) % p

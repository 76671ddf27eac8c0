"""Equation templates, branch counts, genus computation, level enumeration."""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from superelliptic import dataset, family
from superelliptic.arith import QuadNum, is_separable, is_separable_mod_p
from superelliptic.dataset import load_embedded
from superelliptic.family import (CERTIFICATE_PRIME, MAX_LEVELS_GENUS, SQRT_MINUS_3_MOD_P,
                                  EquationTemplate, NonSuperellipticError, ParamCoeff, Term,
                                  branch_count, enumerate_levels, genus_of_family,
                                  normal_form_admissible, separability_probe)
from superelliptic.tables import F1, X, f, spread, t

P = CERTIFICATE_PRIME


def test_template_shape() -> None:
    tmpl = t(f(1), f(6, (2, "a1"), (4, "a2"), 0))       # x(x^6+a_1x^2+a_2x^4+1)
    assert tmpl.degree == 7
    assert tmpl.parameter_indices == (1, 2)
    assert tmpl.parameter_count == 2
    assert tmpl.render() == "x(x^6+a_1x^2+a_2x^4+1)"


def test_template_render_edge_cases() -> None:
    assert t(f(12, (0, -1))).render() == "x^12-1"
    assert t(f(1), f(10, (5, 11), (0, -1))).render() == "x(x^10+11x^5-1)"
    assert t(F1).render() == "x^12-a_1x^10-33x^8+2a_1x^6-33x^4-a_1x^2+1"
    quartic = t(f(4, (2, ("sqrt", 2)), 0))
    assert quartic.render() == "x^4+2*sqrt(-3)x^2+1"
    both = QuadNum(1, 1)                                  # a and b both nonzero
    mixed = EquationTemplate(((Term(3, QuadNum(1)), Term(2, both), Term(1, QuadNum(-1)),
                               Term(0, both)),))
    assert mixed.render() == "x^3+(1+sqrt(-3))x^2-x+1+sqrt(-3)"


def test_template_validation() -> None:
    with pytest.raises(ValueError):
        EquationTemplate(())
    with pytest.raises(ValueError):
        t(f(2, (2, "a1"), 0))      # duplicate exponent inside one factor
    with pytest.raises(ValueError):
        ParamCoeff(0)
    with pytest.raises(ValueError):
        ParamCoeff(1, Fraction(0))
    assert ParamCoeff(1000).index == 1000
    with pytest.raises(ValueError, match="parameter index must be at most 1000, got 1001"):
        ParamCoeff(1001)


def test_instantiate_default_probe() -> None:
    tmpl = t(f(1), f(6, (2, "a1"), (4, "a2"), 0))
    poly = tmpl.instantiate()
    assert poly.degree == 7
    assert poly.coeffs[3] == QuadNum(5)      # x * a_1 x^2, a_1 = 5
    assert poly.coeffs[5] == QuadNum(7)      # a_2 = 7
    scaled = t(f(4, (2, ("a1", Fraction(-2, 5))), 0)).instantiate()
    assert scaled.coeffs[2] == QuadNum(-2)


def _export(tmpl: EquationTemplate) -> tuple[str, int]:
    """The dataset document of genus 3's first row with equation ``tmpl``, and its radicand."""
    text = dataset.to_json(dataset.Dataset([load_embedded(3).get(3, 1)._replace(equation=tmpl)]))
    return text, json.loads(text)["families"][0]["equation"]["radicand"]


def test_instantiate_radical_coefficient() -> None:
    quartic = t(f(4, (2, ("sqrt", 2)), 0))
    assert _export(quartic)[1] == -3 and _export(t(F1))[1] == 1
    poly = quartic.instantiate()
    assert poly.coeffs[2] == QuadNum(0, 2)


@pytest.mark.parametrize("level,degree,expected", [
    (2, 12, 12),       # n | deg: no branching at infinity
    (2, 11, 12),       # gcd = 1: branched at infinity
    (5, 3, 4),
    (3, 7, 8),
    (11, 2, 3),
])
def test_branch_count(level: int, degree: int, expected: int) -> None:
    tmpl = t(f(degree, 0))
    assert branch_count(level, tmpl) == expected


def test_branch_count_needs_a_nonconstant_f() -> None:
    assert branch_count(2, t(X)) == 2
    assert branch_count(3, t(f((1, 4), (0, 1)))) == 2
    with pytest.raises(NonSuperellipticError, match="constant"):
        branch_count(2, t(f((0, 3))))


def test_probe_prime_is_the_ith_prime_from_5() -> None:
    assert [family._probe_prime(i) for i in range(1, 31)] == \
        [sympy.prime(i + 2) for i in range(1, 31)]             # 5, 7, ..., 131: no cap
    assert family._probe_prime(1000) == sympy.prime(1002) == 7933   # the largest index


def test_branch_count_rejects_bad_shape() -> None:
    with pytest.raises(NonSuperellipticError):
        branch_count(4, t(f(6, 0)))        # 4 does not divide 6, gcd = 2
    with pytest.raises(NonSuperellipticError):
        branch_count(6, t(f(4, 0)))
    result = separability_probe(4, t(f(6, 0)))   # the probe reports it instead of raising
    assert not result.ok and result.messages == (
        "level 4 with degree 6: gcd 2 is neither 4 nor 1, so y^4 = f(x) is not in normal form",)


@pytest.mark.parametrize("level,points,genus", [
    (2, 12, 5), (11, 3, 5), (2, 6, 2), (5, 3, 2),
    (13, 3, 6), (3, 12, 10), (21, 3, 10),
])
def test_superelliptic_genus(level: int, points: int, genus: int) -> None:
    degree = points if points % level == 0 else points - 1   # unbranched at infinity, or not
    assert branch_count(level, degree) == points
    assert genus_of_family(level, degree) == genus


def test_superelliptic_genus_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError, match="level must be at least 2, got 1"):
        genus_of_family(1, 4)
    for level, degree in ((5, 1), (2, 2)):   # y^n = x, and a conic: two branch points
        with pytest.raises(ValueError, match="need at least 3 branch points, got 2"):
            genus_of_family(level, degree)


def test_every_normal_form_has_an_integral_genus() -> None:
    # pins the docstring's argument that 2g = (n - 1)(B - 2) is always even
    for level in range(2, 41):
        for degree in range(1, 201):
            try:
                points = branch_count(level, degree)
            except NonSuperellipticError:
                continue
            if points < 3:
                continue
            genus = Fraction((level - 1) * (points - 2), 2)
            assert genus.denominator == 1
            assert genus_of_family(level, degree) == genus


def _brute_force_levels(genus: int) -> set[tuple[int, int]]:
    out = set()
    for level in range(2, 2 * genus + 2):
        for points in range(3, 2 * genus + 3):
            if (level - 1) * (points - 2) == 2 * genus:
                out.add((level, points))
    return out


@pytest.mark.parametrize("genus", range(2, 13))
def test_enumerate_levels_matches_brute_force(genus: int) -> None:
    assert set(enumerate_levels(genus)) == _brute_force_levels(genus)


def test_enumerate_levels_frozen_examples() -> None:
    assert enumerate_levels(2) == ((2, 6), (3, 4), (5, 3))
    assert enumerate_levels(5) == ((2, 12), (3, 7), (6, 4), (11, 3))
    with pytest.raises(ValueError, match="genus must be at least 2"):
        enumerate_levels(1)


@given(st.integers(2, 5000))
def test_enumerate_levels_is_the_linear_walk(genus: int) -> None:
    # the definition the divisor walk up to sqrt(2g) replaced: every d in 1..2g
    target = 2 * genus
    assert enumerate_levels(genus) == tuple(
        (d + 1, target // d + 2) for d in range(1, target + 1) if target % d == 0)


def test_enumerate_levels_bounds_the_genus() -> None:
    top = enumerate_levels(MAX_LEVELS_GENUS)   # 2g = 10^12 = 2^12 5^12: 169 divisors
    assert len(top) == 169 and top[0] == (2, 10**12 + 2) and top[-1] == (10**12 + 1, 3)
    with pytest.raises(ValueError, match=f"genus must be at most {MAX_LEVELS_GENUS}, got "):
        enumerate_levels(MAX_LEVELS_GENUS + 1)
    with pytest.raises(ValueError) as exc:
        enumerate_levels(10**4000)
    assert len(str(exc.value)) < 200


def test_normal_form_admissibility() -> None:
    # of the four genus-5 splittings only two admit a normal form
    assert normal_form_admissible(2, 12)
    assert not normal_form_admissible(3, 7)
    assert not normal_form_admissible(6, 4)
    assert normal_form_admissible(11, 3)


def test_normal_form_admissible_guards_its_arguments_at_the_boundary() -> None:
    assert normal_form_admissible(2, 3) is False      # accepted: 3 branch points at level 2
    for level, points in ((1, 3), (2, 2)):
        with pytest.raises(ValueError, match="level >= 2"):
            normal_form_admissible(level, points)


def test_genus_implies_admissible_splitting_and_cyclic_branch_data() -> None:
    # verify reports a row's shape under "genus" alone; this is why no
    # separate splitting, normal-form or branch-residue check is needed.
    for level in range(2, 40):
        for degree in range(1, 90):
            try:
                genus = genus_of_family(level, t(f(degree)))
            except ValueError:
                continue
            if genus < 2:
                continue
            points = branch_count(level, t(f(degree)))
            assert normal_form_admissible(level, points)
            assert (level, points) in enumerate_levels(genus)
            # residues 1 at the roots, -degree at infinity when it branches:
            # all units mod level, summing to 0 mod level
            if points == degree + 1:
                assert gcd(level, degree) == 1
            else:
                assert points == degree and degree % level == 0


@pytest.mark.parametrize("level,tmpl,genus", [
    (2, t(F1), 5),
    (3, t(F1), 10),
    (2, t(f(4, (2, ("sqrt", 2)), 0), F1), 7),
    (2, t(f(1), f(4, (0, -1)), F1), 8),
    (2, t(f(8, (4, 14), 0), F1), 9),
    (2, t(f(20, (15, -228), (10, 494), (5, 228), 0)), 9),
    (3, t(f(1), f(10, (5, 11), (0, -1))), 10),
])
def test_genus_of_shared_special_families(level: int, tmpl: EquationTemplate,
                                          genus: int) -> None:
    assert genus_of_family(level, tmpl) == genus


def test_printed_equation_defects_change_the_genus() -> None:
    # Without its leading x factor this family drops from genus 6 to genus 4:
    printed = t(spread(6, 1, 5))
    assert genus_of_family(3, printed) == 4
    assert genus_of_family(3, t(f(1), spread(6, 1, 5))) == 6
    # and this one admits no normal form at all at its level:
    with pytest.raises(NonSuperellipticError):
        genus_of_family(4, t(spread(6, 1, 5)))
    assert genus_of_family(4, t(f(1), spread(6, 1, 5))) == 9


def test_separability_probe_accepts_generic_family() -> None:
    tmpl = t(f(1), f(6, (2, "a1"), (4, "a2"), 0))
    result = separability_probe(2, tmpl)
    assert result.ok
    assert result.messages == ()


def test_separability_probe_flags_degeneracies() -> None:
    bad = separability_probe(2, t(f(2, (1, ("a1", Fraction(2, 5))), 0)))   # (x+1)^2 at a_1 = 5
    assert not bad.ok
    assert any("repeated root" in m for m in bad.messages)
    good = separability_probe(2, t(f(2, (1, ("a1", Fraction(3, 5))), 0)))
    assert good.ok


def test_separability_probe_flags_degree_drop() -> None:
    tmpl = t(f(0, (2, 0)))           # 0x^2 + 1: the x^2 term vanishes
    result = separability_probe(2, tmpl)
    assert not result.ok


def test_template_json_round_trip() -> None:
    # Through the dataset export, which writes "radicand" and reads it back checked.
    for tmpl, radicand in (
        (t(f(1), f(6, (2, "a1"), (4, "a2"), 0)), 1),
        (t(F1), 1),
        (t(f(4, (2, ("sqrt", 2)), 0), F1), -3),
        (t(f(4, (2, ("a1", -1)), (0, Fraction(1, 3)))), 1),
    ):
        text, written = _export(tmpl)
        assert written == radicand
        assert dataset.from_json(text).get(3, 1).equation == tmpl


# -- the modular certificate and its exact fallback ------------------------------

def reduced(tmpl: EquationTemplate) -> tuple[int, ...] | None:
    """h with f = x^eps h(x^m) mod P, from the probe's walk (None: no certificate)."""
    return family._scan(tmpl)[2]


def certified(tmpl: EquationTemplate) -> bool:
    h = reduced(tmpl)
    return h is not None and family._euclid_mod_p(h)


def exact_probe(monkeypatch, level: int, tmpl: EquationTemplate):
    """The probe with the certificate switched off: the exact path alone."""
    with monkeypatch.context() as m:
        m.setattr(family, "_euclid_mod_p", lambda h: False)
        return separability_probe(level, tmpl)


def test_certificate_prime_has_a_square_root_of_minus_3() -> None:
    assert sympy.isprime(P)
    assert P < 2**30 and P % 12 == 7      # one CPython digit; 1 mod 3 and 3 mod 4
    assert P % 3 == 1 and P % 4 == 3
    assert SQRT_MINUS_3_MOD_P ** 2 % P == P - 3


def test_fast_and_exact_probes_agree_on_every_row(monkeypatch) -> None:
    rows = load_embedded().records
    assert len(rows) == 224
    for r in rows:
        assert certified(r.equation), r.key
        assert separability_probe(r.level, r.equation) == \
            exact_probe(monkeypatch, r.level, r.equation), r.key


def test_embedded_rows_reduce_to_42_short_polynomials_in_y() -> None:
    hs = [reduced(r.equation) for r in load_embedded()]
    assert len(set(hs)) == 42                     # Euclid runs 42 times, not 224
    assert sum(len(h) ** 2 for h in hs) == 7876   # against 40,085 for f in x


def _drop_constant(tmpl: EquationTemplate) -> EquationTemplate | None:
    """x*(...+c)*... with the fixed constant c dropped, so x^2 divides f."""
    if len(tmpl.factors) < 2:
        return None
    first, second, *rest = tmpl.factors
    if (first != X or len(second) < 2
            or not any(u.exponent == 0 and isinstance(u.coeff, QuadNum) for u in second)):
        return None
    second = tuple(u for u in second if u.exponent != 0)
    return EquationTemplate((first, second, *rest))


def test_dropped_constant_fails_both_paths_alike(monkeypatch) -> None:
    shaped = [(r, bad) for r in load_embedded()
              if (bad := _drop_constant(r.equation)) is not None]
    assert len(shaped) == 102
    for r, bad in shaped:
        assert not certified(bad), r.key
        fast = separability_probe(r.level, bad)
        assert not fast.ok
        assert fast == exact_probe(monkeypatch, r.level, bad), r.key


# ``values``: the probe's a_i that a case's scales were chosen against.
@pytest.mark.parametrize("tmpl,values", [
    (t(f(1, (0, 1)), f(0, (3, ("a1", Fraction(P, 5))))), {1: 5}),   # (x+1)(P*x^3+1): degree drops mod P
    (t(f(2, (1, ("a1", Fraction(P + 2, 5))), (0, 1))), {1: 5}),     # x^2+(P+2)x+1 = (x+1)^2 mod P
    (t(f(2, (1, Fraction(1, P)), 0)), None),                    # denominator P
    (t(f(2, (1, ("a1", Fraction(1, P))), 0)), None),            # parameter scale 1/P
    (t(f(2, (0, -P))), None),                                   # x^2 - P: x^2 mod P
])
def test_forced_fallbacks_return_the_exact_result(monkeypatch, tmpl, values) -> None:
    assert all(family._probe_prime(i) == v for i, v in (values or {}).items())
    assert not certified(tmpl)
    result = separability_probe(2, tmpl)
    assert result == exact_probe(monkeypatch, 2, tmpl)
    assert result.ok


def test_a_i_takes_the_ith_prime_when_indices_skip(monkeypatch) -> None:
    # a_2 is the only parameter and still takes 7, the second prime, so
    # x^2 + 7x + 25/4 is separable; at a_2 = 5 it would be (x + 5/2)^2.
    tmpl = t(f(2, (1, "a2"), (0, Fraction(25, 4))))
    result = separability_probe(2, tmpl)
    assert result.ok and certified(tmpl)
    assert result == exact_probe(monkeypatch, 2, tmpl)
    assert separability_probe(2, t(f(3, (2, "a5"), (1, "a2"), 0))) == (3, (2, 5), ())


def test_certificate_is_withheld_when_the_degree_reaches_p() -> None:
    # f = x^P - P*x + P - 1 has a double root at 1, as f(1) = f'(1) = 0.  Mod P
    # it is x^P - 1 = h(x^P) with h = y - 1 separable: the lemma needs P > deg f.
    # (Only the walk is called: the exact path cannot expand f at this degree.)
    assert family._scan(t(f(P, (1, -P), (0, P - 1)))) == (P, (), None)


def test_separable_mod_p_on_coefficient_lists() -> None:
    assert is_separable_mod_p([-1, 0, 1], P)           # x^2 - 1
    assert not is_separable_mod_p([1, 2, 1], P)        # (x + 1)^2
    assert not is_separable_mod_p([P, 0, 1], P)        # x^2 mod P
    assert is_separable_mod_p([5], P)
    assert not is_separable_mod_p([P, 2 * P], P)       # zero mod P


_INTEGER = st.one_of(st.integers(-6, 6), st.sampled_from((P, -P, 2 * P)))
_NUMBER = st.one_of(
    _INTEGER.map(QuadNum),
    st.tuples(_INTEGER, st.integers(-3, 3)).map(lambda ab: QuadNum(*ab)))


@st.composite
def _factors(draw, max_degree: int = 4) -> tuple[Term, ...]:
    coeffs = draw(st.lists(_NUMBER, min_size=1, max_size=max_degree + 1))
    terms = tuple(Term(e, c) for e, c in enumerate(coeffs) if c)
    return terms or (Term(0, QuadNum(1)),)


@given(st.lists(_factors(), min_size=1, max_size=3))
def test_certificate_never_accepts_an_inseparable_polynomial(factors) -> None:
    tmpl = EquationTemplate(tuple(factors))
    if certified(tmpl):
        poly = tmpl.instantiate()
        assert poly.degree == tmpl.degree
        assert is_separable(poly)


@given(_factors(), _factors().filter(lambda h: max(u.exponent for u in h) > 0))
def test_certificate_rejects_every_square_factor(g, h) -> None:
    assert not certified(EquationTemplate((g, h, h)))


# -- the reduced certificate equals the dense one ----------------------------------

def _residue(q: QuadNum) -> int | None:
    if q.a.denominator % P == 0 or q.b.denominator % P == 0:
        return None
    return (q.a.numerator * pow(q.a.denominator, -1, P)
            + q.b.numerator * pow(q.b.denominator, -1, P) * SQRT_MINUS_3_MOD_P) % P


def dense_reduce_mod_p(tmpl: EquationTemplate) -> list[int] | None:
    """f mod P expanded densely in x, as the certificate did before y = x^m."""
    product = [1]
    for factor in tmpl.factors:
        dense = [0] * (1 + max(u.exponent for u in factor))
        for u in factor:
            c = u.coeff
            if isinstance(c, ParamCoeff):              # a_i is the i-th prime from 5
                c = QuadNum(sympy.prime(c.index + 2) * c.scale)
            c = _residue(c)
            if c is None:
                return None
            dense[u.exponent] = c
        if not dense[-1]:
            return None
        out = [0] * (len(product) + len(dense) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(dense):
                out[i + j] += a * b
        product = [c % P for c in out]
    return product


def _in_y(coeffs) -> list[int]:
    """x^lo g(x^m) -> g, with lo the lowest and m the gcd of all exponents in use."""
    used = [e for e, c in enumerate(coeffs) if c]
    m = gcd(*(e - used[0] for e in used)) or 1
    return list(coeffs[used[0]::m])


_SMALL = st.integers(-6, 6)
_RATIONAL = st.one_of(_SMALL, st.builds(Fraction, _SMALL, st.sampled_from((2, 3))))
_SQRT = st.tuples(_RATIONAL, _SMALL.filter(bool)).map(lambda ab: QuadNum(*ab))
# numbers that vanish mod P or have no image in F_P
_SPECIAL = st.sampled_from((QuadNum(P), QuadNum(-2 * P), QuadNum(Fraction(1, P)),
                            QuadNum(Fraction(P, 2)), QuadNum(0, P), QuadNum(1, Fraction(1, P))))


def _valued(c: QuadNum | ParamCoeff, values: dict) -> QuadNum | ParamCoeff:
    """A parameter given a value: scaled to take it at the probe point, or the
    fixed number itself when it is 0 or irrational, which no scale can give."""
    if isinstance(c, QuadNum) or c.index not in values:
        return c
    v = values[c.index] * QuadNum(c.scale)
    return v if v.b or not v else ParamCoeff(c.index, v.a / sympy.prime(c.index + 2))


@st.composite
def _sparse_case(draw) -> EquationTemplate:
    """Sparse factors with exponents lo + step*k (k = 0 alone: the monomial c x^lo).

    The lowest exponents give f = x^eps h(x^m) with eps 0 or 1, or x^2 | f
    from one or from two factors; half the cases draw special numbers.  The
    parameters a_1, a_2 and maybe a_3 get drawn values; a_3 may keep its prime.
    """
    special = draw(st.booleans())
    number = st.one_of(_RATIONAL.map(QuadNum), _SQRT, *([_SPECIAL] if special else []))
    scale = st.sampled_from((1, -1, 2, Fraction(-1, 3), *((P, Fraction(1, P)) if special else ())))
    coeff = st.one_of(number.filter(bool),
                      st.builds(ParamCoeff, st.integers(1, 3), scale))
    factors = []
    for lo in draw(st.sampled_from(((0,), (0, 0), (0, 0, 0), (1,), (0, 1), (0, 0, 1),
                                    (2,), (0, 2), (1, 1), (0, 1, 1)))):
        step = draw(st.integers(1, 4))
        ks = {0} | draw(st.sets(st.integers(1, 4), max_size=3))
        factors.append(tuple(Term(lo + step * k, draw(coeff)) for k in sorted(ks)))
    if draw(st.booleans()):                       # a repeated factor
        factors.append(draw(st.sampled_from(factors)))
    values = draw(st.fixed_dictionaries({1: number, 2: number}, optional={3: number}))
    factors = [tuple(Term(u.exponent, _valued(u.coeff, values)) for u in factor)
               for factor in factors]
    return EquationTemplate(tuple(draw(st.permutations(factors))))


@settings(max_examples=200)
@given(_sparse_case())
def test_reduced_certificate_equals_the_dense_one(tmpl) -> None:
    family._euclid_mod_p.cache_clear()
    f = dense_reduce_mod_p(tmpl)
    assert certified(tmpl) == \
        (f is not None and is_separable_mod_p(f, P))
    degree, indices, h = family._scan(tmpl)
    assert (degree, indices) == (tmpl.degree, tmpl.parameter_indices)
    if h is not None:                             # f = x^eps h(x^m), eps <= 1
        assert h[0] and any(f[:2]) and _in_y(h) == _in_y(f)
    elif f is not None:                           # no h only when x^2 divides f
        assert not any(f[:2])


@given(_sparse_case())
def test_the_factor_walk_memo_keys_on_the_object(tmpl) -> None:
    # a template rebuilt from fresh, equal terms and coefficients is walked
    # afresh and gives the same triple; the memo's entries keep their factors
    def fresh(c):
        return QuadNum(c.a, c.b) if isinstance(c, QuadNum) else ParamCoeff(c.index, c.scale)

    scan = family._scan(tmpl)
    rebuilt = EquationTemplate(tuple(tuple(Term(u.exponent, fresh(u.coeff)) for u in factor)
                                     for factor in tmpl.factors))
    assert all(id(a) != id(b) for a, b in zip(rebuilt.factors, tmpl.factors))
    assert family._scan(rebuilt) == scan == family._scan(tmpl)
    for factor in (*tmpl.factors, *rebuilt.factors):
        assert family._WALKS[id(factor)][0] is factor

"""Signatures: parsing, the genus relation, dimensions, and misprint repair."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from superelliptic.signature import (InconsistentSignatureError, Signature, SignatureRepair,
                                     _quotient_genus_exact, complete_signature,
                                     moduli_dimension, quotient_genus)


def test_parse_render_round_trip() -> None:
    for text in ("2^8", "2^3,4^2", "2,3^2,6", "2,11,22", "3", "2^2,4^3"):
        assert Signature.parse(text).render() == text


def test_parse_normalises_order_and_merging() -> None:
    assert Signature.parse("4^2, 2^3").render() == "2^3,4^2"
    assert Signature.parse("2,2,2").render() == "2^3"
    assert Signature.parse("2, 5, 5, 10").render() == "2,5^2,10"
    assert Signature.of(6, 2, 2, 3, 3).render() == "2^2,3^2,6"


@pytest.mark.parametrize("bad", ["", "1,2", "2^0", "x", "2;3", "0^2"])
def test_parse_rejects_garbage(bad: str) -> None:
    with pytest.raises(ValueError):
        Signature.parse(bad)


def test_structure_queries() -> None:
    sig = Signature.parse("2^3,4^2")
    assert sig.orders == (2, 2, 2, 4, 4)
    assert sig.point_count == 5
    assert sig.has_odd_multiplicity        # 2 appears three times
    assert not Signature.parse("2^2,4^2").has_odd_multiplicity
    assert _ramification_sum(sig) == Fraction(3, 2) + Fraction(3, 2)


# Frozen oracle: (genus, |G|, signature, quotient genus), each verified by
# hand against 2(g-1) = 2|G|(g0-1) + |G| * sum(1 - 1/c).
GENUS_RELATION_CASES = [
    (3, 2, "2^8", 0),
    (3, 16, "2^3,4", 0),
    (5, 120, "2,3,10", 0),
    (6, 6, "2^4,6^2", 0),
    (6, 96, "2,3,16", 0),
    (9, 38, "2,19,38", 0),
    (10, 180, "2,3,15", 0),
    (2, 2, "2^2", 1),
    (3, 2, "", 2),
]


@pytest.mark.parametrize("genus,order,sig,expected", GENUS_RELATION_CASES)
def test_quotient_genus(genus: int, order: int, sig: str, expected: int) -> None:
    signature = Signature.parse(sig) if sig else Signature.of()
    assert quotient_genus(genus, order, signature) == expected


def test_quotient_genus_failure_carries_residue() -> None:
    with pytest.raises(InconsistentSignatureError) as exc:
        quotient_genus(6, 6, Signature.parse("2^3,3^2,6^2"))
    assert exc.value.residue == Fraction(-5, 12)
    assert "quotient genus" in str(exc.value)


def test_moduli_dimension() -> None:
    assert moduli_dimension(0, 3) == 0
    assert moduli_dimension(0, 7) == 4
    assert moduli_dimension(1, 1) == 1
    with pytest.raises(ValueError):
        moduli_dimension(0, 2)
    with pytest.raises(ValueError, match="quotient genus must be non-negative"):
        moduli_dimension(-1, 4)


def test_moduli_dimension_of_a_quotient_without_cone_points() -> None:
    # r = 0 is allowed once g0 >= 1 (the tour demo passes a computed g0)
    assert moduli_dimension(1, 0) == 0
    assert moduli_dimension(2, 0) == 3
    with pytest.raises(ValueError, match="cone point count"):
        moduli_dimension(2, -1)


# The eleven misprinted signatures, frozen: printed -> forced correction.
# The genus and group order come from each row's level and m columns.
REPAIR_CASES = [
    (5, 22, "2,22,22", "2,11,22", False),
    (9, 30, "3,10^2", "3,10,30", False),
    (9, 28, "4,7^2", "4,7,28", True),      # 7^3 also balances
    (9, 28, "4^2,7", "4,7,28", False),
    (9, 30, "3^2,10", "3,10,30", False),
    (9, 38, "2^2,19", "2,19,38", False),
    (10, 42, "2,4,21", "2,21,42", False),
    (10, 33, "3,11^2", "3,11,33", False),
    (10, 30, "5,6^2", "5,6,30", True),     # 6^2,15 also balances
    (10, 30, "5^2,6", "5,6,30", False),
    (10, 33, "3^2,11", "3,11,33", False),
]


@pytest.mark.parametrize("genus,order,printed,expected,ambiguous", REPAIR_CASES)
def test_misprint_repair(genus: int, order: int, printed: str, expected: str,
                         ambiguous: bool) -> None:
    repair = complete_signature(genus, order, Signature.parse(printed))
    assert repair.status == "corrected"
    assert repair.effective.render() == expected
    assert repair.ambiguous is ambiguous
    if ambiguous:
        assert len(repair.candidates) >= 2
    # idempotent: the corrected signature needs no further repair
    again = complete_signature(genus, order, repair.effective)
    assert again.status == "consistent"
    assert again.effective == repair.effective


def test_repair_ambiguous_candidates_all_balance() -> None:
    repair = complete_signature(9, 28, Signature.parse("4,7^2"))
    assert {c.render() for c in repair.candidates} == {"4,7,28", "7^3"}
    for candidate in repair.candidates:
        assert quotient_genus(9, 28, candidate) == 0


def test_repair_by_appending() -> None:
    # drop the largest order from a quasiplatonic row and repair recovers it
    repair = complete_signature(5, 22, Signature.parse("2,11"))
    assert repair.status == "completed"
    assert repair.effective.render() == "2,11,22"
    assert repair.edit == "appended 22"


def test_consistent_signature_untouched() -> None:
    sig = Signature.parse("2,3^2,6")
    repair = complete_signature(3, 6, sig)
    assert repair.status == "consistent"
    assert repair.effective is sig
    assert not repair.changed


def test_unrepairable_signature() -> None:
    repair = complete_signature(6, 6, Signature.parse("2^3,3^2,6^2"))
    assert repair.status == "unrepairable"


def _reference_repair(genus: int, group_order: int, sig: Signature) -> SignatureRepair:
    """Repair by search, as the package did before the closed form: try every
    divisor >= 2 of |G| as an appended order, then as a replacement for each
    printed order, solving the genus relation for every candidate."""
    g0 = _quotient_genus_exact(genus, group_order, sig)
    if g0 == 0:
        return SignatureRepair("consistent", sig)
    allowed = [d for d in range(2, group_order + 1) if group_order % d == 0]

    appended: list[tuple[Signature, str]] = []
    for c in allowed:
        cand = Signature(sig.entries + ((c, 1),))
        if _quotient_genus_exact(genus, group_order, cand) == 0:
            appended.append((cand, f"appended {c}"))
    if appended:
        chosen, edit = appended[0]
        return SignatureRepair("completed", chosen, tuple(s for s, _ in appended), edit,
                               ambiguous=len(appended) > 1)

    replaced: list[tuple[int, int, Signature]] = []
    seen: set[Signature] = set()
    for old, _ in sig.entries:
        rest = list(sig.orders)
        rest.remove(old)
        for new in allowed:
            cand = Signature.of(*rest, new)
            if new != old and cand not in seen \
                    and _quotient_genus_exact(genus, group_order, cand) == 0:
                seen.add(cand)
                replaced.append((old, new, cand))
    if replaced:
        replaced.sort(key=lambda t: (-t[0], t[1]))
        old, new, chosen = replaced[0]
        return SignatureRepair("corrected", chosen, tuple(c for _, _, c in replaced),
                               f"replaced {old} with {new}", ambiguous=len(replaced) > 1)
    return SignatureRepair("unrepairable", sig)


def test_closed_form_repair_matches_divisor_search() -> None:
    # |G| of the misprinted rows and their neighbours, one to three printed
    # orders from the divisors of |G| plus 5 (an order the closed form may
    # answer with a non-divisor), genus 2-7: 2,118 cases
    outcomes: Counter = Counter()
    for order in (6, 12, 22, 28, 30):
        pool = sorted({d for d in range(2, order + 1) if order % d == 0} | {5})
        for r in (1, 2, 3):
            for orders in itertools.combinations_with_replacement(pool, r):
                sig = Signature.of(*orders)
                for genus in range(2, 8):
                    repair = complete_signature(genus, order, sig)
                    assert repair == _reference_repair(genus, order, sig), (genus, order, sig)
                    outcomes[repair.status, repair.ambiguous] += 1
    assert sum(outcomes.values()) == 2118
    # every outcome occurs, an ambiguous correction included
    assert set(outcomes) == {("consistent", False), ("completed", False),
                             ("corrected", False), ("corrected", True),
                             ("unrepairable", False)}


def _ramification_sum(sig: Signature) -> Fraction:
    """sum over cone points of (1 - 1/c), in Fractions."""
    return sum((mult * (1 - Fraction(1, order)) for order, mult in sig.entries), Fraction(0))


def _reference_quotient_genus_exact(genus: int, group_order: int, sig: Signature) -> Fraction:
    """The genus relation in Fractions, as the package solved it before the
    integer form: g0 = (2(g - 1) - |G| * sum(1 - 1/c)) / (2|G|) + 1."""
    if group_order < 1:
        raise ValueError(f"group order must be positive, got {group_order}")
    if genus < 2:
        raise ValueError(f"curve genus must be at least 2, got {genus}")
    rhs = Fraction(2 * (genus - 1)) - group_order * _ramification_sum(sig)
    return rhs / (2 * group_order) + 1


def _outcome(solve, *args):
    """A solver's value, or its exception's type, message and residue."""
    try:
        return solve(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "residue", None)


def test_integer_quotient_genus_matches_fraction_formula() -> None:
    # genus -1, 0, 1 (below 2) and 2, 3, 5, 8, 10; |G| -1, 0, 1-12, 24, 48,
    # 60, 120; one to three cone orders from 2-6, 10, 12, and four table
    # signatures: 17,712 cases
    pool = (2, 3, 4, 5, 6, 10, 12)
    sigs = [Signature.of(*orders) for r in (1, 2, 3)
            for orders in itertools.combinations_with_replacement(pool, r)]
    sigs += [Signature.parse(s) for s in ("2^5,4^2", "2^8", "3^6", "2^3,3^2,6^2")]
    cases = inconsistent = 0
    for genus in (-1, 0, 1, 2, 3, 5, 8, 10):
        for order in (-1, 0, *range(1, 13), 24, 48, 60, 120):
            for sig in sigs:
                cases += 1
                g0 = _outcome(_reference_quotient_genus_exact, genus, order, sig)
                assert _outcome(_quotient_genus_exact, genus, order, sig) == g0
                if isinstance(g0, Fraction) and (g0.denominator != 1 or g0 < 0):
                    inconsistent += 1
                    error = InconsistentSignatureError(
                        f"signature {sig} with group order {order} does not fit a "
                        f"genus-{genus} curve", g0)
                    g0 = InconsistentSignatureError, str(error), g0
                assert _outcome(quotient_genus, genus, order, sig) == g0
    assert cases == 17_712 and inconsistent == 9_658

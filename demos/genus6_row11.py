"""The one row where fixing a misprint changes the classification.

Genus 6, row 11: a 3-dimensional family of level-2 covers with reduced
group C_3, defining equation x(x^12 + a_1 x^3 + a_2 x^6 + a_3 x^9 + 1).
Its printed signature fails the genus relation so badly that no single
edit can balance it; the correction forced by the equation itself has
only even multiplicities, and that flips the definability verdict.
"""

from __future__ import annotations

from fractions import Fraction

from superelliptic import (InconsistentSignatureError, Signature, classify,
                           classify_record, load_embedded, moduli_dimension,
                           quotient_genus, repair_signature)

PRINTED = "2^3,3^2,6^2"


def main() -> None:
    ds = load_embedded()
    row = ds.get(6, 11)
    order = row.group_order()
    print(f"genus 6, row 11: y^2 = {row.equation.render()}")
    print(f"full group of order {order}, printed signature {PRINTED!r}\n")

    # 1. The printed signature balances no genus relation.
    try:
        quotient_genus(row.genus, order, Signature.parse(PRINTED))
        raise AssertionError("printed signature unexpectedly balances")
    except InconsistentSignatureError as exc:
        residue = exc.residue
        print(f"printed signature: quotient genus would be {residue} "
              f"- not an integer, impossible")
    assert residue == Fraction(-5, 12)

    # 2. Even ignoring divisibility, its orbit count contradicts the
    #    printed dimension: 7 branch orbits would mean dimension 4, not 3.
    printed_points = Signature.parse(PRINTED).point_count
    print(f"printed signature has {printed_points} orbits -> dimension "
          f"{moduli_dimension(0, printed_points)}, but the table says "
          f"{row.delta}")

    # 3. What the equation forces.  The order-3 rotation acts on the 14
    #    branch points of x(x^12+a_1x^3+a_2x^6+a_3x^9+1) with two fixed
    #    points (0 and infinity, fused into cone points of order 6 with the
    #    hyperelliptic involution) and four free orbits of order-2 points.
    resolution = repair_signature(row)
    sig = resolution.effective
    print(f"\nforced correction: {sig.render()!r} "
          f"(status: {resolution.status})")
    print(f"  quotient genus {quotient_genus(row.genus, order, sig)}, "
          f"{sig.point_count} orbits -> dimension "
          f"{moduli_dimension(0, sig.point_count)}  [matches the table]")

    # 4. The consequence: every multiplicity is even, the reduced group is
    #    cyclic, the family is not rigid - no criterion applies.
    verdict = classify(row.reduced_group(), sig, row.delta)
    print(f"\nmultiplicities all even: {not sig.has_odd_multiplicity}")
    print(f"verdict: {verdict.verdict} ({verdict.theorem})")
    assert not classify_record(row).is_definable

    # 5. ... yet the table does not highlight the row, although the same
    #    family one genus down or up is highlighted everywhere it occurs.
    print(f"\nhighlighted in the table: {row.highlighted}")
    print("the analogous families elsewhere:")
    for g, nr in ((5, 2), (8, 2), (9, 16)):
        twin = ds.get(g, nr)
        print(f"  genus {g} row {nr}: y^2 = {twin.equation.render()}, "
              f"signature {repair_signature(twin).effective.render()}, "
              f"highlighted: {twin.highlighted}")


if __name__ == "__main__":
    main()

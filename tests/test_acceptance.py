"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Criterion 2 (reproduction of the published highlighting) checks the
recomputed possibly-not-definable rows against the highlighting as printed,
corrected by the errata in ``HIGHLIGHTING_ERRATA``.  There is one: genus-6
row 11, whose printed signature is internally inconsistent and whose forced
correction places it among the possibly-not-definable cases although the
published table does not highlight it.  The criterion asserts the evidence
for that erratum as well, and fails if the ``classification`` entries of
``tables.ERRATA`` drift from it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from superelliptic import tables
from superelliptic.classify import Reason
from superelliptic.dataset import (classify_record, export_csv, from_json,
                                   load_embedded, repair_signature, to_json)
from superelliptic.family import (branch_count, enumerate_levels,
                                  genus_of_family, separability_probe)
from superelliptic.signature import (InconsistentSignatureError, Signature,
                                     complete_signature, quotient_genus)

EXPECTED_ROW_COUNTS = {3: 5, 4: 9, 5: 20, 6: 36, 7: 27, 8: 22, 9: 50, 10: 55}

PUBLISHED_HIGHLIGHTED = {
    3: {1, 2},
    4: {1, 3, 5},
    5: {1, 2, 6},
    6: {9, 10, 13, 15},
    7: {1, 2, 11},
    8: {2, 6, 7, 8},
    9: {1, 3, 4, 14, 16, 20},
    10: {2, 3, 16, 17, 19, 20, 23},
}

# Published highlighting entries proven wrong, with the effective signature
# that refutes each.  Genus 6 row 11, y^2 = x(x^12+a_1x^3+a_2x^6+a_3x^9+1),
# is printed with 2^3,3^2,6^2: that balances no genus relation (quotient
# genus -5/12), and its 7 orbits would give dimension 4 where the table says
# 3.  The order-3 rotation x -> zeta*x fixes only 0 and infinity.  Both are
# branch points (f has a root at 0 and odd degree 13), so each carries cone
# order 2*3 = 6.  The other 12 roots fall into 4 free orbits, cone order 2.
# Hence 2^4,6^2: quotient genus 0, 6 orbits, dimension 3.  Every
# multiplicity is even and the reduced group C_3 is cyclic, so neither
# sufficiency criterion (a non-cyclic reduced group, an odd multiplicity)
# applies and the row is possibly not definable, like the highlighted rows
# of the same shape (genus 5 nr 2, genus 8 nr 2, genus 9 nr 16).
HIGHLIGHTING_ERRATA = {(6, 11): "2^4,6^2"}

# The rest of the hand derivation for each erratum row: the quotient-genus
# residue of the printed signature and the number of branch points.
ERRATUM_HAND_FACTS = {(6, 11): (Fraction(-5, 12), 14)}

REPAIRABLE_MISPRINTS = {(5, 5), (9, 8), (9, 9), (9, 11), (9, 12), (9, 13),
                        (10, 8), (10, 9), (10, 12), (10, 13), (10, 14)}


@pytest.fixture(scope="module")
def ds():
    return load_embedded()


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {number}: {status} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_row_counts(ds) -> None:
    counts = {g: len(ds.genus_rows(g)) for g in ds.genera}
    ok = counts == EXPECTED_ROW_COUNTS and len(ds) == 224
    _report(1, ok, f"per-genus row counts {counts}, total {len(ds)}")


def _erratum_evidence(ds, key, corrected: str) -> list[str]:
    """Everything that must hold for the published entry at ``key`` to be wrong."""
    r = ds.get(*key)
    residue, branch_points = ERRATUM_HAND_FACTS[key]
    oracle = Signature.parse(corrected)
    effective = repair_signature(r).effective
    problems = []
    try:
        quotient_genus(r.genus, r.group_order(), r.signature)
        problems.append("printed signature balances")
    except InconsistentSignatureError as exc:
        if exc.residue != residue:
            problems.append(f"printed residue {exc.residue}, expected {residue}")
    if effective != oracle:
        problems.append(f"effective signature {effective}, expected {oracle}")
    if quotient_genus(r.genus, r.group_order(), oracle) != 0:
        problems.append("corrected signature has non-zero quotient genus")
    if oracle.point_count - 3 != r.delta:
        problems.append(f"{oracle.point_count} orbits vs dimension {r.delta}")
    if (genus_of_family(r.level, r.equation) != r.genus
            or branch_count(r.level, r.equation) != branch_points):
        problems.append(f"equation is not a genus-{r.genus} family with "
                        f"{branch_points} branch points")
    if (oracle.has_odd_multiplicity or not r.reduced_group().is_cyclic_or_trivial
            or r.delta == 0):
        problems.append("a sufficiency criterion applies")
    return [f"{key}: {p}" for p in problems]


def test_criterion_2_highlighted_rows_reproduced(ds) -> None:
    computed = {
        g: {r.number for r in ds.genus_rows(g)
            if not classify_record(r).is_definable}
        for g in ds.genera
    }
    expected = {
        g: PUBLISHED_HIGHLIGHTED[g] ^ {n for h, n in HIGHLIGHTING_ERRATA if h == g}
        for g in ds.genera
    }
    problems = []
    printed = {g: (sorted(ds.highlighted_numbers(g)),
                   sorted(PUBLISHED_HIGHLIGHTED[g]))
               for g in ds.genera
               if set(ds.highlighted_numbers(g)) != PUBLISHED_HIGHLIGHTED[g]}
    if printed:
        problems.append(f"dataset vs published highlighting differs: {printed}")
    mismatches = {g: (sorted(computed[g]), sorted(expected[g]))
                  for g in ds.genera if computed[g] != expected[g]}
    if mismatches:
        problems.append(f"recomputed vs published-with-errata highlighting "
                        f"differs: {mismatches}")
    for key, corrected in HIGHLIGHTING_ERRATA.items():
        problems.extend(_erratum_evidence(ds, key, corrected))
    registered = sorted((e.genus, e.number) for e in tables.ERRATA
                        if e.code == "classification")
    if registered != sorted(HIGHLIGHTING_ERRATA):
        problems.append(f"registered discrepancies {registered} are not "
                        f"the asserted errata {sorted(HIGHLIGHTING_ERRATA)}")
    errata = ", ".join(
        f"genus {g} row {n} (printed {ds.get(g, n).signature} balances "
        f"nothing; its equation forces {sig}, so no criterion applies)"
        for (g, n), sig in sorted(HIGHLIGHTING_ERRATA.items()))
    _report(2, not problems,
            "; ".join(problems) or
            "recomputed possibly-not-definable sets match the published "
            f"highlighting for every genus, except the asserted erratum "
            f"{errata}")


def test_criterion_3_signature_misprints_found_and_repaired(ds) -> None:
    corrected, unrepairable = set(), set()
    for record in ds:
        repair = complete_signature(record.genus, record.group_order(),
                                    record.signature)
        if repair.status in ("completed", "corrected"):
            corrected.add(record.key)
        elif repair.status == "unrepairable":
            unrepairable.add(record.key)
    scan_ok = corrected == REPAIRABLE_MISPRINTS and unrepairable == {(6, 11)}
    balanced = all(
        quotient_genus(r.genus, r.group_order(),
                       repair_signature(r).effective) == 0
        for r in ds)
    _report(3, scan_ok and balanced,
            f"independent scan found {len(corrected)} single-edit misprints "
            f"and {len(unrepairable)} beyond-single-edit case(s) "
            f"{sorted(unrepairable)}; every effective signature balances the "
            f"genus relation over a genus-0 quotient")


def test_criterion_4_dimension_column(ds) -> None:
    bad = [r.key for r in ds
           if repair_signature(r).effective.point_count - 3 != r.delta]
    _report(4, not bad,
            f"printed dimension equals (branch orbits - 3) for all 224 rows"
            + (f"; exceptions {bad}" if bad else ""))


def test_criterion_5_equations_give_the_right_genus(ds) -> None:
    wrong_genus = [r.key for r in ds
                   if genus_of_family(r.level, r.equation) != r.genus]
    wrong_params = [r.key for r in ds
                    if r.equation.parameter_count != r.delta]
    ok = not wrong_genus and not wrong_params
    _report(5, ok,
            "every defining polynomial has the row's genus at the row's level "
            "and one free coefficient per dimension"
            + (f"; genus exceptions {wrong_genus}" if wrong_genus else "")
            + (f"; parameter exceptions {wrong_params}" if wrong_params else ""))


def test_criterion_6_level_enumeration(ds) -> None:
    frozen_ok = (enumerate_levels(2) == ((2, 6), (3, 4), (5, 3))
                 and enumerate_levels(5) == ((2, 12), (3, 7), (6, 4), (11, 3)))
    outside = [r.key for r in ds
               if (r.level, branch_count(r.level, r.equation))
               not in enumerate_levels(r.genus)]
    _report(6, frozen_ok and not outside,
            "level/branch-point splittings enumerate correctly and every "
            "table row realises one of them"
            + (f"; rows outside {outside}" if outside else ""))


def test_criterion_7_classifier_properties(ds) -> None:
    problems = []
    for r in ds:
        verdict = classify_record(r)
        effective = repair_signature(r).effective
        # Wolfart's theorem, stated on its own: a rigid (quasiplatonic) family
        # is definable, whichever criterion decides it.
        if r.delta == 0 and not verdict.is_definable:
            problems.append((r.key, "rigid but not definable"))
        if not r.reduced_group().is_cyclic_or_trivial \
                and verdict.reason is not Reason.UNIQUE_SUBGROUP:
            problems.append((r.key, "non-cyclic reduced group not decided "
                                    "by the subgroup criterion"))
        if not verdict.is_definable:
            if effective.has_odd_multiplicity:
                problems.append((r.key, "odd multiplicity yet undecided"))
            if not r.reduced_group().is_cyclic_or_trivial or r.delta == 0:
                problems.append((r.key, "undecided despite an applicable "
                                        "criterion"))
    _report(7, not problems,
            "verdicts respect the two sufficiency criteria (a non-cyclic "
            "reduced group, an odd multiplicity) and their priority on all "
            "rows, and every rigid row is definable"
            + (f"; violations {problems}" if problems else ""))


def test_criterion_8_round_trips(ds) -> None:
    text = to_json(ds)
    clone = from_json(text)
    json_ok = to_json(clone) == text and clone.records == ds.records
    csv_ok = all(export_csv(ds, g) == export_csv(clone, g) for g in ds.genera)
    _report(8, json_ok and csv_ok,
            "dataset JSON round-trips byte-identically and CSV export is "
            "reproducible from the reloaded dataset")


def test_criterion_9_genericity_probe(ds) -> None:
    failing = [(r.key, probe.messages) for r in ds
               if not (probe := separability_probe(r.level, r.equation)).ok]
    _report(9, not failing,
            "every family stays separable with the correct degree at the "
            "fixed rational probe point"
            + (f"; failures {failing}" if failing else ""))

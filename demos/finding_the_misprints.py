"""Rediscover every misprinted signature in the tables from scratch.

A signature must balance the genus relation

    2(g - 1) = -2|G| + |G| * sum(1 - 1/c_i)

over a genus-0 quotient.  For each of the 224 rows we test the printed
signature and, when it fails, search for all single-edit completions
(append one cone order, or replace one) whose orders divide |G|.  The
search recovers exactly the published corrections — and one row no single
edit can save.
"""

from __future__ import annotations

from superelliptic import complete_signature, load_embedded, repair_signature


def main() -> None:
    ds = load_embedded()
    consistent = 0
    repaired = []
    hopeless = []

    for row in ds:
        repair = complete_signature(row.genus, row.group_order(), row.signature)
        if repair.status == "consistent":
            consistent += 1
        elif repair.status == "unrepairable":
            hopeless.append(row)
        else:
            repaired.append((row, repair))

    print(f"{consistent} printed signatures balance the genus relation as-is.")
    print(f"{len(repaired)} are misprints fixable by a single edit:\n")
    for row, repair in repaired:
        flag = "  [several edits balance; chose the published-style one]" \
            if repair.ambiguous else ""
        print(f"  genus {row.genus:2d} row {row.number:2d}: "
              f"{row.signature.render()!r} -> {repair.effective.render()!r} "
              f"({repair.edit}){flag}")
        if repair.ambiguous:
            alts = ", ".join(s.render() for s in repair.candidates)
            print(f"      all balancing candidates: {alts}")

    print(f"\n{len(hopeless)} signature(s) cannot be repaired by any single edit:")
    for row in hopeless:
        resolution = repair_signature(row)
        print(f"  genus {row.genus} row {row.number}: {row.signature.render()!r}")
        print(f"      corrected from the row's own equation and dimension to "
              f"{resolution.effective.render()!r}")

    assert consistent + len(repaired) + len(hopeless) == len(ds)


if __name__ == "__main__":
    main()

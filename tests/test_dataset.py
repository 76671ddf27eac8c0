"""The embedded dataset: shape, repairs, serialization."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from superelliptic import dataset, tables
from superelliptic.arith import Rational
from superelliptic.dataset import (export_csv, from_json, load_embedded,
                                   repair_signature, to_json)
from superelliptic.groups import _KINDS, parse_group_label
from superelliptic.verify import derive

EXPECTED_ROW_COUNTS = {3: 5, 4: 9, 5: 20, 6: 36, 7: 27, 8: 22, 9: 50, 10: 55}

EXPECTED_HIGHLIGHTED = {
    3: (1, 2),
    4: (1, 3, 5),
    5: (1, 2, 6),
    6: (9, 10, 13, 15),
    7: (1, 2, 11),
    8: (2, 6, 7, 8),
    9: (1, 3, 4, 14, 16, 20),
    10: (2, 3, 16, 17, 19, 20, 23),
}


@pytest.fixture(scope="module")
def ds():
    return load_embedded()


def test_total_and_per_genus_counts(ds) -> None:
    assert len(ds) == 224
    assert ds.genera == (3, 4, 5, 6, 7, 8, 9, 10)
    for genus, count in EXPECTED_ROW_COUNTS.items():
        assert len(ds.genus_rows(genus)) == count


def test_row_numbers_are_contiguous(ds) -> None:
    for genus in ds.genera:
        rows = ds.genus_rows(genus)
        assert [r.number for r in rows] == list(range(1, len(rows) + 1))


def test_blocks_are_grouped_in_printed_order(ds) -> None:
    rank = {b: i for i, b in enumerate(_KINDS)}
    for genus in ds.genera:
        ranks = [rank[r.block] for r in ds.genus_rows(genus)]
        assert ranks == sorted(ranks)


def test_highlighted_rows(ds) -> None:
    for genus, numbers in EXPECTED_HIGHLIGHTED.items():
        assert ds.highlighted_numbers(genus) == numbers


def test_lookup(ds) -> None:
    row = ds.get(6, 20)
    assert row.label_text == "D_10 × C_2"
    assert row.level == 5
    with pytest.raises(KeyError):
        ds.get(3, 6)
    with pytest.raises(KeyError):
        ds.genus_rows(11)


def test_count_by_level(ds) -> None:
    def count(genus):
        return Counter(r.level for r in ds.genus_rows(genus))

    assert count(3) == {2: 3, 3: 1, 4: 1}
    assert count(5) == {2: 19, 11: 1}
    assert count(10) == {2: 19, 3: 19, 5: 5, 6: 9, 11: 2, 21: 1}


def test_count_by_block(ds) -> None:
    def count(genus):
        return Counter(r.block for r in ds.genus_rows(genus))

    assert count(3) == {"cyclic": 4, "dihedral": 1}
    assert count(5) == {"cyclic": 7, "dihedral": 10, "tetrahedral": 1,
                        "octahedral": 1, "icosahedral": 1}
    assert count(10) == {"cyclic": 23, "dihedral": 27, "tetrahedral": 2,
                         "octahedral": 2, "icosahedral": 1}


def test_group_orders_match_level_times_reduced(ds) -> None:
    row = ds.get(10, 54)
    assert row.reduced_group().describe() == "S_4"
    assert row.group_order() == 72
    label = parse_group_label(row.label_text, row.group_order())
    assert label.recognized and label.order == 72
    row = ds.get(5, 8)      # blank label: order comes from the context
    assert row.label_text == ""
    assert parse_group_label(row.label_text, row.group_order()).order == 8


def test_m_column_as_printed(ds) -> None:
    assert ds.get(5, 18).m is None      # blank cell
    assert ds.get(5, 19).m == 0
    assert ds.get(9, 50).m is None
    assert ds.get(10, 51).m == 0


def test_signature_repair_statuses(ds) -> None:
    repairs = {record.key: repair_signature(record) for record in ds}
    statuses = {k: r.status for k, r in repairs.items()}
    corrected = sorted(k for k, s in statuses.items() if s == "corrected")
    assert corrected == [(5, 5), (9, 8), (9, 9), (9, 11), (9, 12), (9, 13),
                         (10, 8), (10, 9), (10, 12), (10, 13), (10, 14)]
    manual = sorted(k for k, s in statuses.items() if s == "manually_corrected")
    assert manual == [(6, 11)]
    assert all(s == "consistent" for k, s in statuses.items()
               if k not in corrected and k not in manual)
    assert sorted(k for k, r in repairs.items() if r.changed) == sorted(corrected + manual)
    [manual] = [e for e in tables.ERRATA if e[:3] == (6, 11, "signature")]
    assert repairs[(6, 11)].edit == manual.why
    assert repairs[(6, 11)].effective.render() == manual.derived


def test_effective_signatures_of_repaired_rows(ds) -> None:
    expected = {
        (5, 5): "2,11,22",
        (6, 11): "2^4,6^2",
        (9, 8): "3,10,30",
        (9, 9): "4,7,28",
        (9, 11): "4,7,28",
        (9, 12): "3,10,30",
        (9, 13): "2,19,38",
        (10, 8): "2,21,42",
        (10, 9): "3,11,33",
        (10, 12): "5,6,30",
        (10, 13): "5,6,30",
        (10, 14): "3,11,33",
    }
    for key, sig in expected.items():
        resolution = repair_signature(ds.get(*key))
        assert resolution.changed
        assert resolution.effective.render() == sig


def test_named_curves(ds) -> None:
    assert len(ds.named_curves) == 13
    by_genus = {3: 0, 4: 0}
    for curve in ds.named_curves:
        by_genus[curve.genus] += 1
        derived = derive(curve.level, curve.equation)
        assert derived.genus == curve.genus and derived.indices == ()
        assert derived.shape_error is None and derived.separability == ()
    assert by_genus == {3: 7, 4: 6}


def test_json_round_trip_is_lossless_and_stable(ds) -> None:
    text = to_json(ds)
    clone = from_json(text)
    assert clone.records == ds.records
    assert clone.named_curves == ds.named_curves
    assert to_json(clone) == text
    assert text.endswith("\n")


def test_a_block_is_its_string_from_either_source(ds) -> None:
    clone = from_json(to_json(ds))
    for row, read in zip(ds, clone):
        assert type(row.block) is str and type(read.block) is str
        assert read.block == row.block and read.reduced_group() == row.reduced_group()
        assert read.group_order() == row.group_order()


def test_reading_builds_each_distinct_term_and_factor_once(ds) -> None:
    text = to_json(ds)
    payload = json.loads(text)
    entries = payload["families"] + payload["named_curves"]
    factors = [f for entry in entries for f in entry["equation"]["factors"]]
    terms = [u for f in factors for u in f]
    distinct = [{json.dumps(x, sort_keys=True) for x in xs} for xs in (terms, factors)]
    assert (len(terms), len(factors)) == (1340, 454)
    assert list(map(len, distinct)) == [92, 94]
    clone = from_json(text)
    read = [f for entry in (*clone.records, *clone.named_curves) for f in entry.equation.factors]
    assert len({id(u) for f in read for u in f}) == len(distinct[0])
    assert len({id(f) for f in read}) == len(distinct[1])


def test_the_embedded_table_holds_one_object_per_distinct_factor(ds) -> None:
    # tables.f is cached as the terms are: 436 factor slots, 92 objects
    factors = [f for r in ds for f in r.equation.factors]
    assert len(factors) == 436
    assert len({id(f) for f in factors}) == len(set(factors)) == 92
    named = [f for c in ds.named_curves for f in c.equation.factors]
    assert len({id(f) for f in factors + named}) == len(set(factors + named)) == 94


def test_radicand_is_derived_when_omitted(ds) -> None:
    text = to_json(ds)
    payload = json.loads(text)
    for row in payload["families"]:
        del row["equation"]["radicand"]
    assert to_json(from_json(json.dumps(payload))) == text


def test_json_version_guard(ds) -> None:
    text = to_json(ds).replace('"version": "v1"', '"version": "v0"')
    with pytest.raises(ValueError):
        from_json(text)


def test_csv_export(ds) -> None:
    text = export_csv(ds, 3)
    lines = text.split("\r\n")
    assert lines[0] == "Nr,reduced_group,full_group,order,n,m,signature,delta,blue,equation"
    assert lines[1].startswith("1,{1},C_2,2,2,1,2^8,5,yes,")
    # signatures containing commas are quoted
    assert '"2^3,4^2"' in lines[3]
    assert lines[-1] == ""
    assert len(lines) == 5 + 2          # header + rows + trailing CRLF
    assert export_csv(ds, 3) == text    # deterministic
    with pytest.raises(KeyError):
        export_csv(ds, 2)


def _fraction_rational(text):
    """What ``dataset._rational_field`` reads, built on ``fractions.Fraction``; None: refused."""
    if type(text) not in (str, int) or (type(text) is str and ("e" in text or "E" in text)):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


_RATIONAL_CORPUS = [
    "0", "-0", "7", "-7", "007", "+7", " 7", "7 ", "\t-7\n", "1_000", "1__0", "_1", "1/3",
    "-1/3", "+1/3", "1/-3", "1/+3", "-1/-3", "6/4", "-6/4", "0/5", "1/0", "-1/0", "0/0",
    "1 / 3", "1/ 3", "1./3", "1.5", "-.5", "5.", ".", "1.5/2", "1e3", "1E3", "1e-3", "-2e+2",
    "1.5e1", "e", "", "-", "/", "1/", "/3", "--1", "1//3", "1/3/5", "٣", "-١/٣", "٣.٥", "²",
    "１２", "1/²", "0x10", "inf", "nan", "NaN", "1" * 5000, "1/" + "3" * 5000,
    "9" * 300 + "/" + "6" * 300, 0, -7, 10**40, True,
]


def test_rational_reads_every_spelling_as_fraction_did() -> None:
    rng = random.Random(30)
    alphabet = ["0", "1", "3", "9", "-", "+", "/", " ", "_", ".", "e", "٣", "²", "\t"]
    corpus = _RATIONAL_CORPUS + ["".join(rng.choices(alphabet, k=rng.randint(1, 8)))
                                 for _ in range(3000)]
    for text in corpus:
        try:
            got = dataset._rational_field("a", text)
        except ValueError:
            got = None
        want = _fraction_rational(text)
        if want is None:
            assert got is None, text
        else:
            assert type(got) is Rational and got.as_integer_ratio() == want.as_integer_ratio(), text

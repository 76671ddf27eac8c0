"""The verifier: every column re-derived, deviations downgraded only when documented,
and a documented deviation that no longer holds reported as a stale erratum."""

from __future__ import annotations

import json

import pytest

from superelliptic import dataset, family, tables, verify
from superelliptic.arith import QuadNum, Rational
from superelliptic.classify import classify
from superelliptic.dataset import load_embedded
from superelliptic.family import CERTIFICATE_PRIMES, EquationTemplate
from superelliptic.groups import ReducedGroup, parse_group_label
from superelliptic.signature import Signature
from superelliptic.tables import f, spread, t
from superelliptic.verify import CHECKS, derive, verify_dataset, verify_row

# Every deviation the verifier is expected to flag, and nothing else.
EXPECTED_WARNINGS = {
    (5, 5, "signature"),
    (6, 11, "signature"),
    (6, 11, "classification"),
    (6, 20, "label"),
    (9, 8, "signature"),
    (9, 9, "signature"),
    (9, 11, "signature"),
    (9, 12, "signature"),
    (9, 13, "signature"),
    (10, 8, "signature"),
    (10, 9, "signature"),
    (10, 12, "signature"),
    (10, 13, "signature"),
    (10, 14, "signature"),
}


@pytest.fixture(scope="module")
def ds():
    return load_embedded()


def test_full_dataset_verifies_with_documented_warnings_only(ds) -> None:
    report = verify_dataset(ds)
    assert len(report.rows) == 224
    assert report.ok
    assert report.failures == ()
    assert {(w.genus, w.number, w.code) for w in report.warnings} == EXPECTED_WARNINGS


def test_strict_mode_promotes_warnings(ds) -> None:
    report = verify_dataset(ds, strict=True)
    assert not report.ok
    assert len(report.failures) == len(EXPECTED_WARNINGS)
    assert {(x.genus, x.number, x.code) for x in report.failures} == EXPECTED_WARNINGS
    assert report.warnings == ()


def test_strict_row_findings_are_the_warnings_made_failures(ds) -> None:
    for record in ds:
        promoted = tuple(x._replace(severity="failure")
                         for x in verify_row(record).findings)
        assert verify_row(record, strict=True).findings == promoted


def test_genus_filter(ds) -> None:
    report = verify_dataset(ds, genera=[3, 4])
    assert len(report.rows) == 14
    assert report.ok and report.warnings == ()


def test_genus_filter_without_rows_is_a_key_error(ds) -> None:
    with pytest.raises(KeyError, match="no rows for genus 2"):
        verify_dataset(ds, genera=[2])
    with pytest.raises(KeyError, match="no rows for genus 11"):
        verify_dataset(ds, genera=[3, 11])


def test_row_with_manual_correction(ds) -> None:
    result = verify_row(ds.get(6, 11))
    assert result.ok
    assert result.resolution.status == "manually_corrected"
    assert result.resolution.effective.render() == "2^4,6^2"
    assert not result.classification.is_definable
    assert {(x.severity, x.code) for x in result.findings} == {
        ("warning", "signature"), ("warning", "classification")}


def test_clean_row_has_no_findings(ds) -> None:
    result = verify_row(ds.get(7, 27))
    assert result.findings == ()
    assert result.classification.is_definable


def test_tampered_dimension_is_caught(ds) -> None:
    row = ds.get(3, 4)._replace(delta=2)
    result = verify_row(row)
    codes = {x.code for x in result.findings if x.severity == "failure"}
    assert "dimension" in codes
    assert "parameters" in codes


def test_tampered_equation_is_caught(ds) -> None:
    row = ds.get(3, 4)._replace(equation=t(f(6, (2, "a1"), 0)))
    result = verify_row(row)
    codes = {x.code for x in result.findings if x.severity == "failure"}
    assert "genus" in codes


def test_inseparable_row_is_a_separability_failure(ds) -> None:
    row = ds.get(3, 1)                                   # x(x^6+a_1x+...+a_5x^5+1)
    linear, rest = row.equation.factors
    # without the constant x^2 divides f: the certificate declines, the exact path decides
    bad = EquationTemplate((linear, tuple(u for u in rest if u.exponent)))
    result = verify_row(row._replace(equation=bad))
    assert [(x.severity, x.code, x.message) for x in result.findings] == [
        ("failure", "separability", "instantiated polynomial has a repeated root")]


def test_too_few_branch_points_is_one_genus_failure(ds) -> None:
    # (x+1)^2 at a_1 = 5: B = 2, and the probe would report its repeated root
    square = t(f(2, (1, ("a1", Rational(2, 5))), 0))
    assert not family.separability_probe(2, square).ok
    assert derive(2, square)[2:] == (None, "need at least 3 branch points, got 2", ())
    result = verify_row(ds.get(3, 1)._replace(equation=square))
    codes = [x.code for x in result.findings if x.severity == "failure"]
    assert codes.count("genus") == 1 and "parameters" in codes
    assert "separability" not in {x.code for x in result.findings}


def test_a_level_and_degree_with_no_normal_form_derive_no_genus() -> None:
    derived = derive(4, t(spread(6, 1, 1)))
    assert (derived.degree, derived.genus, derived.separability) == (6, None, ())
    assert "gcd 2" in derived.shape_error


def test_parameter_indices_must_run_from_one(ds) -> None:
    # a_2 renamed to a_99: still five free coefficients, but not a_1..a_5
    row = ds.get(3, 1)
    payload = json.loads(dataset.to_json(dataset.Dataset([row])))
    for factor in payload["families"][0]["equation"]["factors"]:
        for term in factor:
            if term["c"]["kind"] == "param" and term["c"]["i"] == 2:
                term["c"]["i"] = 99
    result = verify_row(dataset.from_json(json.dumps(payload)).get(3, 1))
    failures = [x for x in result.findings if x.severity == "failure"]
    assert [x.code for x in failures] == ["parameters"]
    assert "a_1, a_3, a_4, a_5, a_99, expected a_1 to a_5" in failures[0].message


def test_tampered_highlighting_is_caught(ds) -> None:
    row = ds.get(3, 4)._replace(highlighted=True)
    result = verify_row(row)
    failures = [x for x in result.findings if x.severity == "failure"]
    assert [x.code for x in failures] == ["classification"]


def test_undocumented_misprint_is_a_failure(ds) -> None:
    # same single-entry misprint shape as the documented ones, but on a row
    # that has no entry in ERRATA, so it must not be downgraded
    row = ds.get(3, 4)._replace(signature=Signature.parse("2,3^2,12"))
    result = verify_row(row)
    assert any(x.code == "signature" and x.severity == "failure"
               for x in result.findings)


def test_unrepairable_signature_is_one_failure(ds) -> None:
    # 2^9 with |G| = 6 at genus 3: quotient genus -11/12, and no single edit balances
    row = ds.get(3, 4)._replace(signature=Signature.parse("2^9"))
    result = verify_row(row)
    assert result.resolution.status == "unrepairable"
    signature = [x for x in result.findings if x.code == "signature"]
    assert [x.severity for x in signature] == ["failure"]
    assert signature[0].message.endswith("no single edit fixes it")
    assert "dimension" not in {x.code for x in result.findings}


def test_unbalanced_manual_correction_is_not_applied(ds) -> None:
    # m = 4 makes |G| = 8, where the documented 2^4,6^2 no longer balances
    row = ds.get(6, 11)._replace(m=4)
    result = verify_row(row)
    assert result.resolution.status == "unrepairable"
    assert result.resolution.effective == row.signature
    assert result.classification == classify(row.reduced_group(), row.signature)
    signature = [x for x in result.findings if x.code == "signature"]
    assert [x.severity for x in signature] == ["failure"]
    assert "no single edit fixes it" in signature[0].message


def test_unparsable_label_is_a_failure_even_when_documented(ds) -> None:
    # (6, 20) has a documented label discrepancy; that covers a wrong order only
    row = ds.get(6, 20)._replace(label_text="D_10 × Q_8")
    labels = [x for x in verify_row(row).findings if x.code == "label"]
    assert [(x.severity, x.message) for x in labels] == [
        ("failure", "unrecognized group label atom 'Q_8'")]


def test_entry_whose_check_no_longer_fires_is_a_stale_erratum(ds) -> None:
    # (9, 9) prints 4,7^2; with the repair already made the signature check is
    # silent, so its entry (derived 4,7,28) explains nothing any more
    row = ds.get(9, 9)._replace(signature=Signature.parse("4,7,28"))
    for strict in (False, True):
        findings = verify_row(row, strict=strict).findings
        assert [(x.severity, x.code) for x in findings] == [("failure", "erratum")]
        assert "signature erratum expects 4,7,28" in findings[0].message


def test_finding_that_derives_another_value_stays_a_failure(ds) -> None:
    # (6, 20) documents a forced order of 50; at level 4 the label check
    # forces 40, which the entry does not explain
    result = verify_row(ds.get(6, 20)._replace(level=4))
    labels = [x for x in result.findings if x.code == "label"]
    assert [x.severity for x in labels] == ["failure"]
    assert labels[0].message.endswith("forces 40")
    errata = [x for x in result.findings if x.code == "erratum"]
    assert [x.message for x in errata] == [
        "documented label erratum expects 50, which the label check does not derive"]


def test_signature_erratum_excuses_only_the_signature_it_documents(ds) -> None:
    # (6, 11)'s manual correction to 2^4,6^2 is written for the printed 2^3,3^2,6^2
    row = ds.get(6, 11)._replace(signature=Signature.parse("2^2,3^3,6^2"))
    result = verify_row(row)
    assert result.resolution.status == "unrepairable"
    assert result.resolution.effective == row.signature
    assert {x.severity for x in result.findings} == {"failure"}
    assert [x.message for x in result.findings if x.code == "erratum"][0] == (
        "documented signature erratum expects 2^4,6^2, but the row does not print "
        "2^3,3^2,6^2")


def test_label_erratum_excuses_only_the_label_it_documents(ds) -> None:
    # (6, 20)'s entry covers the printed D_10 × C_2; another label forcing the
    # same order 50 is a failure of its own
    result = verify_row(ds.get(6, 20)._replace(label_text="D_10 × C_7"))
    assert [(x.severity, x.code, x.message) for x in result.findings] == [
        ("failure", "label", "printed group 'D_10 × C_7' has order 70, but level 5 over "
                             "D_10 forces 50"),
        ("failure", "erratum", "documented label erratum expects 50, but the row does not "
                               "print D_10 × C_2")]


def test_stale_classification_entry_is_reported(ds) -> None:
    # highlighting (6, 11) as the recomputation says leaves its entry unused
    result = verify_row(ds.get(6, 11)._replace(highlighted=True))
    assert {(x.severity, x.code) for x in result.findings} == {
        ("warning", "signature"), ("failure", "erratum")}


def test_errata_are_well_formed(ds) -> None:
    keys = [(e.genus, e.number, e.code) for e in tables.ERRATA]
    assert len(keys) == len(set(keys)), "a duplicate would shadow an entry in ERRATA_BY_ROW"
    for e in tables.ERRATA:
        row = ds.get(e.genus, e.number)
        assert e.code in CHECKS or e.code in ("equation", "cosmetic"), e
        assert e.why or e.code == "signature", e
        if e.code == "signature":
            assert Signature.parse(e.printed) == row.signature, e
        elif e.code == "label":
            assert e.printed == row.label_text, e
        elif e.code == "classification":
            assert e.printed == ("possibly_not_definable" if row.highlighted else "definable")
    assert sorted(e for entries in tables.ERRATA_BY_ROW.values() for e in entries.values()) \
        == sorted(tables.ERRATA)


def test_report_summary_rendering(ds) -> None:
    report = verify_dataset(ds, genera=[6])
    text = report.render(verbose=True)
    assert "genus 6: 36 rows checked, 0 failure(s), 3 warning(s)" in text
    assert "beyond single-edit repair" in text
    # non-verbose output hides warnings but keeps the summary
    quiet = report.render()
    assert "beyond single-edit repair" not in quiet
    assert "total: 36 rows, 0 failure(s), 3 warning(s)" in quiet


def test_each_row_derives_its_group_and_parameters_once(ds, monkeypatch) -> None:
    # The probe's one walk over the terms gives the degree and the parameter
    # indices, so verify never reads the template's own properties, and derive
    # sees the level and the equation and no printed column.
    counts = {"walk": 0, "parameter_indices": 0, "degree": 0, "ReducedGroup": 0}
    scan = family._scan
    new = ReducedGroup.__new__

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(family, "_scan", counted("walk", scan))
    for name in ("parameter_indices", "degree"):
        getter = getattr(EquationTemplate, name).fget
        monkeypatch.setattr(EquationTemplate, name, property(counted(name, getter)))
    monkeypatch.setattr(ReducedGroup, "__new__", staticmethod(counted("ReducedGroup", new)))
    calls = []
    monkeypatch.setattr(verify, "derive", lambda *args: calls.append(args) or derive(*args))
    assert len(verify_dataset(ds).rows) == 224
    assert counts == {"walk": 224, "parameter_indices": 0, "degree": 0, "ReducedGroup": 224}
    assert calls == [(r.level, r.equation) for r in ds]


def test_a_cold_verify_walks_each_distinct_factor_once(monkeypatch) -> None:
    # The 224 row walks read 92 factor walks, all at the first certificate
    # prime: the terms of the 436 factor slots are reduced mod p 434 times
    # (193 fixed numbers and 241 parameter scales), not 1,307.
    reduced = {"fixed": 0, "parameter": 0}
    residue = family._residue

    def counted(value, p):
        reduced["fixed" if isinstance(value, QuadNum) else "parameter"] += 1
        return residue(value, p)

    monkeypatch.setattr(family, "_WALKS", {})
    monkeypatch.setattr(family, "_residue", counted)
    ds = load_embedded()
    assert len(verify_dataset(ds).rows) == 224
    factors = {id(f): f for r in ds for f in r.equation.factors}
    assert family._WALKS.keys() == {(key, CERTIFICATE_PRIMES[0]) for key in factors}
    assert len(factors) == 92
    assert sum(map(len, factors.values())) == 434
    assert reduced == {"fixed": 193, "parameter": 241}


def test_every_embedded_row_is_certified_with_42_euclid_runs(monkeypatch) -> None:
    def exact(*_):
        raise AssertionError("a row took the exact path")

    monkeypatch.setattr(family, "_exact_probe", exact)
    family._euclid_mod_p.cache_clear()
    report = verify_dataset(load_embedded())
    assert len(report.rows) == 224 and report.ok
    assert family._euclid_mod_p.cache_info().misses == 42


def test_the_label_check_parses_each_distinct_label_once(ds) -> None:
    # the memo keys on the label alone: 76 distinct labels, 106 (label, order) pairs
    parse_group_label.cache_clear()
    assert len(verify_dataset(ds).rows) == 224
    assert parse_group_label.cache_info().misses == len({r.label_text for r in ds}) == 76


def test_more_parameters_than_probe_primes_is_still_an_error(ds) -> None:
    # 26 parameters, one more than the 25 primes 5..103: the probe takes 107 for
    # a_26 and passes, so the row's only finding is its genus-3 signature.
    row = ds.get(3, 1)._replace(equation=t(spread(27, 1, 26)), delta=26, genus=13)
    result = verify_row(row)
    assert [(x.severity, x.code) for x in result.findings] == [("failure", "signature")]

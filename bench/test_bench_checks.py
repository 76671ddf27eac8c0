"""The benchmark's output checks accept right outputs and reject wrong ones.

Each test takes a real output of the CLI (run in-process), confirms the
check passes it, then breaks one fact in it and confirms the check fails.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from layers import cli_main  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    code, out, _ = cli_main(["export", "--what", "dataset"])
    assert code == 0
    return checks.Reference(out)


def run_op(op: dict) -> tuple[int, str, str]:
    return cli_main(op["argv"])


def assert_bites(op: dict, ref, break_output) -> None:
    """The real output passes; the output after ``break_output`` does not."""
    code, out, err = run_op(op)
    assert checks.check(op, code, out, err, ref) == []
    broken = break_output(out)
    assert broken != out
    assert checks.check(op, code, broken, err, ref) != []


def op(kind: str, argv: list[str], **extra) -> dict:
    return workloads._op(kind, argv, **extra)


def edit_json(out: str, change) -> str:
    payload = json.loads(out)
    change(payload)
    return json.dumps(payload, indent=2) + "\n"


# -- the oracle ----------------------------------------------------------------

def test_oracle_reproduces_the_highlighting_with_its_erratum(ref):
    assert ref.computed_blue ^ ref.printed_blue == set(oracle.ASSERTED_ERRATA)
    assert ref.misprints == {(5, 5), (9, 8), (9, 9), (9, 11), (9, 12), (9, 13),
                             (10, 8), (10, 9), (10, 12), (10, 13), (10, 14)}
    assert ref.label_faults == {(6, 20)}
    assert len(ref.warnings) == 14


def test_oracle_certifies_every_row_separable(ref):
    assert all(f.separable for f in ref.facts.values())


def test_modular_certificate_agrees_with_sympy(ref):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rational = [r for r in ref.rows.values()
                if all(t["c"]["kind"] == "param" or "d" not in t["c"]
                       for f in r["equation"]["factors"] for t in f)
                and oracle.degree(r["equation"]) <= 12][:12]
    assert rational
    for row in rational:
        values = oracle.probe_values(row["equation"])
        poly = sympy.Integer(1)
        for factor in row["equation"]["factors"]:
            poly *= sum(_sympy_coeff(t["c"], values, sympy) * x ** t["e"] for t in factor)
        separable = sympy.degree(sympy.gcd(poly, sympy.diff(poly, x)), x) == 0
        assert oracle.certified_separable(row["equation"]) == separable
    squared = {"factors": [[{"e": 2, "c": {"kind": "fixed", "a": "1", "b": "0"}},
                            {"e": 0, "c": {"kind": "fixed", "a": "1", "b": "0"}}]] * 2}
    assert not oracle.certified_separable(squared)


def _sympy_coeff(c, values, sympy):
    if c["kind"] == "param":
        return values[c["i"]] * sympy.Rational(c.get("scale", "1"))
    return sympy.Rational(c["a"])


# -- each check bites ------------------------------------------------------------

def test_row_rejects_the_unrepaired_misprint(ref):
    argv = ["row", "--genus", "9", "--nr", "9"]
    assert_bites(op("row", argv + ["--format", "json"], genus=9, nr=9), ref,
                 lambda out: edit_json(out, lambda p: p.update(effective_signature="4,7^2")))
    assert_bites(op("row", argv, genus=9, nr=9), ref,
                 lambda out: out.replace("effective_signature: 4,7,28",
                                         "effective_signature: 4,7^2"))


def test_row_rejects_a_wrong_order_and_branch_count(ref):
    o = op("row", ["row", "--genus", "5", "--nr", "3", "--format", "json"], genus=5, nr=3)
    assert_bites(o, ref, lambda out: edit_json(out, lambda p: p.update(order=p["order"] * 2)))
    assert_bites(o, ref, lambda out: edit_json(
        out, lambda p: p.update(branch_points=p["branch_points"] + 1)))


def test_classify_rejects_a_flipped_verdict(ref):
    argv = ["classify", "--genus", "6", "--nr", "11"]
    assert_bites(op("classify", argv, genus=6, nr=11), ref,
                 lambda out: "definable (odd-signature criterion)\n")
    assert_bites(op("classify", argv + ["--format", "json"], genus=6, nr=11), ref,
                 lambda out: edit_json(out, lambda p: p.update(verdict="definable")))


def test_list_json_rejects_a_flipped_verdict_and_highlight(ref):
    o = op("list", ["list", "--format", "json"])

    def flip_verdict(p):
        row = next(r for r in p["rows"] if (r["genus"], r["nr"]) == (3, 1))
        row.update(verdict="definable", reason="odd_signature")

    def flip_highlight(p):
        p["rows"][3]["highlighted"] = not p["rows"][3]["highlighted"]

    assert_bites(o, ref, lambda out: edit_json(out, flip_verdict))
    assert_bites(o, ref, lambda out: edit_json(out, flip_highlight))


def test_list_text_rejects_a_wrong_mark_and_a_dropped_row(ref):
    o = op("list", ["list", "--genus", "3"], genus=3)
    assert_bites(o, ref, lambda out: out.replace("2   *  C_2", "2      C_2"))
    assert_bites(o, ref, lambda out: "\n".join(out.splitlines()[:-1]) + "\n")


def test_levels_rejects_a_missing_level_and_a_wrong_normal_form(ref):
    assert_bites(op("levels", ["levels", "--genus", "5"], genus=5), ref,
                 lambda out: out.replace("level 3: 7 branch points  (no normal form)\n", ""))
    assert_bites(op("levels", ["levels", "--genus", "5", "--format", "json"], genus=5), ref,
                 lambda out: edit_json(out, lambda p: p["levels"][1].update(normal_form=True)))


def test_csv_rejects_a_wrong_order(ref):
    o = op("csv", ["export", "--what", "csv", "--genus", "3"], genus=3)
    assert_bites(o, ref, lambda out: out.replace("V_4,4,2", "V_4,8,2"))


def test_blue_and_errata_reject_a_changed_registry(ref):
    assert_bites(op("blue", ["export", "--what", "blue"]), ref,
                 lambda out: edit_json(out, lambda p: p["6"].append(11)))
    assert_bites(op("errata", ["export", "--what", "errata"]), ref,
                 lambda out: edit_json(out, lambda p: p["signature_misprints"].pop()))


def test_verify_rejects_a_wrong_count_and_an_undocumented_warning(ref):
    o = op("verify", ["verify", "--genus", "6", "--format", "json"], genus=6)

    def extra_warning(p):
        p["warnings"].append(dict(p["warnings"][0], number=1))

    assert_bites(o, ref, lambda out: edit_json(out, lambda p: p.update(rows_checked=224)))
    assert_bites(o, ref, lambda out: edit_json(out, extra_warning))
    assert_bites(op("verify", ["verify", "--genus", "6"], genus=6), ref,
                 lambda out: out.replace("3 warning(s)", "2 warning(s)"))


def test_verify_rejects_a_missing_separability_failure(ref, tmp_path):
    payload = json.loads(ref.dataset_text)
    index = next(i for i in workloads.inseparable_rows(payload)
                 if payload["families"][i]["genus"] == 5)
    row = payload["families"][index]
    row["equation"]["factors"][1] = [t for t in row["equation"]["factors"][1] if t["e"]]
    path = tmp_path / "inseparable.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    inseparable = {"key": [5, row["nr"]], "equation": row["equation"]}
    for fmt in ([], ["--format", "json"]):
        o = op("verify", ["verify", "--data", str(path), "--genus", "5", *fmt], genus=5,
               exit=checks.EXIT_VERIFY_FAILED, inseparable=inseparable)
        code, out, err = run_op(o)
        assert checks.check(o, code, out, err, ref) == []
        # A probe that wrongly passes the row: exit 0 and no failure.
        assert checks.check(o, 0, out, err, ref) != []
        if fmt:
            fixed = edit_json(out, lambda p: p.update(failures=[], ok=True))
        else:
            fixed = "\n".join(line for line in out.splitlines()
                              if not line.startswith("[failure]")) + "\n"
        assert checks.check(dict(o, exit=checks.EXIT_VERIFY_FAILED), code, fixed, err, ref) != []


def test_dataset_export_rejects_changed_bytes(ref, tmp_path):
    path = tmp_path / "f.json"
    o = op("dataset", ["export", "--what", "dataset", "--out", str(path)], out=str(path))
    code, out, err = run_op(o)
    assert checks.check(o, code, out, err, ref) == []
    path.write_text(ref.dataset_text.replace('"dim": 5', '"dim": 4', 1), encoding="utf-8")
    assert checks.check(o, code, out, err, ref) != []


def test_malformed_input_must_exit_3_without_a_traceback(ref):
    o = op("malformed", ["list", "--data", "x"], exit=checks.EXIT_IO)
    assert checks.check(o, 3, "", "error: invalid dataset: bad\n", ref) == []
    assert checks.check(o, 1, "", "Traceback (most recent call last):\n", ref) != []
    assert checks.check(o, 2, "", "error: families\n", ref) != []


def test_known_faults_fail_on_every_seed(ref, tmp_path):
    payload = json.loads(ref.dataset_text)
    for make in workloads.KNOWN_FAULTS:
        data = copy.deepcopy(payload)
        text = make(data, ref.dataset_text, None) or json.dumps(data)
        path = tmp_path / f"{make.__name__}.json"
        path.write_text(text, encoding="utf-8")
        o = op("malformed", ["list", "--data", str(path)], exit=checks.EXIT_IO)
        assert checks.check(o, *run_op(o), ref) != []

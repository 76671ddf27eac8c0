"""Command-line interface: behaviour, determinism, exit codes."""

from __future__ import annotations

import copy
import gc
import json
import os
import subprocess
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superelliptic.cli import _COMMANDS, _build_parser, _fast_parse, main
from superelliptic.groups import ReducedGroup


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_text(capsys) -> None:
    code, out, _ = run(capsys, "list", "--genus", "3")
    assert code == 0
    assert "genus 3 (5 rows" in out
    assert out.count("*") >= 2          # two highlighted rows
    assert "V_4 × C_4" in out


def test_list_blue_only_json(capsys) -> None:
    code, out, _ = run(capsys, "list", "--blue-only", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 32              # all highlighted rows, genus 3..10
    assert all(r["highlighted"] for r in rows)
    assert all(r["verdict"] == "possibly_not_definable" for r in rows)


def test_list_blue_only_skips_a_genus_without_highlighted_rows(capsys, tmp_path) -> None:
    def edit(p):
        for row in p["families"]:
            if row["genus"] == 3:
                row["highlighted"] = False

    code, out, err = run(capsys, "list", "--blue-only", "--data", _edited_export(tmp_path, edit))
    assert (code, err) == (0, "")
    assert "genus 3 (" not in out and out.startswith("genus 4 (3 rows;")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_list_derives_each_rows_group_once(capsys, monkeypatch, fmt) -> None:
    count = 0
    new = ReducedGroup.__new__

    def counted_new(cls, *args):
        nonlocal count
        count += 1
        return new(cls, *args)

    monkeypatch.setattr(ReducedGroup, "__new__", staticmethod(counted_new))
    assert run(capsys, "list", "--format", fmt)[0] == 0
    assert count == 224


def test_list_is_deterministic(capsys) -> None:
    first = run(capsys, "list")
    second = run(capsys, "list")
    assert first == second


def test_verify_ok_exit_zero(capsys) -> None:
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "total: 224 rows, 0 failure(s), 14 warning(s)" in out


def test_verify_strict_exit_one(capsys) -> None:
    code, out, _ = run(capsys, "verify", "--strict")
    assert code == 1
    assert "14 failure(s)" in out


def test_verify_json(capsys) -> None:
    code, out, _ = run(capsys, "verify", "--genus", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["rows_checked"] == 50
    assert len(payload["warnings"]) == 5


def test_classify_text_and_json(capsys) -> None:
    code, out, _ = run(capsys, "classify", "--genus", "5", "--nr", "12")
    assert code == 0
    assert out == "definable (unique-subgroup descent criterion)\n"
    code, out, _ = run(capsys, "classify", "--genus", "6", "--nr", "9",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "possibly_not_definable",
        "reason": None,
        "theorem": "no applicable sufficiency criterion",
    }


def test_classify_uses_repaired_signature(capsys) -> None:
    # the printed signature of this row is unrepairable by one edit; the
    # documented correction makes the verdict negative
    code, out, _ = run(capsys, "classify", "--genus", "6", "--nr", "11")
    assert code == 0
    assert out.startswith("possibly not definable")


def test_levels(capsys) -> None:
    code, out, _ = run(capsys, "levels", "--genus", "5")
    assert code == 0
    assert out.splitlines() == [
        "level 2: 12 branch points",
        "level 3: 7 branch points  (no normal form)",
        "level 6: 4 branch points  (no normal form)",
        "level 11: 3 branch points",
    ]


def test_row_detail(capsys) -> None:
    code, out, _ = run(capsys, "row", "--genus", "9", "--nr", "9",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == "4,7^2"
    assert payload["effective_signature"] == "4,7,28"
    assert payload["signature_status"] == "corrected"
    assert payload["branch_points"] == 8
    assert payload["verdict"] == "definable"


def test_verify_genus_without_rows_is_usage_error(capsys) -> None:
    # the same error and exit code as list --genus 2, not a vacuous pass
    assert run(capsys, "verify", "--genus", "2") == \
        (2, "", "error: no rows for genus 2\n")
    assert run(capsys, "verify", "--genus", "11", "--format", "json")[0] == 2


def test_unknown_row_is_usage_error(capsys) -> None:
    code, _, err = run(capsys, "classify", "--genus", "3", "--nr", "99")
    assert code == 2
    assert "genus-3" in err


def test_export_dataset_and_reload(capsys, tmp_path) -> None:
    path = tmp_path / "dataset.json"
    code, out, _ = run(capsys, "export", "--what", "dataset", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text(encoding="utf-8")
    assert json.loads(text)["version"] == "v1"
    # the exported dataset round-trips through --data
    code, out, _ = run(capsys, "verify", "--data", str(path))
    assert code == 0
    assert "224 rows" in out


def test_export_csv(capsys, tmp_path) -> None:
    path = tmp_path / "g7.csv"
    code, _, _ = run(capsys, "export", "--what", "csv", "--genus", "7",
                     "--out", str(path))
    assert code == 0
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 28     # header + 27 rows
    assert raw.startswith(b"Nr,reduced_group,")


def test_export_csv_requires_genus(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["export", "--what", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("data", [None, "missing.json", "truncated.json"])
def test_export_csv_without_genus_fails_before_reading_data(capsys, monkeypatch, tmp_path,
                                                             data) -> None:
    # argparse's usage error comes first: no --data file is read and no genus is built
    (tmp_path / "truncated.json").write_text('{"version": "v1", "families": [',
                                             encoding="utf-8")
    monkeypatch.setattr("superelliptic.cli.load_embedded",
                        lambda genus=None: pytest.fail("built the embedded tables"))
    argv = ["export", "--what", "csv"] + ([] if data is None else ["--data", str(tmp_path / data)])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "usage: superelliptic [-h] {list,verify,classify,levels,"
                                   "row,export} ...\nsuperelliptic: error: --what csv requires "
                                   "--genus\n")


def test_export_blue(capsys) -> None:
    code, out, _ = run(capsys, "export", "--what", "blue")
    assert code == 0
    payload = json.loads(out)
    assert payload["6"] == [9, 10, 13, 15]
    assert payload["10"] == [2, 3, 16, 17, 19, 20, 23]


def test_export_errata(capsys) -> None:
    code, out, _ = run(capsys, "export", "--what", "errata")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["signature_misprints"]) == 11
    assert payload["manual_signature_corrections"][0]["genus"] == 6
    assert len(payload["equation_corrections"]) == 17
    assert payload["label_discrepancies"][0] == {
        "genus": 6, "nr": 20,
        "reason": payload["label_discrepancies"][0]["reason"]}


def test_missing_data_file_is_io_error(capsys) -> None:
    code, _, err = run(capsys, "list", "--data", "/nonexistent/file.json")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["list"], ["row", "--genus", "3", "--nr", "1"], ["classify", "--genus", "3", "--nr", "1"],
    ["verify"], ["export", "--what", "blue"],
])
def test_an_empty_data_path_is_io_error(capsys, argv) -> None:
    # an unset shell variable must not silently select the embedded tables
    code, out, err = run(capsys, *argv, "--data", "")
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("what", [["blue"], ["errata"], ["dataset"], ["csv", "--genus", "3"]])
def test_an_empty_out_path_is_io_error(capsys, what) -> None:
    # an unset shell variable must not silently select stdout
    code, out, err = run(capsys, "export", "--what", *what, "--out", "")
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


def test_corrupt_data_file_is_io_error(capsys, tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "list", "--data", str(path))
    assert code == 3
    assert "invalid dataset" in err


@pytest.mark.parametrize("argv", [
    ["list", "--genus", "3"], ["verify", "--genus", "3"],
    ["classify", "--genus", "6", "--nr", "11"], ["levels", "--genus", "2"],
    ["row", "--genus", "3", "--nr", "1"],
], ids=lambda argv: argv[0])
def test_timestamps_flag_adds_marker(capsys, argv) -> None:
    code, out, _ = run(capsys, *argv, "--timestamps")
    assert code == 0
    marker, rest = out.split("\n", 1)
    assert marker.startswith("# generated 20")
    assert rest == run(capsys, *argv)[1]


@pytest.mark.parametrize("genus", ["1", "0", "-3"])
def test_levels_below_genus_2_is_a_usage_error(capsys, genus) -> None:
    # levels reads no dataset, so a bad genus is no invalid dataset
    assert run(capsys, "levels", "--genus", genus) == (
        2, "", f"error: genus must be at least 2, got {genus}\n")


def test_levels_of_a_large_genus_returns_at_once() -> None:
    # 2g = 2^12 5^11 has 156 divisors, found among its first 447,213 candidates
    proc = _fresh_process("levels", "--genus", str(10**11), timeout=20)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, len(lines)) == (0, "", 156)
    assert lines[0] == f"level 2: {2 * 10**11 + 2} branch points"
    assert lines[-1] == f"level {2 * 10**11 + 1}: 3 branch points"


def test_levels_above_the_genus_bound_is_a_usage_error(capsys) -> None:
    assert run(capsys, "levels", "--genus", "500000000001") == (
        2, "", "error: genus must be at most 500000000000, got 500000000001\n")


def test_levels_takes_no_data_option(capsys) -> None:
    # levels reads no dataset, so --data is a usage error rather than ignored
    with pytest.raises(SystemExit) as exc:
        main(["levels", "--genus", "3", "--data", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --data x" in capsys.readouterr().err


_OPTION_NAMES = sorted({o.name for _, options in _COMMANDS.values() for o in options})
_GOOD = {"int": ("3", "6", "11", "007"), "path": ("f.json", "", "list")}
_SLIPS = (*_COMMANDS, *_OPTION_NAMES, "lst", "--gen", "--blue", "--genus=3", "-h", "--help",
          "-1", "-3", "+3", " 3", "3.0", "3_0", "\u0663", "9" * 5000, "x", "text", "csv",
          "yaml", "", "-", "--")


@st.composite
def _argvs(draw) -> list[str]:
    """An argv from the option table: most required options and some others, in
    any order, a quarter of the values drawn from ``_SLIPS``, then up to two
    more slips: a token of ``_SLIPS`` put in or swapped in, or a token taken out."""
    command = draw(st.sampled_from(tuple(_COMMANDS)))
    options = _COMMANDS[command][1]
    chosen = [o for o in options if draw(st.integers(0, 3 if o.required else 1))]
    argv = [command]
    for o in draw(st.permutations(chosen)):
        argv.append(o.name)
        if o.kind != "flag":
            good = st.sampled_from(o.choices or _GOOD[o.kind])
            argv.append(draw(st.one_of(good, good, good, st.sampled_from(_SLIPS))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        how = draw(st.sampled_from(("put", "swap", "take")))
        if how == "put":
            argv.insert(at, draw(st.sampled_from(_SLIPS)))
        elif at < len(argv):
            argv[at:at + 1] = [draw(st.sampled_from(_SLIPS))] if how == "swap" else []
    return argv


@cache
def _parser():
    return _build_parser()


def _parse_args(argv: list[str]):
    """argparse's namespace for ``argv``, or None where it exits."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            return _parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=1000, deadline=None)
@given(_argvs())
@example(["lst"])
@example(["list", "--data"])
@example(["list", "--data", "-h"])
@example(["list", "--format", "yaml"])
@example(["classify", "--nr", "1"])
@example(["row", "--genus", "3", "--nr", "9" * 5000])   # past int()'s digit limit
def test_the_fast_path_agrees_with_argparse_where_it_answers(argv) -> None:
    fast, slow = _fast_parse(argv), _parse_args(argv)
    if slow is None:
        assert fast is None
    elif fast is not None:
        assert vars(fast) == vars(slow)


@pytest.mark.parametrize("command", _COMMANDS)
def test_the_fast_path_reads_every_option(command) -> None:
    argv = [command]
    for o in _COMMANDS[command][1]:
        argv.append(o.name)
        if o.kind != "flag":
            argv.append(o.choices[-1] if o.choices else _GOOD[o.kind][-1])
    fast = _fast_parse(argv)
    assert fast is not None and vars(fast) == vars(_parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["list", "--genus", "3"], ["verify", "--genus", "3"],
    ["classify", "--genus", "3", "--nr", "1"], ["levels", "--genus", "3"],
    ["row", "--genus", "3", "--nr", "1"],
], ids=lambda argv: argv[0])
def test_timestamps_flag_adds_generated_at_to_json(capsys, argv) -> None:
    code, out, _ = run(capsys, *argv, "--format", "json", "--timestamps")
    assert code == 0
    assert json.loads(out)["generated_at"].startswith("20")


@pytest.mark.parametrize("what,stamped", [
    ("blue", True), ("errata", True), ("dataset", False), ("csv", False),
])
def test_timestamps_flag_on_exports(capsys, what, stamped) -> None:
    code, out, _ = run(capsys, "export", "--what", what, "--genus", "3", "--timestamps")
    assert code == 0
    assert ("generated_at" in out) is stamped
    plain = run(capsys, "export", "--what", what, "--genus", "3")[1]
    if not stamped:
        assert out == plain


def _edited_export(tmp_path, edit) -> str:
    from superelliptic.dataset import load_embedded, to_json
    payload = json.loads(to_json(load_embedded()))
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _first_fixed_coeff(payload) -> dict:
    return next(u["c"] for u in payload["families"][0]["equation"]["factors"][0]
                if u["c"]["kind"] == "fixed")


def _first_param_coeff(payload) -> dict:
    return next(u["c"] for factor in payload["families"][0]["equation"]["factors"]
                for u in factor if u["c"]["kind"] == "param")


def _sqrt_row_coeffs(payload) -> list[dict]:
    """The coefficients of the first row with a sqrt(-3), that one first."""
    row = next(r for r in payload["families"] if r["equation"]["radicand"] == -3)
    coeffs = [u["c"] for factor in row["equation"]["factors"] for u in factor
              if u["c"]["kind"] == "fixed"]
    return sorted(coeffs, key=lambda c: c["b"] == "0")


def _first_term(payload) -> dict:
    return payload["families"][0]["equation"]["factors"][0][0]


def _fresh_process(*argv: str, timeout: float) -> subprocess.CompletedProcess:
    """The CLI run in a new interpreter, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-c", "import sys\n"
                           "from superelliptic.cli import main\n"
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("edit,field", [
    (lambda p: _first_fixed_coeff(p).update(a="1/0"), "'a'"),
    (lambda p: p["families"][7].pop("nr"), "'nr'"),
    (lambda p: p["families"][7]["equation"]["factors"][0][0]["c"].pop("kind"), "'kind'"),
    pytest.param(lambda p: p["families"][7].update(nr="8"), "field 'nr'", id="nr-str"),
    pytest.param(lambda p: p["families"][7].update(level="2"), "field 'level'",
                 id="level-str"),
    pytest.param(lambda p: p["families"][7].update(level=True), "field 'level'",
                 id="level-bool"),
    pytest.param(lambda p: p["families"][7].update(dim="1"), "field 'dim'", id="dim-str"),
    pytest.param(lambda p: p["families"][7].update(m="2"), "field 'm'", id="m-str"),
    pytest.param(lambda p: p["families"][7].update(block="trivial"), "field 'block'",
                 id="block-trivial"),
    pytest.param(lambda p: p["families"][7].update(block="hexagonal"), "field 'block'",
                 id="block-hexagonal"),
    pytest.param(lambda p: p["families"][7].update(label=5), "field 'label'", id="label-int"),
    pytest.param(lambda p: p["families"][7].update(signature=5), "field 'signature'",
                 id="signature-int"),
    pytest.param(lambda p: p["families"][7].update(highlighted="no"), "field 'highlighted'",
                 id="highlighted-str"),
    pytest.param(lambda p: p["families"][7].update(highlighted=1), "field 'highlighted'",
                 id="highlighted-int"),
    pytest.param(lambda p: p["families"][7].update(level=0), "field 'level'", id="level-zero"),
    pytest.param(lambda p: p["families"][7].update(level=-2), "field 'level'",
                 id="level-negative"),
    pytest.param(lambda p: p["families"][7].update(m=None), "cyclic block needs m",
                 id="cyclic-m-null"),
    pytest.param(lambda p: p["families"][11].update(m=1), "dihedral block needs m",
                 id="dihedral-m-one"),
    pytest.param(lambda p: next(r for r in p["families"] if r["block"] == "tetrahedral")
                 .update(m=3), "tetrahedral block takes no m", id="tetrahedral-m-three"),
    pytest.param(lambda p: p["families"][7]["equation"].update(radicand=5), "'radicand'",
                 id="radicand-disagrees"),
    pytest.param(lambda p: p["families"][7]["equation"].update(radicand=True),
                 "field 'radicand'", id="radicand-true"),
    pytest.param(lambda p: p["families"][7]["equation"].update(radicand=1.0),
                 "field 'radicand'", id="radicand-float"),
    pytest.param(lambda p: next(r for r in p["families"] if r["equation"]["radicand"] == -3)
                 ["equation"].update(radicand=-3.0), "field 'radicand'",
                 id="radicand-float-sqrt-row"),
    pytest.param(lambda p: p["families"][7]["equation"]["factors"][0][0]["c"]
                 .update(kind="weird"), "field 'kind' must be 'fixed' or 'param', got 'weird'",
                 id="kind-weird"),
    pytest.param(lambda p: _first_term(p).update(e=6.9), "field 'e'", id="e-float"),
    pytest.param(lambda p: _first_term(p).update(e=True), "field 'e'", id="e-bool"),
    pytest.param(lambda p: _first_param_coeff(p).update(i=1.5), "field 'i'", id="i-float"),
    pytest.param(lambda p: _first_param_coeff(p).update(i=10**6),
                 "parameter index must be at most 1000, got 1000000", id="i-million"),
    pytest.param(lambda p: _first_fixed_coeff(p).update(d=-3.0), "field 'd'", id="d-float"),
    pytest.param(lambda p: _first_fixed_coeff(p).update(a=0.1), "field 'a'", id="a-float"),
    pytest.param(lambda p: _first_fixed_coeff(p).update(a=True), "field 'a'", id="a-bool"),
    pytest.param(lambda p: _first_fixed_coeff(p).update(a="1e1000000"),
                 "coefficient field 'a' is not a rational number: '1e1000000'", id="exponent"),
    pytest.param(lambda p: _first_fixed_coeff(p).update(b=0.5), "field 'b'", id="b-float"),
    pytest.param(lambda p: _sqrt_row_coeffs(p)[0].update(d=5), "field 'd'", id="d-five"),
    pytest.param(lambda p: _sqrt_row_coeffs(p)[-1].update(b="1", d=5), "field 'd'",
                 id="sqrt5-beside-sqrt-3"),
    pytest.param(lambda p: _first_fixed_coeff(p).update(b="2", d=1), "field 'd'",
                 id="d-one-b-nonzero"),
    pytest.param(lambda p: _first_param_coeff(p).update(scale=0.5), "field 'scale'",
                 id="scale-float"),
    pytest.param(lambda p: _first_param_coeff(p).update(scale=False), "field 'scale'",
                 id="scale-bool"),
    # containers of the wrong type, each named by its path in the row
    pytest.param(lambda p: p["families"].__setitem__(0, 5),
                 "families[0]: must be an object, got 5", id="row-int"),
    pytest.param(lambda p: p["families"].__setitem__(3, ["genus"]),
                 "families[3]: must be an object, got ['genus']", id="row-list"),
    pytest.param(lambda p: p["families"][7].update(equation="x^2"),
                 "families[7]: field 'equation' must be an object, got 'x^2'",
                 id="equation-str"),
    pytest.param(lambda p: p["families"][0]["equation"].update(factors=5),
                 "families[0]: field 'equation.factors' must be a list, got 5",
                 id="factors-int"),
    pytest.param(lambda p: p["families"][0]["equation"].update(factors={"0": []}),
                 "families[0]: field 'equation.factors' must be a list, got {'0': []}",
                 id="factors-object"),
    pytest.param(lambda p: p["families"][0]["equation"]["factors"].__setitem__(1, 7),
                 "families[0]: field 'equation.factors[1]' must be a list, got 7",
                 id="factor-int"),
    pytest.param(lambda p: p["families"][0]["equation"]["factors"][0].__setitem__(0, [1]),
                 "families[0]: field 'equation.factors[0][0]' must be an object, got [1]",
                 id="term-list"),
    pytest.param(lambda p: p["families"][0]["equation"]["factors"][0][0].update(c="1"),
                 "families[0]: field 'equation.factors[0][0].c' must be an object, got '1'",
                 id="c-str"),
])
def test_malformed_row_is_io_error_naming_the_field(capsys, tmp_path, edit, field) -> None:
    path = _edited_export(tmp_path, edit)
    for argv in (["list", "--data", path], ["verify", "--data", path]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: invalid dataset: families[")
        assert field in err


@pytest.mark.parametrize("edit,error", [
    (lambda p: p["named_curves"].__setitem__(0, [1]),
     "named_curves[0]: must be an object, got [1]"),
    (lambda p: p["named_curves"][1].update(equation=None),
     "named_curves[1]: field 'equation' must be an object, got None"),
])
def test_misshapen_named_curve_is_io_error_naming_the_field(capsys, tmp_path, edit,
                                                            error) -> None:
    path = _edited_export(tmp_path, edit)
    code, out, err = run(capsys, "list", "--data", path)
    assert code == 3 and out == ""
    assert err == f"error: invalid dataset: {error}\n"


def test_unshaped_row_of_high_degree_is_one_genus_failure(capsys, tmp_path,
                                                         monkeypatch) -> None:
    # Level 4 over x^998 + x + 1: gcd(4, 998) = 2 admits no normal form.
    # That is the row's genus failure, and its separability is never decided:
    # neither Euclid nor the exact path may run on its 999 coefficients.
    from superelliptic import family
    euclid, exact = family._euclid_mod_p, family._exact_probe

    def short(fn, size):
        def checked(*args):
            assert size(*args) < 100, "separability decided on the unshaped row"
            return fn(*args)
        return checked
    monkeypatch.setattr(family, "_euclid_mod_p", short(euclid, len))
    monkeypatch.setattr(family, "_exact_probe", short(exact, lambda *a: a[-1]))
    one = {"kind": "fixed", "a": "1", "b": "0"}
    path = _edited_export(tmp_path, lambda p: p["families"][3].update(
        level=4, equation={"factors": [[{"e": e, "c": one} for e in (998, 1, 0)]]}))
    code, out, err = run(capsys, "verify", "--data", path)
    assert code == 1 and err == ""
    assert ("genus 3 nr 4 (genus): level 4 with degree 998: gcd 2" in out
            and "(separability)" not in out)


def test_degree_above_1000_is_io_error_naming_the_row(capsys, tmp_path) -> None:
    # 1000 bounds a parameter index too; the exact probe expands f densely
    one = {"kind": "fixed", "a": "1", "b": "0"}

    def with_factors(*factors):
        return lambda p: p["families"][3].update(equation={"factors": [
            [{"e": e, "c": one} for e in factor] for factor in factors]})

    path = _edited_export(tmp_path, with_factors((1000, 0)))
    assert run(capsys, "list", "--data", path)[0] == 0
    for factors, degree in ((((500, 0), (501, 0)), 1001), (((10**7, 0),), 10**7)):
        path = _edited_export(tmp_path, with_factors(*factors))
        for argv in (["list", "--data", path], ["verify", "--data", path]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err == ("error: invalid dataset: families[3]: equation degree must be "
                           f"at most 1000, got {degree}\n")


def test_verify_of_a_huge_exponent_exits_3_at_once(tmp_path) -> None:
    # x^10000000 at a shaped level once sent verify into the exact path's
    # dense expansion: 1.5 GB after four minutes
    path = _edited_export(tmp_path, lambda p: _first_term(p).update(e=10**7))
    proc = _fresh_process("verify", "--data", path, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "families[0]: equation degree must be at most 1000" in proc.stderr


_HUGE = 5_000_000
_DEEP = "[" * 985 + "]" * 985   # deep, but within what json.loads reads


def _long_factor(first: int, **fields):
    """Row 0 with the one factor a_first x + ... + a_(first+998) x^999 + x^1000.

    999 parameters of index at most 1,000 and degree 1,000: inside both caps."""
    def edit(payload):
        terms = [{"e": e, "c": {"kind": "param", "i": first + e - 1, "scale": "1"}}
                 for e in range(1, 1000)]
        terms.append({"e": 1000, "c": {"kind": "fixed", "a": "1", "b": "0"}})
        payload["families"][0]["equation"]["factors"] = [terms]
        payload["families"][0].update(fields)
    return edit


@pytest.mark.parametrize("argv,edit,code,message", [
    pytest.param(["list"], lambda p: p["families"][0].update(level="7" * _HUGE), 3,
                 "families[0]: field 'level' must be an integer, got '777", id="level"),
    pytest.param(["list"], lambda p: p["families"][0].update(signature="2," + "x" * _HUGE),
                 3, "families[0]: bad signature entry 'xxx", id="signature"),
    pytest.param(["list"], lambda p: p.update(version="v" * _HUGE), 3,
                 "unsupported dataset version 'vvv", id="version"),
    pytest.param(["verify"], lambda p: p["families"][0].update(label="Q" * _HUGE), 1,
                 "(label): unrecognized group label atom 'QQQ", id="label"),
    pytest.param(["list"], lambda p: p["families"].__setitem__(0, "DEEP"), 3,
                 "families[0]: must be an object, got [[[", id="nested-row"),
    pytest.param(["verify", "--genus", "3"],
                 lambda p: p["families"][0].update(signature=",".join(map(str, range(2, 3202)))),
                 1, "(signature): printed signature 2,3,4,", id="signature-orders"),
    pytest.param(["verify", "--genus", "3"], _long_factor(1), 1,
                 "(genus): equation a_1x+a_2x^2+", id="equation"),
    pytest.param(["verify", "--genus", "3"], _long_factor(2, dim=999), 1,
                 "(parameters): equation's free coefficients are a_2, a_3, ",
                 id="parameter-names"),
])
def test_a_hostile_value_is_quoted_in_part(tmp_path, argv, edit, code, message) -> None:
    # each once wrote the whole value, up to megabytes of it, to stderr or stdout
    path = Path(_edited_export(tmp_path, edit))
    path.write_text(path.read_text(encoding="utf-8").replace('"DEEP"', _DEEP, 1),
                    encoding="utf-8")
    proc = _fresh_process(*argv, "--data", str(path), timeout=60)
    assert proc.returncode == code
    assert message in proc.stdout + proc.stderr
    assert len((proc.stdout + proc.stderr).encode("utf-8")) < 1000


def test_a_short_value_is_quoted_whole() -> None:
    from superelliptic._quote import clip, quote
    for value in ("x" * 98, {"b": 1, "a": [2.5, None, True]}, 10 ** 40, "2,'\\"):
        assert quote(value) == repr(value)
    assert quote("x" * 99) == "'" + "x" * 47 + "..." + "x" * 47 + "'"
    assert clip("2," * 50) == "2," * 50
    assert clip("2," * 50 + "3") == "2," * 24 + "...," + "2," * 23 + "3"


def _edit_row(genus: int, number: int, **fields):
    def edit(payload):
        next(r for r in payload["families"]
             if (r["genus"], r["nr"]) == (genus, number)).update(fields)
    return edit


@pytest.mark.parametrize("edit,failure", [
    pytest.param(_edit_row(6, 11, signature="2^2,3^3,6^2"),
                 "genus 6 nr 11 (erratum): documented signature erratum expects 2^4,6^2, "
                 "but the row does not print 2^3,3^2,6^2", id="signature"),
    pytest.param(_edit_row(6, 20, label="D_10 × C_7"),
                 "genus 6 nr 20 (erratum): documented label erratum expects 50, but the row "
                 "does not print D_10 × C_2", id="label"),
])
def test_an_erratum_excuses_only_the_value_it_documents(capsys, tmp_path, edit,
                                                          failure) -> None:
    path = _edited_export(tmp_path, edit)
    code, out, err = run(capsys, "verify", "--data", path)
    assert (code, err) == (1, "")
    assert f"[failure] {failure}" in out.splitlines()
    if "signature" in failure:
        code, out, _ = run(capsys, "row", "--genus", "6", "--nr", "11", "--data", path)
        assert code == 0 and "signature_status: unrepairable" in out.splitlines()


def test_a_printed_dimension_of_zero_does_not_decide_the_verdict(capsys, tmp_path) -> None:
    # genus 3 row 1 is cyclic with signature 2^8: no criterion applies, whatever dim says
    path = _edited_export(tmp_path, _edit_row(3, 1, dim=0))
    code, out, _ = run(capsys, "classify", "--genus", "3", "--nr", "1", "--data", path,
                       "--format", "json")
    assert code == 0 and json.loads(out)["reason"] is None
    code, out, _ = run(capsys, "verify", "--genus", "3", "--data", path, "--format", "json")
    report = json.loads(out)
    assert code == 1
    assert [(x["number"], x["code"]) for x in report["failures"]] == [
        (1, "dimension"), (1, "parameters")]
    assert report["warnings"] == []


@pytest.mark.parametrize("key", ["families", "note"])
def test_deeply_nested_data_is_io_error(capsys, tmp_path, key) -> None:
    # json.loads raises RecursionError past the interpreter's nesting limit
    deep = "[" * 100_000 + "]" * 100_000
    edit = ((lambda p: p.update(families="DEEP")) if key == "families" else
            (lambda p: p["named_curves"][0].update(note="DEEP")))
    path = Path(_edited_export(tmp_path, edit))
    path.write_text(path.read_text(encoding="utf-8").replace('"DEEP"', deep),
                    encoding="utf-8")
    for argv in (["list", "--data", str(path)], ["verify", "--data", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: invalid dataset: JSON nested too deeply to read\n"


@pytest.mark.parametrize("label", [
    pytest.param("C_2^20000", id="power"),
    pytest.param("C_" + "7" * 5000, id="subscript"),
    pytest.param(" × ".join(["C_" + "9" * 3000] * 2), id="product"),
    pytest.param("C_3^10000000", id="slow-power"),
])
def test_huge_label_is_a_label_failure_not_an_abort(capsys, tmp_path, label) -> None:
    path = _edited_export(tmp_path, _edit_row(3, 1, label=label))
    code, out, err = run(capsys, "verify", "--data", path)
    assert (code, err) == (1, "")
    failures = [line for line in out.splitlines() if line.startswith("[failure]")]
    assert len(failures) == 1
    assert failures[0].startswith("[failure] genus 3 nr 1 (label): ")
    assert failures[0].endswith("above 2^64")
    assert out.splitlines()[-1] == "total: 224 rows, 1 failure(s), 14 warning(s)"


def test_repeated_row_is_io_error_naming_the_row(capsys, tmp_path) -> None:
    path = _edited_export(tmp_path, lambda p: p["families"].append(p["families"][3]))
    for argv in (["list", "--data", path], ["verify", "--data", path]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == "error: invalid dataset: duplicate row genus 3 nr 4\n"


@pytest.mark.parametrize("key,value", [
    ("genus", "3"), ("genus", True), ("level", "2"), ("level", 2.0),
    ("label", None), ("label", 5), ("note", None), ("note", ["x"]),
    ("genus", 1), ("genus", -4), ("level", 1), ("level", 0),    # out of range
])
def test_malformed_named_curve_is_io_error_naming_the_field(capsys, tmp_path,
                                                            key, value) -> None:
    path = _edited_export(tmp_path, lambda p: p["named_curves"][1].update({key: value}))
    for argv in (["list", "--data", path], ["export", "--data", path, "--what", "dataset"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"error: invalid dataset: named_curves[1]: field '{key}'")


@pytest.mark.parametrize("edit,error", [
    pytest.param(lambda p: p.update(families=5), "field 'families' must be a list, got 5",
                 id="families-int"),
    pytest.param(lambda p: p.update(families="abc"),
                 "field 'families' must be a list, got 'abc'", id="families-str"),
    pytest.param(lambda p: p.update(named_curves=5),
                 "field 'named_curves' must be a list, got 5", id="named-curves-int"),
    pytest.param(lambda p: p.update(named_curves=None),
                 "field 'named_curves' must be a list, got None", id="named-curves-null"),
    pytest.param(lambda p: p.pop("named_curves"), None, id="named-curves-absent"),
])
def test_a_section_that_is_not_a_list_is_io_error_naming_it(capsys, tmp_path,
                                                            edit, error) -> None:
    path = _edited_export(tmp_path, edit)
    for argv in (["list", "--data", path], ["verify", "--data", path]):
        code, out, err = run(capsys, *argv)
        if error is None:                     # the named curves are optional
            assert code == 0 and out and err == ""
        else:
            assert code == 3 and out == ""
            assert err == f"error: invalid dataset: {error}\n"


@cache
def _export() -> dict:
    """The embedded dataset's export, parsed; shared by examples, so never edited."""
    from superelliptic.dataset import load_embedded, to_json
    return json.loads(to_json(load_embedded()))


# Small JSON values: a larger number could be an exponent, and the exact
# probe's cost is quadratic in the degree.
_JUNK = (None, True, 0, -1, 2, 1.5, "", "1/0", [], {}, [1])


Corruption = namedtuple("Corruption", "section path delete value")


@st.composite
def _corruptions(draw) -> Corruption:
    """One key deleted, or one value replaced, at any depth of one entry of a section.

    A row's ``genus`` is left alone: a string there is a known fault that
    ``Dataset`` meets only when it sorts the rows.
    """
    section = draw(st.sampled_from(["families", "named_curves"]))
    node = _export()[section]
    path = [draw(st.integers(0, len(node) - 1))]
    depth = draw(st.sampled_from(range(1, 8)))   # 7 reaches a term's coefficient fields
    whole = draw(st.booleans())                  # end on a container where there is one
    while len(path) < depth and type(node[path[-1]]) in (dict, list) and node[path[-1]]:
        node = node[path[-1]]
        keys = sorted(node) if type(node) is dict else range(len(node))
        if len(path) == 1 and section == "families":
            keys.remove("genus")
        containers = [k for k in keys if type(node[k]) in (dict, list) and node[k]]
        deeper = containers and (whole or len(path) + 1 < depth)
        path.append(draw(st.sampled_from(containers if deeper else keys)))
    if type(node) is dict and draw(st.booleans()):
        return Corruption(section, tuple(path), True, None)
    return Corruption(section, tuple(path), False, draw(st.sampled_from(_JUNK)))


def _corrupted_export(corruption: Corruption) -> dict:
    base = _export()
    entries = list(base[corruption.section])
    first, *rest = corruption.path
    entries[first] = copy.deepcopy(entries[first])
    parent, key = entries, first
    for step in rest:
        parent, key = parent[key], step
    if corruption.delete:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(corruption.value)
    return {**base, corruption.section: entries}


@settings(max_examples=150)
@given(_corruptions(), st.integers(3, 10))
def test_a_corrupted_entry_never_gives_a_traceback(tmp_path_factory, corruption, genus) -> None:
    path = tmp_path_factory.mktemp("corrupted") / "families.json"
    path.write_text(json.dumps(_corrupted_export(corruption)), encoding="utf-8")
    for argv, allowed in ((["list"], (0, 3)), (["verify", "--genus", str(genus)], (0, 1, 3))):
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main([*argv, "--data", str(path)])
        assert code in allowed, argv


def test_level_one_row_is_a_finding_not_an_abort(capsys, tmp_path) -> None:
    path = _edited_export(tmp_path, lambda p: p["families"][0].update(level=1))
    code, out, _ = run(capsys, "verify", "--data", path)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("[failure]")]
    assert failures and all(" genus 3 nr 1 " in line for line in failures)
    assert sum("level must be at least 2, got 1" in line for line in failures) == 1
    assert "(separability)" not in out
    assert "total: 224 rows, " in out


def test_row_with_26_parameters_is_a_finding_not_an_abort(capsys, tmp_path) -> None:
    # x(x^27 + a_1x + ... + a_26x^26 + 1) on genus 3's level-2, dimension-5 row 1:
    # genus 13 and 26 free coefficients are failures on that row alone, and a
    # row of the wrong genus gets no separability finding.
    from superelliptic.dataset import Dataset, load_embedded, to_json
    from superelliptic.tables import X, spread, t

    row = load_embedded(3).get(3, 1)._replace(equation=t(X, spread(27, 1, 26)))
    equation = json.loads(to_json(Dataset([row])))["families"][0]["equation"]

    def edit(p):
        p["families"][0]["equation"] = equation

    path = _edited_export(tmp_path, edit)
    assert run(capsys, "list", "--data", path)[0] == 0
    code, out, err = run(capsys, "verify", "--data", path)
    assert (code, err) == (1, "")
    failures = [line for line in out.splitlines() if line.startswith("[failure]")]
    assert failures and all(" genus 3 nr 1 " in line for line in failures)
    assert "(separability)" not in out
    assert "total: 224 rows, " in out


def test_a_float_genus_is_one_malformed_row_not_an_abort(capsys, tmp_path) -> None:
    # from_json does not type-check a row's genus; the signature check raises
    # TypeError on 3.5, and verify reports it on that row and checks the rest.
    path = _edited_export(tmp_path, lambda p: p["families"][0].update(genus=3.5))
    code, out, err = run(capsys, "verify", "--data", path)
    assert (code, err) == (1, "")
    failures = [line for line in out.splitlines() if line.startswith("[failure]")]
    assert len(failures) == 1
    assert failures[0].startswith("[failure] genus 3.5 nr 1 (malformed): TypeError: ")
    assert "\ntotal: 224 rows, 1 failure(s), " in out


def _last_term_field(payload, name: str) -> dict:
    """The dict holding ``name`` in the last family term that has it, valued 1 if one is.

    Terms repeat through the document, so that term most likely follows an
    equal, valid one: a memo blind to types would let ``true`` or ``1.0`` hit it."""
    holders = [u if name == "e" else u["c"] for row in payload["families"]
               for factor in row["equation"]["factors"] for u in factor
               if name == "e" or name in u["c"]]
    return next((h for h in reversed(holders) if h[name] == 1), holders[-1])


def test_term_memo_keeps_each_type_check(capsys, tmp_path) -> None:
    # The memo is keyed on each raw field beside its type: true == 1 and
    # 1.0 == 1 hash alike, so a key without the type could hit a valid term's
    # entry.  Each variant is read after a valid load in this process and must
    # give the message a fresh process gives.
    from superelliptic.dataset import from_json, load_embedded, to_json
    embedded = load_embedded()
    clone = from_json(to_json(embedded))
    assert len(clone) == len(embedded)
    for mine, theirs in zip(clone, embedded):
        assert mine == theirs, theirs.key
    for name in ("e", "a", "b", "d", "i", "scale"):
        for value in (True, 1.0, "1e3", [1]):
            path = _edited_export(
                tmp_path, lambda p: _last_term_field(p, name).update({name: value}))
            fresh = _fresh_process("list", "--data", path, timeout=60)
            assert (fresh.returncode, fresh.stdout) == (3, ""), (name, value)
            assert fresh.stderr.startswith("error: invalid dataset: families[")
            assert f"field {name!r}" in fresh.stderr, (name, value)
            for argv in (["list", "--data", path], ["verify", "--data", path]):
                assert run(capsys, *argv) == (3, "", fresh.stderr), (name, value, argv)


def test_reading_data_leaves_the_collector_as_it_found_it(capsys, tmp_path) -> None:
    good = str(tmp_path / "good.json")
    assert run(capsys, "export", "--what", "dataset", "--out", good)[0] == 0
    bad = _edited_export(tmp_path, lambda p: p["families"][3].update(nr="4"))
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert run(capsys, "list", "--data", good)[0] == 0
            assert run(capsys, "list", "--data", bad)[0] == 3
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_genus_below_two_is_a_finding_or_names_the_row(capsys, tmp_path) -> None:
    path = _edited_export(tmp_path, lambda p: p["families"][0].update(genus=1))
    code, out, _ = run(capsys, "verify", "--data", path)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("[failure]")]
    assert failures and all(" genus 1 nr 1 " in line for line in failures)
    assert ("[failure] genus 1 nr 1 (signature): curve genus must be at least 2, "
            "got 1") in failures
    assert "total: 224 rows, " in out
    for argv in (["row", "--genus", "1", "--nr", "1"],
                 ["classify", "--genus", "1", "--nr", "1"],
                 ["list", "--genus", "1", "--format", "json"]):
        code, out, err = run(capsys, *argv, "--data", path)
        assert (code, out) == (3, "")
        assert err == ("error: invalid dataset: genus 1 nr 1: curve genus must be at "
                       "least 2, got 1\n")
    assert run(capsys, "list", "--genus", "1", "--data", path)[0] == 0

"""The public surface: every exported name resolves, every demo runs, the
records are immutable values and a CLI call imports only what it needs."""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import pickle
import pkgutil
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import pytest

import superelliptic
from superelliptic.dataset import classify_record, load_embedded, repair_signature, to_json
from superelliptic.arith import QuadNum
from superelliptic.classify import Classification, Reason
from superelliptic.family import EquationTemplate, ParamCoeff, Term, separability_probe
from superelliptic.groups import GroupLabel, ReducedGroup, ReducedKind, parse_group_label
from superelliptic.signature import Signature, SignatureRepair
from superelliptic.verify import VerifyReport, derive, verify_dataset, verify_row

ROOT = Path(__file__).resolve().parent.parent
MODULES = [superelliptic] + [
    importlib.import_module(f"superelliptic.{info.name}")
    for info in pkgutil.iter_modules(superelliptic.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module) -> None:
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_snippet_prints_its_comments() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    said = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == said


def _records() -> list:
    ds = load_embedded()
    row = ds.get(6, 11)
    result = verify_row(row)
    resolution = repair_signature(row)
    term = row.equation.factors[0][0]
    label = parse_group_label(row.label_text, row.group_order())
    # one Classification per outcome: the row's own (no criterion) and one per reason
    proving = [pytest.param(Classification(reason), id=f"Classification-{reason}")
               for reason in (Reason.UNIQUE_SUBGROUP, Reason.ODD_SIGNATURE)]
    return [row, row.signature, row.reduced_group(), label, row.equation, term,
            ParamCoeff(2, -1), resolution,
            classify_record(row), *proving, result, result.findings[0],
            verify_dataset(ds, genera=[6]),
            separability_probe(row.level, row.equation), derive(row.level, row.equation),
            ds.named_curves[0]]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_hashable_values(record) -> None:
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = None
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record)


def test_outcome_records_store_each_fact_once() -> None:
    # the derived facts are properties, not fields a caller could set apart
    assert Classification._fields == ("reason",)
    assert SignatureRepair._fields == ("status", "effective", "candidates", "edit")
    assert GroupLabel._fields == ("order", "recognized")
    assert VerifyReport._fields == ("rows",)
    assert not hasattr(ReducedGroup, "cyclic") and not hasattr(ReducedGroup, "dihedral")
    assert classify_record(load_embedded().get(6, 11)) == (None,)


def test_rows_survive_pickle_and_deepcopy() -> None:
    # QuadNum forbids attribute assignment, so both must rebuild it by its constructor
    for row in load_embedded():
        assert pickle.loads(pickle.dumps(row)) == row
        assert deepcopy(row) == row


@pytest.mark.parametrize("build", [
    lambda: Term(-1, QuadNum(1)),
    lambda: ReducedGroup(ReducedKind.CYCLIC, 0),
    lambda: ReducedGroup(ReducedKind.TETRAHEDRAL, 2),
    lambda: Signature(((1, 2),)),
    # _replace goes through _make, which must re-run the checks too
    lambda: Signature(((2, 1),))._replace(entries=((1, 1),)),
    lambda: ReducedGroup(ReducedKind.CYCLIC, 3)._replace(m=0),
    lambda: Term(2, QuadNum(1))._replace(exponent=-1),
    lambda: ParamCoeff(1)._replace(index=0),
    lambda: EquationTemplate(((Term(1, QuadNum(1)),),))._replace(factors=()),
])
def test_validated_records_still_reject_bad_fields(build) -> None:
    with pytest.raises(ValueError):
        build()


def _modules_after(code: str) -> set[str]:
    # -S: no site hook, so a module that a .pth file preloads (re, enum,
    # typing) counts against the call instead of hiding in the bare set
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code + "\nimport sys\n"
                           "print(' '.join(sorted(sys.modules)))"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return set(proc.stdout.split())


def test_cli_call_imports_no_heavy_modules(tmp_path) -> None:
    # fractions loads decimal and numbers: the package's rationals are arith.Rational
    heavy = {"dataclasses", "inspect", "csv", "datetime", "json", "typing",
             "fractions", "decimal", "numbers", "re", "enum"}
    bare = _modules_after("")
    export = tmp_path / "families.json"
    text = to_json(load_embedded())
    export.write_text(text, encoding="utf-8")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[:text.index('"signature": "') + 16], encoding="utf-8")
    # each call, its exit code, and the heavy modules it may load: json's C scanner
    # reads a well-formed document, and only a malformed one takes json.loads,
    # which imports re, and re enum
    for argv, code, needs in (
            (["list", "--genus", "3"], 0, set()), (["levels", "--genus", "5"], 0, set()),
            (["verify", "--genus", "3"], 0, set()),
            (["verify", "--format", "json"], 0, set()),
            (["export", "--what", "dataset"], 0, set()),
            (["row", "--genus", "6", "--nr", "11", "--format", "json"], 0, set()),
            (["list", "--data", str(export)], 0, set()),
            (["row", "--data", str(export), "--genus", "6", "--nr", "11"], 0, set()),
            (["export", "--data", str(export), "--what", "dataset"], 0, set()),
            (["list", "--data", str(truncated)], 3, {"json", "re", "enum"})):
        loaded = _modules_after("import io, contextlib\n"
                                "from superelliptic.cli import main\n"
                                "with contextlib.redirect_stdout(io.StringIO()),"
                                " contextlib.redirect_stderr(io.StringIO()):\n"
                                f"    assert main({argv!r}) == {code}")
        assert "superelliptic.tables" in loaded
        assert heavy & loaded <= heavy & bare | needs, argv

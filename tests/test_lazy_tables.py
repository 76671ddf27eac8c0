"""The genus tables are built on first read, in child processes only.

``tables.genus_table`` caches each table it builds, so its ``cache_info`` in a
fresh interpreter tells which genera a call built.  A call that names one
genus builds that genus alone, a ``--data`` call and the errata export build
none, and importing the package builds none.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from superelliptic.dataset import load_embedded, to_json

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def child(code: str) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, cwd=ROOT, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def built_by(argv: list[str]) -> tuple[int, list[int]]:
    """``cli.main(argv)``'s exit code and the genera it built, in a fresh interpreter."""
    code, out, err = child(
        "import contextlib, io\n"
        "from superelliptic import cli, tables\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "built = []\n"
        "for genus in tables.GENERA:\n"   # a cached genus is a hit and builds nothing
        "    hits = tables.genus_table.cache_info().hits\n"
        "    tables.genus_table(genus)\n"
        "    if tables.genus_table.cache_info().hits > hits:\n"
        "        built.append(genus)\n"
        "print(code, *built)\n")
    assert err == ""
    code, *built = map(int, out.split())
    return code, built


def test_importing_the_cli_builds_no_table() -> None:
    assert child("import superelliptic.cli\n"
                 "from superelliptic import tables\n"
                 "print(tables.genus_table.cache_info().currsize,"
                 " tables.named_curves.cache_info().currsize)\n") == (0, "0 0\n", "")


@pytest.mark.parametrize("argv", [
    ["row", "--genus", "3", "--nr", "1"],
    ["classify", "--genus", "6", "--nr", "11"],
    ["list", "--genus", "9", "--format", "json"],
    ["verify", "--genus", "5"],
    ["export", "--what", "csv", "--genus", "10"],
], ids=" ".join)
def test_a_one_genus_call_builds_that_genus_alone(argv) -> None:
    assert built_by(argv) == (0, [int(argv[argv.index("--genus") + 1])])


def test_a_whole_table_call_builds_every_genus() -> None:
    assert built_by(["export", "--what", "blue"]) == (0, [3, 4, 5, 6, 7, 8, 9, 10])


def test_a_data_call_builds_no_genus(tmp_path) -> None:
    path = tmp_path / "families.json"
    path.write_text(to_json(load_embedded()), encoding="utf-8")
    assert built_by(["list", "--data", str(path)]) == (0, [])


def test_the_errata_export_builds_no_genus() -> None:
    # the errata are a registry of their own; no row is read
    assert built_by(["export", "--what", "errata"]) == (0, [])


def test_one_genus_is_the_slice_of_the_whole() -> None:
    # Each genus loaded alone first, from an empty cache, then the whole table.
    code, out, err = child(
        "from superelliptic import tables\n"
        "from superelliptic.dataset import load_embedded\n"
        "one = {genus: load_embedded(genus) for genus in tables.GENERA}\n"
        "whole = load_embedded()\n"
        "print(all(one[g].records == whole.genus_rows(g) for g in tables.GENERA),\n"
        "      all(one[g].named_curves == tuple(c for c in whole.named_curves\n"
        "                                       if c.genus == g) for g in tables.GENERA),\n"
        "      sum(map(len, one.values())), len(whole), len(load_embedded(12)))\n")
    assert (code, out, err) == (0, "True True 224 224 0\n", "")


@pytest.mark.parametrize("argv, message", [
    (["list", "--genus", "12"], "error: no rows for genus 12\n"),
    (["row", "--genus", "3", "--nr", "99"], "error: no row 99 in the genus-3 table\n"),
], ids=["list --genus 12", "row --genus 3 --nr 99"])
def test_a_missing_genus_or_row_is_still_a_usage_error(argv, message) -> None:
    code, out, err = child("import sys\n"
                           "from superelliptic import cli\n"
                           f"sys.exit(cli.main({argv!r}))\n")
    assert (code, out, err) == (2, "", message)

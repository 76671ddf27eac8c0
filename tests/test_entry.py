"""The process entry, ``superelliptic.cli.run``, in child processes only.

``run`` ends the process with ``os._exit``, so no test calls it in the test
process.  Each child runs without ``PYTHONUNBUFFERED``, so the output still
buffered when ``main`` returns must reach the parent through ``run``'s flush.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from superelliptic.cli import main
from superelliptic.dataset import load_embedded, to_json

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ENV.pop("PYTHONUNBUFFERED", None)


def child(*args: str, stdout=subprocess.PIPE) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, *args], stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE, env=ENV, cwd=ROOT, timeout=60)
    out = proc.stdout.decode("utf-8") if proc.stdout is not None else ""
    return proc.returncode, out, proc.stderr.decode("utf-8")


def _write_edited(path: Path, edit) -> str:
    payload = json.loads(to_json(load_embedded()))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _drop_constant_of_x_times_factor(payload) -> None:
    """x*(... + c) with c dropped: x^2 divides the polynomial."""
    x = [{"c": {"a": "1", "b": "0", "kind": "fixed"}, "e": 1}]
    row = next(r for r in payload["families"] if r["equation"]["factors"][0] == x
               and any(t["e"] == 0 and t["c"]["kind"] == "fixed"
                       for t in r["equation"]["factors"][1]))
    factor = row["equation"]["factors"][1]
    factor[:] = [t for t in factor if t["e"] != 0]


def _calls(tmp: Path) -> list[list[str]]:
    malformed = tmp / "malformed.json"
    malformed.write_text('{"version": 1, "families": [', encoding="utf-8")
    inseparable = _write_edited(tmp / "inseparable.json", _drop_constant_of_x_times_factor)
    return [
        ["list"],
        ["verify", "--format", "json"],
        ["export", "--what", "dataset"],          # 309 KB, more than a pipe buffer
        ["row", "--genus", "3", "--nr", "99"],
        ["list", "--data", str(malformed)],
        ["verify", "--data", inseparable],
    ]


def test_the_process_entry_prints_what_main_returns(capsys, tmp_path) -> None:
    codes = []
    for argv in _calls(tmp_path):
        code = main(argv)
        captured = capsys.readouterr()
        assert child("-m", "superelliptic.cli", *argv) == (code, captured.out, captured.err)
        codes.append(code)
    assert codes == [0, 0, 0, 2, 3, 1]


def test_the_process_entry_writes_the_same_export_file(capsys, tmp_path) -> None:
    argv = ["export", "--what", "dataset", "--out"]
    assert main([*argv, str(tmp_path / "in-process.json")]) == 0
    assert capsys.readouterr() == ("", "")
    assert child("-m", "superelliptic.cli", *argv, str(tmp_path / "child.json")) == (0, "", "")
    expected = (tmp_path / "in-process.json").read_bytes()
    assert (tmp_path / "child.json").read_bytes() == expected == to_json(
        load_embedded()).encode("utf-8")


def test_exit_hooks_run_and_teardown_is_skipped() -> None:
    # An object left in __main__ is freed, and says so, only by the
    # interpreter's teardown; a hook registered by other code still runs.
    code, out, err = child("-c", "import atexit, runpy, sys\n"
                           "class Noisy:\n"
                           "    def __del__(self):\n"
                           "        print('teardown ran')\n"
                           "noisy = Noisy()\n"
                           "atexit.register(print, 'hook ran')\n"
                           "sys.argv = ['superelliptic', 'levels', '--genus', '3']\n"
                           "runpy.run_module('superelliptic.cli', run_name='__main__')\n")
    assert (code, err) == (0, "")
    assert out.startswith("level 2: 8 branch points\n")
    assert out.endswith("hook ran\n")
    assert "teardown ran" not in out


def test_a_profiler_still_prints_its_stats() -> None:
    code, out, err = child("-m", "cProfile", "-m", "superelliptic.cli", "levels",
                           "--genus", "3")
    assert (code, err) == (0, "")
    assert out.startswith("level 2: 8 branch points\n")
    assert "function calls" in out and "Ordered by" in out


def test_python_i_still_opens_the_prompt() -> None:
    code, out, err = child("-i", "-m", "superelliptic.cli", "levels", "--genus", "3")
    assert code == 0
    assert out.startswith("level 2: 8 branch points\n")
    assert ">>> " in err


def test_python_i_opens_the_prompt_with_the_collector_on() -> None:
    proc = subprocess.run([sys.executable, "-i", "-m", "superelliptic.cli", "levels",
                           "--genus", "3"], input="import gc; print(gc.isenabled())\n",
                          capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "True"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_flush_exits_through_the_interpreter() -> None:
    # The row's text is still in stdout's buffer when main returns; writing
    # it to a full device fails, and the interpreter reports that as it would
    # without run's exit.
    with open("/dev/full", "wb") as full:
        code, _, err = child("-m", "superelliptic.cli", "row", "--genus", "3", "--nr", "1",
                             stdout=full)
    assert code == 120
    assert "No space left on device" in err and "Traceback" not in err


def test_a_process_started_without_stdout_exits_with_mains_code() -> None:
    # With descriptor 1 closed at start the interpreter sets sys.stdout to None.
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                           "superelliptic.cli", "levels", "--genus", "1"],
                          stderr=subprocess.PIPE, env=ENV, cwd=ROOT, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, b"error: genus must be at least 2, got 1\n")


def test_an_exception_leaving_main_still_prints_its_traceback(tmp_path) -> None:
    # A string genus is a known fault of the --data boundary: it escapes main
    # as a TypeError instead of exiting 3.
    path = _write_edited(tmp_path / "string-genus.json",
                         lambda p: p["families"][0].update(genus="3"))
    code, out, err = child("-m", "superelliptic.cli", "list", "--data", path)
    assert (code, out) == (1, "")
    assert err.startswith("Traceback (most recent call last):")


def test_the_console_script_is_the_main_block_entry() -> None:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^superelliptic = "superelliptic\.cli:(\w+)"$', pyproject,
                       re.MULTILINE).group(1)
    tree = ast.parse((ROOT / "src" / "superelliptic" / "cli.py").read_text(encoding="utf-8"))
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(statement) for statement in block.body] == [f"{target}()"]


def _modules_at_exit(*argv: str) -> tuple[int, set[str]]:
    """Exit code and ``sys.modules`` as an exit hook sees it, for a CLI process
    (no ``argv``: a process that runs no CLI)."""
    cli = (f"sys.argv = ['superelliptic', *{list(argv)!r}]\n"
           "runpy.run_module('superelliptic.cli', run_name='__main__')\n") if argv else ""
    code, _, err = child("-c", "import atexit, runpy, sys\n"
                         "atexit.register(lambda: print('modules:', *sys.modules,"
                         " file=sys.stderr))\n" + cli)
    return code, set(err.splitlines()[-1].split()[1:])


@pytest.mark.parametrize("argv", [
    ["row", "--genus", "3", "--nr", "1"],
    ["classify", "--genus", "6", "--nr", "11", "--format", "json"],
    ["list", "--genus", "3", "--blue-only"],
    ["export", "--what", "csv", "--genus", "4"],
], ids=lambda argv: argv[0])
def test_a_plain_command_line_imports_no_argparse_and_no_verify(argv) -> None:
    bare = _modules_at_exit()[1]
    code, loaded = _modules_at_exit(*argv)
    assert code == 0
    assert "superelliptic.tables" in loaded
    assert {"argparse", "gettext", "locale", "superelliptic.verify"} & (loaded - bare) == set()


def test_a_usage_error_still_goes_through_argparse() -> None:
    code, loaded = _modules_at_exit("list", "--genus", "x")
    assert code == 2
    assert "argparse" in loaded


def test_the_package_imports_each_module_on_first_use() -> None:
    code, out, err = child("-c", "import sys, superelliptic\n"
                           "print([m for m in sys.modules if m.startswith('superelliptic.')])\n"
                           "import superelliptic.cli\n"   # loads the module classify
                           "from superelliptic import *\n"
                           "print(sorted(set(superelliptic.__all__) - set(globals())))\n"
                           "print(classify.__module__, superelliptic.classify is classify)\n"
                           "print(sorted(set(superelliptic.__all__) - set(dir(superelliptic))))\n")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["[]", "[]", "superelliptic.classify True", "[]"]

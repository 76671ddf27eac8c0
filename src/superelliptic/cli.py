"""Command-line interface.

Subcommands: ``list`` (print tables), ``verify`` (re-derive every column),
``classify`` (verdict for one row), ``levels`` (admissible level/branch-point
splittings for a genus), ``row`` (full detail for one row), ``export``
(dataset JSON, per-genus CSV, highlighted-row map, or the documented
errata).  Output is deterministic unless ``--timestamps`` is given.

Exit codes: 0 success, 1 verification failures, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import tables
from .classify import classify
from .dataset import (Dataset, classify_record, dump_json, export_csv, from_json,
                      load_embedded, repair_signature, to_json)
from .family import branch_count, enumerate_levels, normal_form_admissible

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# One option of a subcommand.  ``kind`` is "flag", "int", "choice" or "path";
# ``default`` is the value when the option is absent, and ``help`` and
# ``metavar`` are what argparse shows.
_Option = namedtuple("_Option", "name kind help required default choices metavar",
                     defaults=(None, False, None, None, None))

_DATA = _Option("--data", "path", "load the dataset from a JSON file instead of the "
                "embedded tables", metavar="PATH")
_FORMAT = _Option("--format", "choice", "output format (default: text)", default="text",
                  choices=("text", "json"))
_TIMESTAMPS = _Option("--timestamps", "flag", "include a generation timestamp in the output",
                      default=False)
_GENUS = _Option("--genus", "int", "restrict to one genus")
_REQUIRED_GENUS = _Option("--genus", "int", required=True)
_NR = _Option("--nr", "int", required=True)

# The grammar, spelled once: each subcommand's help and options, in the order
# argparse lists them.  _build_parser and _fast_parse both read it.
_COMMANDS = {
    "list": ("print classification tables", (
        _DATA, _FORMAT, _TIMESTAMPS, _GENUS,
        _Option("--blue-only", "flag", "only rows not provably definable", default=False))),
    "verify": ("re-derive every column of the tables", (
        _DATA, _FORMAT, _TIMESTAMPS, _GENUS,
        _Option("--strict", "flag", "treat documented deviations as failures", default=False),
        _Option("--verbose", "flag", "also print warnings in text output", default=False))),
    "classify": ("verdict for a single row",
                 (_DATA, _FORMAT, _TIMESTAMPS, _REQUIRED_GENUS, _NR)),
    "levels": ("admissible level/branch-point splittings",
               (_FORMAT, _TIMESTAMPS, _REQUIRED_GENUS)),   # levels reads no dataset
    "row": ("full detail for a single row",
            (_DATA, _FORMAT, _TIMESTAMPS, _REQUIRED_GENUS, _NR)),
    "export": ("machine-readable exports", (
        _DATA, _TIMESTAMPS,
        _Option("--what", "choice", default="dataset",
                choices=("dataset", "csv", "blue", "errata")),
        _Option("--genus", "int", "genus for --what csv"),
        _Option("--out", "path", "write to a file instead of stdout", metavar="PATH"))),
}


def _build_parser():
    """The argparse parser for :data:`_COMMANDS`: help, usage errors and every argv
    :func:`_fast_parse` declines."""
    import argparse  # imported on use: a plain command line never needs it

    parser = argparse.ArgumentParser(
        prog="superelliptic",
        description="Classify superelliptic curve families by whether the "
                    "field of moduli is provably a field of definition.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in options:
            if o.kind == "flag":
                p.add_argument(o.name, action="store_true", help=o.help)
            else:
                p.add_argument(o.name, type=int if o.kind == "int" else None,
                               choices=o.choices, required=o.required, default=o.default,
                               help=o.help, metavar=o.metavar)
    return parser


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` returns, for a plain ``argv``; else None.

    A one-sided shortcut: it answers only when ``argv[0]`` is a subcommand and
    every later token is an exact option name of it, not repeated, each
    followed (unless a flag) by a value that does not start with ``-`` and is
    ASCII digits for an int and one of the choices for a choice, with every
    required option present.  Anything else (help, a usage error, or a form
    argparse also reads, such as ``--genus=3``, ``--gen 3`` or ``--genus -3``)
    is None, and argparse decides.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {o.name: o for o in _COMMANDS[argv[0]][1]}
    given = {}
    tokens = iter(argv[1:])
    for name in tokens:
        option = options.get(name)
        if option is None or name in given:
            return None
        if option.kind == "flag":
            given[name] = True
            continue
        value = next(tokens, "-")     # a missing value reads as one argparse refuses
        if value.startswith("-"):
            return None
        if option.kind == "int":
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:        # past the interpreter's limit on integer digits
                return None
        elif option.kind == "choice" and value not in option.choices:
            return None
        given[name] = value
    if any(o.required and o.name not in given for o in options.values()):
        return None
    return SimpleNamespace(command=argv[0], **{
        o.name[2:].replace("-", "_"): given.get(o.name, o.default) for o in options.values()})


def _load_dataset(args, genus: int | None = None) -> Dataset:
    """The ``--data`` file whole, or the embedded tables: only ``genus``'s when given."""
    if args.data is not None:   # an empty path is an I/O error, not the embedded tables
        with open(args.data, "r", encoding="utf-8") as fh:
            text = fh.read()
        # The parsed document is a tree of some 3,800 containers, all alive until
        # the dataset is built: the cyclic collector would rescan them as they
        # accumulate and free nothing.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return from_json(text)
        finally:
            if enabled:
                gc.enable()
    return load_embedded(genus)


def _timestamp() -> str:
    from datetime import datetime, timezone  # imported on use: most calls print no time

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(text: str, out_path: str | None = None) -> None:
    if out_path is not None:    # an empty path is an I/O error, not stdout
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict, out_path: str | None = None) -> None:
    if args.timestamps:
        payload["generated_at"] = _timestamp()
    _emit(dump_json(payload), out_path)


def _emit_lines(args, lines: list[str]) -> None:
    if args.timestamps:
        lines = [f"# generated {_timestamp()}", *lines]
    _emit("\n".join(lines) + "\n")


_LIST_HEADER = ["Nr", "", "reduced", "full group", "order", "n", "m",
                "signature", "dim", "equation"]


def _format_table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(r)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _record_summary(record, detail: bool = False) -> dict:
    """A row as ``list --format json`` prints it; ``detail`` adds what ``row`` shows."""
    reduced = record.reduced_group()
    order = record.level * reduced.order
    resolution = repair_signature(record, order)
    out = {
        "genus": record.genus,
        "nr": record.number,
        "block": record.block.value,
        "reduced_group": reduced.describe(),
        "full_group": record.label_text,
        "order": order,
        "level": record.level,
        "m": record.m,
        "signature": record.signature.render(),
        "dim": record.delta,
        "equation": record.equation.render(),
        "highlighted": record.highlighted,
    }
    out.update(classify(reduced, resolution.effective).to_json_dict())
    if detail or resolution.changed:
        out["effective_signature"] = resolution.effective.render()
        out["signature_status"] = resolution.status
    if detail:
        out["branch_points"] = branch_count(record.level, record.equation)
        out["parameters"] = record.equation.parameter_count
    return out


def _cmd_list(args) -> int:
    ds = _load_dataset(args, args.genus)
    genera = [args.genus] if args.genus is not None else list(ds.genera)
    records = [r for g in genera for r in ds.genus_rows(g)
               if not args.blue_only or r.highlighted]
    if args.format == "json":
        _emit_json(args, {"rows": [_record_summary(r) for r in records]})
        return EXIT_OK
    chunks = []
    for genus in genera:
        rows = [r for r in records if r.genus == genus]
        if not rows:
            continue
        chunks.append(f"genus {genus} ({len(rows)} rows; * = possibly not "
                      f"definable over the field of moduli)")
        table = [_LIST_HEADER]
        for r in rows:
            cells = r.cells()
            cells.insert(1, "*" if r.highlighted else "")
            table.append(cells)
        chunks.append(_format_table(table))
    _emit_lines(args, chunks)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import verify_dataset  # imported on use: only verify checks rows

    ds = _load_dataset(args, args.genus)
    genera = [args.genus] if args.genus is not None else None
    report = verify_dataset(ds, genera=genera, strict=args.strict)
    if args.format == "json":
        _emit_json(args, {
            "ok": report.ok,
            "rows_checked": len(report.rows),
            "failures": [f._asdict() for f in report.failures],
            "warnings": [f._asdict() for f in report.warnings],
        })
    else:
        _emit_lines(args, [report.render(verbose=args.verbose)])
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_classify(args) -> int:
    ds = _load_dataset(args, args.genus)
    verdict = classify_record(ds.get(args.genus, args.nr))
    if args.format == "json":
        _emit_json(args, verdict.to_json_dict())
    else:
        if verdict.is_definable:
            text = f"definable ({verdict.theorem})"
        else:
            text = f"possibly not definable: {verdict.theorem}"
        _emit_lines(args, [text])
    return EXIT_OK


def _cmd_levels(args) -> int:
    try:
        pairs = enumerate_levels(args.genus)
    except ValueError as exc:   # a genus below 2: a bad argument, as levels reads no dataset
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = [{"level": n, "branch_points": b,
             "normal_form": normal_form_admissible(n, b)} for n, b in pairs]
    if args.format == "json":
        _emit_json(args, {"genus": args.genus, "levels": rows})
    else:
        lines = []
        for row in rows:
            note = "" if row["normal_form"] else "  (no normal form)"
            lines.append(f"level {row['level']}: {row['branch_points']} "
                         f"branch points{note}")
        _emit_lines(args, lines)
    return EXIT_OK


def _cmd_row(args) -> int:
    ds = _load_dataset(args, args.genus)
    summary = _record_summary(ds.get(args.genus, args.nr), detail=True)
    if args.format == "json":
        _emit_json(args, summary)
    else:
        order = ("genus", "nr", "block", "reduced_group", "full_group", "order",
                 "level", "m", "signature", "signature_status",
                 "effective_signature", "branch_points", "dim", "parameters",
                 "equation", "verdict", "reason", "theorem", "highlighted")
        _emit_lines(args, [f"{key}: {summary[key]}" for key in order])
    return EXIT_OK


def _cmd_export(args) -> int:
    if args.what == "errata":
        if args.data is not None:   # the errata read no row, but a --data file is still checked
            _load_dataset(args)
        _emit_json(args, _errata(), args.out)
        return EXIT_OK
    ds = _load_dataset(args, args.genus if args.what == "csv" else None)
    if args.what == "csv":
        if args.genus is None:
            _build_parser().error("--what csv requires --genus")
        _emit(export_csv(ds, args.genus), args.out)
        return EXIT_OK
    if args.what == "dataset":
        _emit(to_json(ds), args.out)
        return EXIT_OK
    # --what blue
    _emit_json(args, {str(g): list(ds.highlighted_numbers(g)) for g in ds.genera}, args.out)
    return EXIT_OK


def _errata() -> dict:
    """The documented errata, by section, and the prose's level tally."""
    errata: dict = {}
    for e in sorted(tables.ERRATA):
        row = {"genus": e.genus, "nr": e.number}
        if e.code == "signature" and not e.why:
            section, item = "signature_misprints", [e.genus, e.number]
        elif e.code == "signature":
            section, item = "manual_signature_corrections", {
                **row, "corrected": e.derived, "reason": e.why}
        elif e.code == "equation":
            section, item = "equation_corrections", {**row, "printed": e.printed, "reason": e.why}
        elif e.code == "cosmetic":
            section, item = "cosmetic_notes", {**row, "note": e.why}
        else:
            section, item = f"{e.code}_discrepancies", {**row, "reason": e.why}
        errata.setdefault(section, []).append(item)
    errata["prose_level_tally"] = {str(g): {str(k): v for k, v in t.items()}
                                   for g, t in tables.PROSE_LEVEL_TALLY.items()}
    return errata


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv) or _build_parser().parse_args(argv)
    command = {"list": _cmd_list, "verify": _cmd_verify, "classify": _cmd_classify,
               "levels": _cmd_levels, "row": _cmd_row, "export": _cmd_export}[args.command]
    try:
        return command(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: invalid dataset: {exc}", file=sys.stderr)
        return EXIT_IO


def run(argv=None) -> None:
    """The process entry: :func:`main`, then an exit that skips the interpreter's teardown.

    Exit hooks still run and stdout and stderr are flushed; a tracer, a profiler,
    ``-i`` or a failed flush takes the interpreter's exit.  Library code calls ``main``.
    """
    code = main(argv)
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect:
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:   # None when started with the descriptor closed
                stream.flush()
    except (OSError, ValueError):    # a closed pipe or file: the interpreter reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()

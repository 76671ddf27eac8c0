"""Command-line interface.

Subcommands: ``list`` (print tables), ``verify`` (re-derive every column),
``classify`` (verdict for one row), ``levels`` (admissible level/branch-point
splittings for a genus), ``row`` (full detail for one row), ``export``
(dataset JSON, per-genus CSV, highlighted-row map, or the documented
errata).  Output is deterministic unless ``--timestamps`` is given.

Exit codes: 0 success, 1 verification failures, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import tables
from .classify import classify
from .dataset import (Dataset, classify_record, dump_json, export_csv, from_json,
                      load_embedded, repair_signature, to_json)
from .family import branch_count, enumerate_levels, normal_form_admissible
from .verify import verify_dataset

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superelliptic",
        description="Classify superelliptic curve families by whether the "
                    "field of moduli is provably a field of definition.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt: bool = True, data: bool = True) -> None:
        if data:
            p.add_argument("--data", metavar="PATH",
                           help="load the dataset from a JSON file instead of the "
                                "embedded tables")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text",
                           help="output format (default: text)")
        p.add_argument("--timestamps", action="store_true",
                       help="include a generation timestamp in the output")

    p_list = sub.add_parser("list", help="print classification tables")
    common(p_list)
    p_list.add_argument("--genus", type=int, help="restrict to one genus")
    p_list.add_argument("--blue-only", action="store_true",
                        help="only rows not provably definable")

    p_verify = sub.add_parser("verify", help="re-derive every column of the tables")
    common(p_verify)
    p_verify.add_argument("--genus", type=int, help="restrict to one genus")
    p_verify.add_argument("--strict", action="store_true",
                          help="treat documented deviations as failures")
    p_verify.add_argument("--verbose", action="store_true",
                          help="also print warnings in text output")

    p_classify = sub.add_parser("classify", help="verdict for a single row")
    common(p_classify)
    p_classify.add_argument("--genus", type=int, required=True)
    p_classify.add_argument("--nr", type=int, required=True)

    p_levels = sub.add_parser("levels",
                              help="admissible level/branch-point splittings")
    common(p_levels, data=False)  # levels reads no dataset
    p_levels.add_argument("--genus", type=int, required=True)

    p_row = sub.add_parser("row", help="full detail for a single row")
    common(p_row)
    p_row.add_argument("--genus", type=int, required=True)
    p_row.add_argument("--nr", type=int, required=True)

    p_export = sub.add_parser("export", help="machine-readable exports")
    common(p_export, fmt=False)
    p_export.add_argument("--what", choices=("dataset", "csv", "blue", "errata"),
                          default="dataset")
    p_export.add_argument("--genus", type=int, help="genus for --what csv")
    p_export.add_argument("--out", metavar="PATH",
                          help="write to a file instead of stdout")
    return parser


def _load_dataset(args) -> Dataset:
    if args.data:
        with open(args.data, "r", encoding="utf-8") as fh:
            return from_json(fh.read())
    return load_embedded()


def _timestamp() -> str:
    from datetime import datetime, timezone  # imported on use: most calls print no time

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(text: str, out_path: str | None = None) -> None:
    if out_path:
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
    out.update(classify(reduced, resolution.effective, record.delta).to_json_dict())
    if detail or resolution.changed:
        out["effective_signature"] = resolution.effective.render()
        out["signature_status"] = resolution.status
    if detail:
        out["branch_points"] = branch_count(record.level, record.equation)
        out["parameters"] = record.equation.parameter_count
    return out


def _cmd_list(args) -> int:
    ds = _load_dataset(args)
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
    ds = _load_dataset(args)
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
    ds = _load_dataset(args)
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
    ds = _load_dataset(args)
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


def _cmd_export(args, parser: argparse.ArgumentParser) -> int:
    ds = _load_dataset(args)
    if args.what == "csv":
        if args.genus is None:
            parser.error("--what csv requires --genus")
        _emit(export_csv(ds, args.genus), args.out)
        return EXIT_OK
    if args.what == "dataset":
        _emit(to_json(ds), args.out)
        return EXIT_OK
    if args.what == "blue":
        _emit_json(args, {str(g): list(ds.highlighted_numbers(g)) for g in ds.genera},
                   args.out)
        return EXIT_OK
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
    _emit_json(args, errata, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"list": _cmd_list, "verify": _cmd_verify, "classify": _cmd_classify,
               "levels": _cmd_levels, "row": _cmd_row,
               "export": lambda a: _cmd_export(a, parser)}[args.command]
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


if __name__ == "__main__":
    sys.exit(main())

"""Checks of each CLI operation's output against :mod:`oracle`.

A check takes the operation, its exit code, stdout and stderr, and the
:class:`Reference` built from the input data, and returns the list of
problems it found; an empty list means the output is right.  No check
compares against a stored copy of an earlier output: each property is
recomputed from the table's data.
"""

from __future__ import annotations

import csv
import io
import json
import re

import oracle

THEOREM_TEXT = {
    oracle.UNIQUE_SUBGROUP: "unique-subgroup descent criterion",
    oracle.ODD_SIGNATURE: "odd-signature criterion",
    oracle.QUASIPLATONIC: "quasiplatonic rigidity",
    None: "no applicable sufficiency criterion",
}

CSV_COLUMNS = ["Nr", "reduced_group", "full_group", "order", "n", "m",
               "signature", "delta", "blue", "equation"]

EXIT_OK, EXIT_VERIFY_FAILED, EXIT_IO = 0, 1, 3


class Reference:
    """The input table as data, with everything the oracle derives from it."""

    def __init__(self, dataset_text: str):
        self.dataset_text = dataset_text
        payload = json.loads(dataset_text)
        self.rows = {(r["genus"], r["nr"]): r for r in payload["families"]}
        self.facts = {k: oracle.row_facts(r) for k, r in self.rows.items()}
        self.genera = sorted({g for g, _ in self.rows})
        self.printed_blue = {k for k, r in self.rows.items() if r["highlighted"]}
        self.computed_blue = {k for k, f in self.facts.items()
                              if f.verdict[0] == oracle.NOT_DEFINABLE}
        unbalanced = {k for k, f in self.facts.items() if not f.printed_balances}
        self.unrepairable = {
            k for k in unbalanced if not oracle.repair_candidates(
                k[0], self.facts[k].group_order, list(self.facts[k].printed))}
        self.misprints = unbalanced - self.unrepairable
        self.label_faults = {
            k for k, r in self.rows.items()
            if oracle.label_order(r["label"]) not in (None, self.facts[k].group_order)}
        self.highlight_faults = self.computed_blue ^ self.printed_blue
        # What `verify` must warn about: every deviation the data force.
        self.warnings = ({(g, n, "signature") for g, n in unbalanced}
                         | {(g, n, "label") for g, n in self.label_faults}
                         | {(g, n, "classification") for g, n in self.highlight_faults})

    def keys(self, genus: int | None = None, blue_only: bool = False):
        return [k for k in sorted(self.rows)
                if (genus is None or k[0] == genus)
                and (not blue_only or k in self.printed_blue)]


def check(op: dict, code: int, out: str, err: str, ref: Reference) -> list[str]:
    """Problems with one operation's result; [] when it is right."""
    expected_code = op.get("exit", EXIT_OK)
    if code != expected_code:
        tail = err.strip().splitlines()[-1:] or [""]
        return [f"exit {code}, expected {expected_code}: {tail[0]}"]
    if "Traceback" in err:
        return ["traceback on stderr"]
    kind = op["kind"]
    if kind == "malformed":
        return [] if err.startswith("error:") and not out else [
            "malformed input not reported as an error message"]
    if err:
        return [f"unexpected stderr: {err.strip()[:200]}"]
    if "same_as" in op and out != op["same_as"]:
        return ["output differs from the same call on the embedded dataset"]
    try:
        return CHECKS[kind](op, out, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable {kind} output: {exc!r}"]


# -- list --------------------------------------------------------------------

def _row_problems(key, cells: dict, ref: Reference) -> list[str]:
    """Columns shared by `list`, `row` and CSV output, checked against data."""
    row, facts = ref.rows[key], ref.facts[key]
    problems = []
    reduced = cells["reduced_group"]
    order = int(cells["order"])
    if order != int(cells["level"]) * oracle.reduced_order_of_text(reduced):
        problems.append(f"{key}: order {order} != level x |{reduced}|")
    if order != facts.group_order:
        problems.append(f"{key}: order {order}, the row forces {facts.group_order}")
    for name, value in (("full_group", row["label"]), ("level", row["level"]),
                        ("m", row["m"]), ("signature", row["signature"]),
                        ("dim", row["dim"])):
        blank = value is None and cells[name] in (None, "", "None")
        if not blank and str(cells[name]) != str(value):
            problems.append(f"{key}: {name} {cells[name]!r}, table has {value!r}")
    b = facts.branch_points
    if b is None or (int(cells["level"]) - 1) * (b - 2) != 2 * key[0]:
        problems.append(f"{key}: level {cells['level']} with {b} branch points "
                        f"is not genus {key[0]}")
    return problems


def _verdict_problems(key, cells: dict, ref: Reference) -> list[str]:
    """The verdict of `list --format json` and `row` against the criteria."""
    facts = ref.facts[key]
    eff = oracle.parse_orders(cells.get("effective_signature") or cells["signature"])
    dim = int(cells["dim"])
    problems = []
    if not oracle.balances(key[0], int(cells["order"]), eff):
        problems.append(f"{key}: effective signature {oracle.render_orders(eff)} "
                        f"does not balance Riemann-Hurwitz over a genus-0 quotient")
    if len(eff) - 3 != dim:
        problems.append(f"{key}: {len(eff)} cone points but dimension {dim}")
    if tuple(eff) not in facts.candidates:
        problems.append(f"{key}: effective signature {oracle.render_orders(eff)} "
                        f"is none of the table's forced signatures")
    own = oracle.verdict(oracle.reduced_is_cyclic(cells["reduced_group"]), eff, dim)
    got = (cells["verdict"], None if cells["reason"] in (None, "None") else cells["reason"])
    if got != own or got != facts.verdict:
        problems.append(f"{key}: verdict {got}, the criteria give {facts.verdict}")
    return problems


def _blue_problems(listed_blue: set, keys, ref: Reference) -> list[str]:
    """Highlighted set = printed set, symmetric difference the asserted erratum."""
    wanted = {k for k in keys if k in ref.printed_blue ^ set(oracle.ASSERTED_ERRATA)}
    if listed_blue != wanted:
        return [f"possibly-not-definable rows {sorted(listed_blue ^ wanted)} "
                f"disagree with the printed highlighting and its erratum"]
    return []


def check_list(op: dict, out: str, ref: Reference) -> list[str]:
    keys = ref.keys(op.get("genus"), op.get("blue_only", False))
    if op.get("format") == "json":
        rows = json.loads(out)["rows"]
        got = [(r["genus"], r["nr"]) for r in rows]
        if got != keys:
            return [f"listed rows {len(got)}, expected {len(keys)}"]
        problems = []
        for key, r in zip(keys, rows):
            problems += _row_problems(key, r, ref)
            problems += _verdict_problems(key, r, ref)
            if r["highlighted"] != (key in ref.printed_blue):
                problems.append(f"{key}: highlighted {r['highlighted']} is not as printed")
        blue = {k for k, r in zip(keys, rows) if r["verdict"] == oracle.NOT_DEFINABLE}
        return problems + _blue_problems(blue, keys, ref)
    return _check_list_text(out, keys, ref)


def _check_list_text(out: str, keys, ref: Reference) -> list[str]:
    problems = []
    seen = []
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        head = re.fullmatch(r"genus (\d+) \((\d+) rows; .*\)", lines[i])
        if not head:
            return problems + [f"unexpected line {lines[i]!r}"]
        genus, count = int(head.group(1)), int(head.group(2))
        header = lines[i + 1]
        starts, pos = [], 0
        for name in ("reduced", "full group", "order", "n", "m", "signature",
                     "dim", "equation"):
            pos = header.index(name, pos)
            starts.append(pos)
            pos += len(name)
        body = lines[i + 2:i + 2 + count]
        for line in body:
            bounds = [0, 2] + starts + [None]
            cells = [line[a:b].strip() for a, b in zip(bounds, bounds[1:])]
            nr, mark = int(cells[0]), cells[1]
            key = (genus, nr)
            seen.append(key)
            if key not in ref.rows:
                problems.append(f"{key}: no such row")
                continue
            problems += _row_problems(key, dict(zip(
                ("reduced_group", "full_group", "order", "level", "m",
                 "signature", "dim"), cells[2:9])), ref)
            if (mark == "*") != (key in ref.printed_blue):
                problems.append(f"{key}: highlight mark {mark!r} is not as printed")
            if not cells[9]:
                problems.append(f"{key}: empty equation")
        i += 2 + count
    if seen != keys:
        problems.append(f"listed {len(seen)} rows, expected {len(keys)}")
    return problems


# -- row, classify, levels -------------------------------------------------

def _parse_key_values(out: str) -> dict:
    return dict(line.split(": ", 1) for line in out.splitlines())


def check_row(op: dict, out: str, ref: Reference) -> list[str]:
    key = (op["genus"], op["nr"])
    cells = json.loads(out) if op.get("format") == "json" else _parse_key_values(out)
    row, facts = ref.rows[key], ref.facts[key]
    problems = []
    if (int(cells["genus"]), int(cells["nr"])) != key:
        problems.append(f"asked for {key}, got {cells['genus']}, {cells['nr']}")
    problems += _row_problems(key, cells, ref)
    problems += _verdict_problems(key, cells, ref)
    b = int(cells["branch_points"])
    if b != facts.branch_points or (row["level"] - 1) * (b - 2) != 2 * key[0]:
        problems.append(f"{key}: {b} branch points, 2g = (n-1)(B-2) needs "
                        f"{facts.branch_points}")
    params = {t["c"]["i"] for f in row["equation"]["factors"] for t in f
              if t["c"]["kind"] == "param"}
    if int(cells["parameters"]) != len(params):
        problems.append(f"{key}: {cells['parameters']} parameters, equation has "
                        f"{len(params)}")
    consistent = cells["signature_status"] == "consistent"
    if consistent != facts.printed_balances:
        problems.append(f"{key}: status {cells['signature_status']} but the printed "
                        f"signature {'balances' if facts.printed_balances else 'does not'}")
    if str(cells["highlighted"]) != str(row["highlighted"]):
        problems.append(f"{key}: highlighted {cells['highlighted']} is not as printed")
    return problems


def check_classify(op: dict, out: str, ref: Reference) -> list[str]:
    key = (op["genus"], op["nr"])
    want, reason = ref.facts[key].verdict
    if op.get("format") == "json":
        got = json.loads(out)
        if (got["verdict"], got["reason"], got["theorem"]) != (want, reason, THEOREM_TEXT[reason]):
            return [f"{key}: {got}, the criteria give {want} ({reason})"]
        return []
    text = (f"definable ({THEOREM_TEXT[reason]})" if want == oracle.DEFINABLE
            else f"possibly not definable: {THEOREM_TEXT[None]}")
    return [] if out == text + "\n" else [f"{key}: {out.strip()!r}, expected {text!r}"]


def check_levels(op: dict, out: str, ref: Reference) -> list[str]:
    want = oracle.levels(op["genus"])
    if op.get("format") == "json":
        payload = json.loads(out)
        got = [(r["level"], r["branch_points"], r["normal_form"]) for r in payload["levels"]]
        if payload["genus"] != op["genus"]:
            return [f"genus {payload['genus']}, asked for {op['genus']}"]
    else:
        got = []
        for line in out.splitlines():
            m = re.fullmatch(r"level (\d+): (\d+) branch points(  \(no normal form\))?", line)
            if not m:
                return [f"unexpected line {line!r}"]
            got.append((int(m.group(1)), int(m.group(2)), m.group(3) is None))
    return [] if got == want else [f"genus {op['genus']}: levels {got}, expected {want}"]


# -- export --------------------------------------------------------------------

def check_csv(op: dict, out: str, ref: Reference) -> list[str]:
    keys = ref.keys(op["genus"])
    table = list(csv.reader(io.StringIO(out, newline="")))
    if table[0] != CSV_COLUMNS:
        return [f"CSV header {table[0]}"]
    if [(op["genus"], int(r[0])) for r in table[1:]] != keys:
        return [f"CSV rows {len(table) - 1}, expected {len(keys)}"]
    problems = []
    for key, r in zip(keys, table[1:]):
        cells = dict(zip(("nr", "reduced_group", "full_group", "order", "level",
                          "m", "signature", "dim"), r))
        problems += _row_problems(key, cells, ref)
        if r[8] != ("yes" if key in ref.printed_blue else "no"):
            problems.append(f"{key}: blue {r[8]!r} is not as printed")
        if not r[9]:
            problems.append(f"{key}: empty equation")
    if not out.endswith("\r\n"):
        problems.append("CSV rows do not end in CRLF")
    return problems


def check_blue(op: dict, out: str, ref: Reference) -> list[str]:
    got = {(int(g), n) for g, numbers in json.loads(out).items() for n in numbers}
    problems = []
    if got != ref.printed_blue:
        problems.append(f"blue rows {sorted(got ^ ref.printed_blue)} are not as printed")
    return problems + _blue_problems(ref.computed_blue, ref.keys(), ref)


def check_errata(op: dict, out: str, ref: Reference) -> list[str]:
    e = json.loads(out)
    problems = []

    def keys_of(entries):
        return {(x["genus"], x["nr"]) for x in entries}

    registries = {
        "signature_misprints": ({tuple(k) for k in e["signature_misprints"]},
                                ref.misprints),
        "manual_signature_corrections": (keys_of(e["manual_signature_corrections"]),
                                         ref.unrepairable),
        "label_discrepancies": (keys_of(e["label_discrepancies"]), ref.label_faults),
        "classification_discrepancies": (keys_of(e["classification_discrepancies"]),
                                         ref.highlight_faults),
    }
    for name, (got, derived) in registries.items():
        if got != derived:
            problems.append(f"{name} {sorted(got)}, the data force {sorted(derived)}")
    for entry in e["manual_signature_corrections"]:
        key = (entry["genus"], entry["nr"])
        if entry["corrected"] != oracle.ASSERTED_ERRATA.get(key):
            problems.append(f"{key}: manual correction {entry['corrected']}")
    missing = keys_of(e["equation_corrections"]) - set(ref.rows)
    if missing:
        problems.append(f"equation corrections for missing rows {sorted(missing)}")
    return problems


def check_dataset(op: dict, out: str, ref: Reference) -> list[str]:
    with open(op["out"], encoding="utf-8", newline="") as fh:
        written = fh.read()
    if out:
        return ["export --out wrote to stdout"]
    if written != ref.dataset_text:
        return [f"{op['out']} differs from the dataset it was exported from"]
    return []


# -- verify ------------------------------------------------------------------------

def check_verify(op: dict, out: str, ref: Reference) -> list[str]:
    genus = op.get("genus")
    keys = ref.keys(genus)
    warnings = {w for w in ref.warnings if genus is None or w[0] == genus}
    broken = op.get("inseparable")
    failures = set()
    if broken is not None:
        key, equation = tuple(broken["key"]), broken["equation"]
        if oracle.order_at_zero(equation) >= 2:
            failures.add((*key, "separability"))
    problems = [f"{k}: not certified separable at the probe point"
                for k in keys if not ref.facts[k].separable
                and (broken is None or k != tuple(broken["key"]))]
    if op.get("format") == "json":
        payload = json.loads(out)
        got_fail = {(f["genus"], f["number"], f["code"]) for f in payload["failures"]}
        got_warn = {(f["genus"], f["number"], f["code"]) for f in payload["warnings"]}
        if payload["rows_checked"] != len(keys):
            problems.append(f"rows_checked {payload['rows_checked']}, file has {len(keys)}")
        if payload["ok"] != (not failures):
            problems.append(f"ok is {payload['ok']}")
        if got_warn != warnings:
            problems.append(f"warnings differ from the documented deviations: "
                            f"{sorted(got_warn ^ warnings)}")
    else:
        lines = out.splitlines()
        got_fail = set()
        for line in lines:
            m = re.match(r"\[failure\] genus (\d+) nr (\d+) \((\w+)\)", line)
            if m:
                got_fail.add((int(m.group(1)), int(m.group(2)), m.group(3)))
        want_lines = []
        for g in sorted({k[0] for k in keys}):
            nrows = sum(1 for k in keys if k[0] == g)
            nfail = sum(1 for f in failures if f[0] == g)
            nwarn = sum(1 for w in warnings if w[0] == g)
            want_lines.append(f"genus {g}: {nrows} rows checked, {nfail} "
                              f"failure(s), {nwarn} warning(s)")
        want_lines.append(f"total: {len(keys)} rows, {len(failures)} failure(s), "
                          f"{len(warnings)} warning(s)")
        if lines[-len(want_lines):] != want_lines:
            problems.append(f"summary {lines[-len(want_lines):]}, expected {want_lines}")
    if got_fail != failures:
        problems.append(f"failures {sorted(got_fail)}, expected {sorted(failures)}")
    return problems


CHECKS = {
    "list": check_list,
    "row": check_row,
    "classify": check_classify,
    "levels": check_levels,
    "csv": check_csv,
    "blue": check_blue,
    "errata": check_errata,
    "dataset": check_dataset,
    "verify": check_verify,
}

"""Typed access to the embedded classification table.

Wraps the raw tuples in :mod:`superelliptic.tables` as frozen records, layers
the signature-repair oracle (plus the one documented manual correction) on
top of the printed signatures, classifies rows, and serializes the whole
dataset losslessly to JSON and per-genus CSV.

This module alone knows the JSON form, down to each equation term.  The
dataset document has its own fixed-depth writer, :func:`to_json`; every other
JSON document the package writes goes through :func:`dump_json`.  Both give
the bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline,
``dump_json`` at about twice its speed.  Reading checks each field and
container where it reads it, in document order.  A document's terms, factors
and signatures repeat (the export holds 1,340 terms, 92 of them distinct, and
454 factors, 94 distinct), so :func:`from_json` checks and builds each
distinct one once and shares the object.  The term memo is keyed on a term's
raw fields together with their exact types (``true`` and ``1.0`` equal ``1``,
yet neither is a valid integer), and holds only terms that passed every check.
"""

from __future__ import annotations

import io
from collections import namedtuple
from functools import cache

from . import tables
from ._quote import quote
from .arith import QuadNum, Rational
from .classify import Classification, classify
from .family import EquationTemplate, ParamCoeff, Term
from .groups import ReducedGroup, ReducedKind
from .signature import Signature, SignatureRepair, complete_signature

DATASET_VERSION = "v1"

# A JSON equation's largest degree: the exact separability path expands f densely.
MAX_DEGREE = 1000

CSV_COLUMNS = ("Nr", "reduced_group", "full_group", "order", "n", "m",
               "signature", "delta", "blue", "equation")


class FamilyRecord(namedtuple("FamilyRecord", "genus number block label_text level m "
                                               "signature delta equation highlighted")):
    """One row of a genus table, fields as printed (equation possibly corrected)."""

    __slots__ = ()

    @property
    def key(self) -> tuple[int, int]:
        return (self.genus, self.number)

    def reduced_group(self) -> ReducedGroup:
        return ReducedGroup(self.block, self.m)

    def group_order(self) -> int:
        return self.level * self.reduced_group().order

    def prints(self, entry: tables.Erratum) -> bool:
        """False when ``entry`` documents a signature or label this row does not print."""
        if entry.code == "signature":   # parsed: (5, 5) stores 2,22,22 for 2,22^2
            return Signature.parse(entry.printed) == self.signature
        return entry.code != "label" or entry.printed == self.label_text

    def cells(self) -> list[str]:
        """The printed columns shared by ``list`` and the CSV export."""
        reduced = self.reduced_group()
        return [str(self.number), reduced.describe(), self.label_text,
                str(self.level * reduced.order), str(self.level),
                "" if self.m is None else str(self.m), self.signature.render(),
                str(self.delta), self.equation.render()]


class NamedCurve(namedtuple("NamedCurve", "genus level label_text equation note")):
    """A single curve called out next to a table rather than inside it."""

    __slots__ = ()


def repair_signature(record: FamilyRecord, order: int | None = None) -> SignatureRepair:
    """Resolve a row's printed signature to the one its own data forces.

    This is :func:`complete_signature`'s repair, except that an unrepairable
    row printing the signature its manual correction documents comes back
    ``manually_corrected`` when the correction balances.  ``order``, when
    given, is the row's group order.
    """
    order = record.group_order() if order is None else order
    try:
        repair = complete_signature(record.genus, order, record.signature)
    except ValueError as exc:  # a genus below 2: no signature can balance
        raise ValueError(f"genus {record.genus} nr {record.number}: {exc}") from exc
    manual = tables.ERRATA_BY_ROW.get(record.key, {}).get("signature")
    if (repair.status == "unrepairable" and manual is not None and manual.why
            and record.prints(manual)):
        corrected = Signature.parse(manual.derived)
        if complete_signature(record.genus, order, corrected).status == "consistent":
            return SignatureRepair("manually_corrected", corrected, edit=manual.why)
    return repair


def classify_record(record: FamilyRecord) -> Classification:
    reduced = record.reduced_group()
    repair = repair_signature(record, record.level * reduced.order)
    return classify(reduced, repair.effective)


class Dataset:
    """All rows plus the named curves, with lookup and serialization."""

    def __init__(self, records, named_curves=()):
        self.records: tuple[FamilyRecord, ...] = tuple(
            sorted(records, key=lambda r: r.key))
        self.named_curves: tuple[NamedCurve, ...] = tuple(named_curves)
        self._by_key: dict[tuple[int, int], FamilyRecord] = {}
        for r in self.records:
            if r.key in self._by_key:
                raise ValueError(f"duplicate row genus {r.genus} nr {r.number}")
            self._by_key[r.key] = r

    @property
    def genera(self) -> tuple[int, ...]:
        return tuple(sorted({r.genus for r in self.records}))

    def genus_rows(self, genus: int) -> tuple[FamilyRecord, ...]:
        rows = tuple(r for r in self.records if r.genus == genus)
        if not rows:
            raise KeyError(f"no rows for genus {genus}")
        return rows

    def get(self, genus: int, number: int) -> FamilyRecord:
        try:
            return self._by_key[(genus, number)]
        except KeyError:
            raise KeyError(f"no row {number} in the genus-{genus} table") from None

    def highlighted_numbers(self, genus: int) -> tuple[int, ...]:
        return tuple(r.number for r in self.genus_rows(genus) if r.highlighted)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _record_from_json(obj: dict, memo: _Memo) -> FamilyRecord:
    # Each field is read, then checked, in the record's field order; _checked
    # runs only on a failed check, to raise its message.
    genus, number = obj["genus"], obj["nr"]
    if type(number) is not int:
        _checked(number, "nr", "an integer", int)
    block = _block_from_json(obj["block"])
    label = obj["label"]
    if type(label) is not str:
        _checked(label, "label", "a string", str)
    level = obj["level"]
    if type(level) is not int:
        _checked(level, "level", "an integer", int)
    m = obj["m"]
    if m is not None and type(m) is not int:
        _checked(m, "m", "an integer or null", int, type(None))
    text = obj["signature"]
    if type(text) is not str:
        _checked(text, "signature", "a string", str)
    signature = memo.signatures.get(text)
    if signature is None:
        signature = memo.signatures[text] = Signature.parse(text)
    delta = obj["dim"]
    if type(delta) is not int:
        _checked(delta, "dim", "an integer", int)
    equation = _equation_from_json(obj["equation"], memo)
    highlighted = obj["highlighted"]
    if type(highlighted) is not bool:
        _checked(highlighted, "highlighted", "true or false", bool)
    if level < 1:
        raise ValueError(f"field 'level' must be at least 1, got {level}")
    record = FamilyRecord(genus, number, block, label, level, m, signature, delta, equation,
                          highlighted)
    record.reduced_group()  # a bad block/m pair fails here, not at first use
    return record


_BLOCKS = {k.value: k for k in ReducedKind}


def _block_from_json(value) -> ReducedKind:
    kind = _BLOCKS.get(value) if type(value) is str else None
    if kind is None:
        raise ValueError(f"field 'block' must be one of {', '.join(_BLOCKS)}, "
                         f"got {quote(value)}")
    return kind


def _named_from_json(obj: dict, memo: _Memo) -> NamedCurve:
    curve = NamedCurve(
        genus=_checked(obj["genus"], "genus", "an integer", int),
        level=_checked(obj["level"], "level", "an integer", int),
        label_text=_checked(obj["label"], "label", "a string", str),
        equation=_equation_from_json(obj["equation"], memo),
        note=_checked(obj["note"], "note", "a string", str),
    )
    for key in ("genus", "level"):
        if obj[key] < 2:
            raise ValueError(f"field {key!r} must be at least 2, got {obj[key]}")
    return curve


def to_json(dataset: Dataset) -> str:
    """The dataset document: the bytes :func:`dump_json` gives for its payload.

    The document has one fixed shape, so this writer spells it out instead of
    walking a payload: each row writes its keys in sorted order, at a fixed
    depth.  An equation term sits at the same depth wherever it occurs
    (``families[i].equation.factors[j][k]``, and the same under
    ``named_curves``), so its text is written once per distinct term.  A
    row's ``genus``, which :func:`from_json` does not type-check, is written
    by :func:`dump_json`'s walk unless it is an integer.
    """
    escape = _escaper()
    # id(term) -> its text, and whether its coefficient needs the radicand.
    # Keyed on the object, not the Term: the embedded table holds one object
    # per distinct term and from_json one per distinct JSON term, and a Term's
    # hash runs Rational's, in Python.  The dataset keeps each key's object
    # alive until the return.
    terms: dict[int, tuple[str, bool]] = {}

    def equation(template: EquationTemplate) -> str:
        factors = []
        irrational = False
        for factor in template.factors:
            texts = []
            for term in factor:
                known = terms.get(id(term))
                if known is None:
                    obj = _term_to_json(term)
                    out: list[str] = []
                    _write_json(obj, "\n" + " " * 12, out, escape)
                    known = terms[id(term)] = ("".join(out), "d" in obj["c"])
                texts.append(known[0])
                irrational = irrational or known[1]
            factors.append("[\n            " + ",\n            ".join(texts) + "\n          ]")
        return ('{\n        "factors": [\n          ' + ",\n          ".join(factors)
                + '\n        ],\n        "radicand": ' + ("-3" if irrational else "1")
                + "\n      }")

    def genus(value) -> str:
        if type(value) is int:
            return str(value)
        out: list[str] = []
        _write_json(value, "\n      ", out, escape)
        return "".join(out)

    families = [
        '{\n      "block": ' + escape(r.block.value)
        + ',\n      "dim": ' + str(r.delta)
        + ',\n      "equation": ' + equation(r.equation)
        + ',\n      "genus": ' + genus(r.genus)
        + ',\n      "highlighted": ' + ("true" if r.highlighted else "false")
        + ',\n      "label": ' + escape(r.label_text)
        + ',\n      "level": ' + str(r.level)
        + ',\n      "m": ' + ("null" if r.m is None else str(r.m))
        + ',\n      "nr": ' + str(r.number)
        + ',\n      "signature": ' + escape(r.signature.render())
        + "\n    }"
        for r in dataset.records]
    named = [
        '{\n      "equation": ' + equation(c.equation)
        + ',\n      "genus": ' + str(c.genus)
        + ',\n      "label": ' + escape(c.label_text)
        + ',\n      "level": ' + str(c.level)
        + ',\n      "note": ' + escape(c.note)
        + "\n    }"
        for c in dataset.named_curves]
    return ('{\n  "families": ' + _rows_text(families)
            + ',\n  "named_curves": ' + _rows_text(named)
            + ',\n  "version": ' + escape(DATASET_VERSION) + "\n}\n")


def _rows_text(rows: list[str]) -> str:
    """A list of row texts at the document's second level, as :func:`dump_json` writes it."""
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, the same bytes, faster.

    With ``indent`` set, :mod:`json` always takes its pure-Python encoder.
    This writer walks dicts with string keys, lists, strings, integers,
    booleans and ``None`` itself and escapes strings with the C escaper
    ``json.dumps`` uses.  Any other value (a float, say), and a dict whose
    keys are not strings, goes to ``json.dumps``; a dict mixing string and
    other keys raises TypeError, as it does there.
    """
    out: list[str] = []
    _write_json(obj, "\n", out, _escaper())
    out.append("\n")
    return "".join(out)


def _escaper():
    """The C string escaper ``json.dumps`` uses, imported on use: text calls write no JSON.

    It is taken from json's C module, as importing :mod:`json` also imports
    its decoder, which compiles regular expressions: about 3 ms of a call that
    writes JSON and reads none.
    """
    try:
        from _json import encode_basestring_ascii
    except ImportError:     # an interpreter without json's C module
        from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


def _write_json(obj, newline: str, out: list[str], escape) -> None:
    kind = type(obj)
    if kind is dict and obj:
        keys = sorted(obj)
        if type(keys[0]) is str:  # keys that sort along with a string are strings
            inner = newline + "  "
            sep = "{" + inner
            for key in keys:
                value = obj[key]
                if type(value) is str:  # the commonest value, written in place
                    out.append(sep + escape(key) + ": " + escape(value))
                else:
                    out.append(sep + escape(key) + ": ")
                    _write_json(value, inner, out, escape)
                sep = "," + inner
            out.append(newline + "}")
            return
    elif kind is list and obj:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out, escape)
            sep = "," + inner
        out.append(newline + "]")
        return
    elif kind is dict or kind is list:   # empty
        out.append("{}" if kind is dict else "[]")
        return
    elif kind is str:
        out.append(escape(obj))
        return
    elif kind is int:
        out.append(repr(obj))
        return
    elif kind is bool:
        out.append("true" if obj else "false")
        return
    elif obj is None:
        out.append("null")
        return
    import json  # json.dumps's newlines carry no indent; its strings hold no newline
    out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


def from_json(text: str) -> Dataset:
    import json  # imported on use: most calls read no JSON
    try:
        payload = json.loads(text)
    except RecursionError:      # arrays or objects nested past the interpreter's limit
        raise ValueError("JSON nested too deeply to read") from None
    version = payload.get("version")
    if version != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {quote(version)}")
    memo = _Memo()
    records = _rows_from_json("families", payload["families"], _record_from_json, memo)
    named = _rows_from_json("named_curves", payload.get("named_curves", []), _named_from_json,
                            memo)
    return Dataset(records, named)


class _Memo:
    """One document's objects, each built once per distinct JSON term, factor or signature.

    ``terms`` is keyed on a term's raw ``e``, then the keys, the values and
    the values' exact types of its ``c`` (``1``, ``true`` and ``1.0`` hash
    and compare alike, so ``e``'s type is in the key too), and holds only
    terms that passed every check.  ``factors`` is keyed on the ids of a
    factor's terms, which the entries keep alive, and holds the factor's
    tuple, its top exponent and whether a coefficient has a nonzero sqrt(-3)
    part.
    """

    __slots__ = ("terms", "factors", "signatures")

    def __init__(self):
        self.terms: dict[tuple, Term] = {}
        self.factors: dict[tuple[int, ...], tuple[tuple[Term, ...], int, bool]] = {}
        self.signatures: dict[str, Signature] = {}


def _rows_from_json(name: str, objs, parse, memo: _Memo) -> list:
    """Parse each row; a malformed one is a ValueError naming its place and field."""
    out = []
    for i, obj in enumerate(_checked(objs, name, "a list", list)):
        try:
            if type(obj) is not dict:
                _checked(obj, None, "an object", dict)
            out.append(parse(obj, memo))
        except KeyError as exc:
            raise ValueError(f"{name}[{i}]: missing key {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ValueError(f"{name}[{i}]: {exc}") from None
    return out


def _checked(value, name: str | None, expected: str, *types: type):
    """``value``, whose type must be one of ``types`` exactly; ``name`` None is the row."""
    if type(value) not in types:
        where = "" if name is None else f"field {name!r} "
        raise ValueError(f"{where}must be {expected}, got {quote(value)}")
    return value


def _term_to_json(t: Term) -> dict:
    v = t.coeff
    if isinstance(v, QuadNum):
        c = {"kind": "fixed", "a": str(v.a), "b": str(v.b)}
        if v.b:
            c["d"] = -3
    else:
        c = {"kind": "param", "i": v.index, "scale": str(v.scale)}
    return {"e": t.exponent, "c": c}


def _equation_from_json(data, memo: _Memo) -> EquationTemplate:
    known_terms, known_factors = memo.terms, memo.factors
    if type(data) is not dict:
        _checked(data, "equation", "an object", dict)
    factors = data["factors"]
    if type(factors) is not list:
        _checked(factors, "equation.factors", "a list", list)
    shared: list[tuple[Term, ...]] = []
    degree, irrational = 0, False
    for i, factor in enumerate(factors):
        # Once per term: a container's path is built only when it is misshapen.
        if type(factor) is not list:
            _checked(factor, f"equation.factors[{i}]", "a list", list)
        terms: list[Term] = []
        for j, term in enumerate(factor):
            if type(term) is not dict:
                _checked(term, f"equation.factors[{i}][{j}]", "an object", dict)
            c, e = term["c"], term["e"]
            key = None
            if type(c) is dict:
                try:
                    key = (e, type(e), *c, *c.values(), *map(type, c.values()))
                    terms.append(known_terms[key])
                    continue
                except KeyError:
                    pass
                except TypeError:   # an unhashable field: the checks below report it
                    key = None
            made = _term_from_json(
                _checked(e, "e", "an integer", int),
                c if type(c) is dict else _checked(c, f"equation.factors[{i}][{j}].c",
                                                   "an object", dict))
            if key is not None:
                known_terms[key] = made
            terms.append(made)
        ids = tuple(map(id, terms))
        entry = known_factors.get(ids)
        if entry is None:   # an empty factor's top exponent is 0; EquationTemplate rejects it
            entry = known_factors[ids] = (
                tuple(terms), max((t.exponent for t in terms), default=0),
                any(isinstance(t.coeff, QuadNum) and t.coeff.b for t in terms))
        shared.append(entry[0])
        degree += entry[1]
        irrational = irrational or entry[2]
    template = EquationTemplate(tuple(shared))
    if degree > MAX_DEGREE:
        raise ValueError(f"equation degree must be at most {MAX_DEGREE}, got {degree}")
    derived = -3 if irrational else 1
    radicand = data.get("radicand", derived)
    if type(radicand) is not int:
        _checked(radicand, "radicand", "an integer", int)
    if radicand != derived:
        raise ValueError(f"field 'radicand' is {quote(radicand)}, but the coefficients "
                         f"give {derived}")
    return template


def _term_from_json(e: int, c: dict) -> Term:
    if c["kind"] == "fixed":
        a, b = _rational_field("a", c["a"]), _rational_field("b", c.get("b", "0"))
        if "d" in c or b:   # the radicand: type-checked when present, -3 when b != 0
            d = _checked(c["d"], "d", "an integer", int)
            if b and d != -3:
                raise ValueError(f"field 'd' must be -3 when 'b' is nonzero, got {d}")
        return Term(e, QuadNum(a, b))
    if c["kind"] == "param":
        return Term(e, ParamCoeff(_checked(c["i"], "i", "an integer", int),
                                  _rational_field("scale", c.get("scale", "1"))))
    raise ValueError(f"field 'kind' must be 'fixed' or 'param', got {quote(c['kind'])}")


def _rational_field(key: str, value) -> Rational:
    """The exact rational ``value`` spells, as a string or an integer."""
    if type(value) not in (str, int):  # a float is inexact, and true is no number
        raise ValueError(f"coefficient field {key!r} must be a string or an integer, "
                         f"got {quote(value)}")
    number = _rational(value)
    if number is None:
        raise ValueError(f"coefficient field {key!r} is not a rational number: "
                         f"{quote(value)}")
    return number


@cache
def _rational(text: str | int) -> Rational | None:
    if type(text) is str and ("e" in text or "E" in text):
        return None   # no exponent notation: Rational("1e10000000") builds 10^10000000
    try:
        return Rational(text)
    except (ValueError, ZeroDivisionError):
        return None


def export_csv(dataset: Dataset, genus: int) -> str:
    """One genus table as CSV (CRLF rows, signatures quoted as needed)."""
    import csv  # imported on use: most calls write no CSV

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(CSV_COLUMNS)
    for r in dataset.genus_rows(genus):
        cells = r.cells()
        cells.insert(8, "yes" if r.highlighted else "no")
        writer.writerow(cells)
    return buf.getvalue()


def _build_records(genera) -> tuple[FamilyRecord, ...]:
    # A table row holds a record's fields after the genus, the signature as text.
    return tuple(FamilyRecord(genus, nr, block, label, level, m, Signature.parse(sig), *rest)
                 for genus in genera
                 for nr, block, label, level, m, sig, *rest in tables.genus_table(genus))


def _build_named(genera) -> tuple[NamedCurve, ...]:
    return tuple(NamedCurve(genus=g, level=n, label_text=label, equation=eq, note=note)
                 for g, n, label, eq, note in tables.named_curves() if g in genera)


@cache
def load_embedded(genus: int | None = None) -> Dataset:
    """The embedded tables; with ``genus``, only that genus's rows and named curves.

    A genus without a table gives an empty dataset, whose lookups raise the
    usual KeyError.  Only the genus tables read are built.
    """
    genera = tables.GENERA if genus is None else (genus,) if genus in tables.GENERA else ()
    return Dataset(_build_records(genera), _build_named(genera))

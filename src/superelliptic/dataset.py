"""Typed access to the embedded classification table.

Wraps the raw tuples in :mod:`superelliptic.tables` as frozen records, layers
the signature-repair oracle (plus the one documented manual correction) on
top of the printed signatures, classifies rows, and serializes the whole
dataset losslessly to JSON and per-genus CSV.

This module alone knows the JSON form, down to each equation term.  Every
JSON document the package writes goes through :func:`dump_json`, which gives
the bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline at
about twice its speed.  Reading checks each field and container where it
reads it, in document order; a term's fields are checked exactly (``true`` is
no integer, ``1.0`` no exact rational) before a memo keyed on them builds one
``Term`` per distinct JSON term.
"""

from __future__ import annotations

import io
from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache

from . import tables
from ._quote import quote
from .arith import QuadNum
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


def _record_to_json(record: FamilyRecord) -> dict:
    return {
        "genus": record.genus,
        "nr": record.number,
        "block": record.block.value,
        "label": record.label_text,
        "level": record.level,
        "m": record.m,
        "signature": record.signature.render(),
        "dim": record.delta,
        "equation": _equation_to_json(record.equation),
        "highlighted": record.highlighted,
    }


def _record_from_json(obj: dict) -> FamilyRecord:
    record = FamilyRecord(
        genus=obj["genus"],
        number=_checked(obj["nr"], "nr", "an integer", int),
        block=_block_from_json(obj["block"]),
        label_text=_checked(obj["label"], "label", "a string", str),
        level=_checked(obj["level"], "level", "an integer", int),
        m=_checked(obj["m"], "m", "an integer or null", int, type(None)),
        signature=Signature.parse(_checked(obj["signature"], "signature", "a string", str)),
        delta=_checked(obj["dim"], "dim", "an integer", int),
        equation=_equation_from_json(obj["equation"]),
        highlighted=_checked(obj["highlighted"], "highlighted", "true or false", bool),
    )
    if record.level < 1:
        raise ValueError(f"field 'level' must be at least 1, got {record.level}")
    record.reduced_group()  # a bad block/m pair fails here, not at first use
    return record


_BLOCK_NAMES = tuple(k.value for k in ReducedKind)


def _block_from_json(value) -> ReducedKind:
    if value not in _BLOCK_NAMES:
        raise ValueError(f"field 'block' must be one of {', '.join(_BLOCK_NAMES)}, "
                         f"got {quote(value)}")
    return ReducedKind(value)


def _named_to_json(curve: NamedCurve) -> dict:
    return {
        "genus": curve.genus,
        "level": curve.level,
        "label": curve.label_text,
        "equation": _equation_to_json(curve.equation),
        "note": curve.note,
    }


def _named_from_json(obj: dict) -> NamedCurve:
    curve = NamedCurve(
        genus=_checked(obj["genus"], "genus", "an integer", int),
        level=_checked(obj["level"], "level", "an integer", int),
        label_text=_checked(obj["label"], "label", "a string", str),
        equation=_equation_from_json(obj["equation"]),
        note=_checked(obj["note"], "note", "a string", str),
    )
    for key in ("genus", "level"):
        if obj[key] < 2:
            raise ValueError(f"field {key!r} must be at least 2, got {obj[key]}")
    return curve


def to_json(dataset: Dataset) -> str:
    payload = {
        "version": DATASET_VERSION,
        "families": [_record_to_json(r) for r in dataset.records],
        "named_curves": [_named_to_json(c) for c in dataset.named_curves],
    }
    return dump_json(payload)


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, the same bytes, faster.

    With ``indent`` set, :mod:`json` always takes its pure-Python encoder.
    This writer walks dicts with string keys, lists, strings, integers,
    booleans and ``None`` itself and escapes strings with the C escaper
    ``json.dumps`` uses.  Any other value (a float, say), and a dict whose
    keys are not strings, goes to ``json.dumps``; a dict mixing string and
    other keys raises TypeError, as it does there.
    """
    from json.encoder import encode_basestring_ascii  # imported on use: text calls write no JSON
    out: list[str] = []
    _write_json(obj, "\n", out, encode_basestring_ascii)
    out.append("\n")
    return "".join(out)


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
    records = _rows_from_json("families", payload["families"], _record_from_json)
    named = _rows_from_json("named_curves", payload.get("named_curves", []), _named_from_json)
    return Dataset(records, named)


def _rows_from_json(name: str, objs, parse) -> list:
    """Parse each row; a malformed one is a ValueError naming its place and field."""
    out = []
    for i, obj in enumerate(_checked(objs, name, "a list", list)):
        try:
            out.append(parse(_checked(obj, None, "an object", dict)))
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


def _radicand(template: EquationTemplate) -> int:
    """-3 when a constant coefficient is irrational, else 1."""
    return -3 if any(isinstance(t.coeff, QuadNum) and t.coeff.b
                     for factor in template.factors for t in factor) else 1


def _equation_to_json(template: EquationTemplate) -> dict:
    return {
        "factors": [[_term_to_json(t) for t in factor] for factor in template.factors],
        "radicand": _radicand(template),
    }


def _term_to_json(t: Term) -> dict:
    v = t.coeff
    if isinstance(v, QuadNum):
        c = {"kind": "fixed", "a": str(v.a), "b": str(v.b)}
        if v.b:
            c["d"] = -3
    else:
        c = {"kind": "param", "i": v.index, "scale": str(v.scale)}
    return {"e": t.exponent, "c": c}


def _equation_from_json(data) -> EquationTemplate:
    factors = _checked(_checked(data, "equation", "an object", dict)["factors"],
                       "equation.factors", "a list", list)
    terms: list[list[Term]] = []
    for i, factor in enumerate(factors):
        # Once per term: a container's path is built only when it is misshapen.
        if type(factor) is not list:
            _checked(factor, f"equation.factors[{i}]", "a list", list)
        terms.append([])
        for j, term in enumerate(factor):
            if type(term) is not dict:
                _checked(term, f"equation.factors[{i}][{j}]", "an object", dict)
            c, e = term["c"], _checked(term["e"], "e", "an integer", int)
            if type(c) is not dict:
                _checked(c, f"equation.factors[{i}][{j}].c", "an object", dict)
            terms[-1].append(_term_from_json(e, c))
    template = EquationTemplate(tuple(map(tuple, terms)))
    if template.degree > MAX_DEGREE:
        raise ValueError(f"equation degree must be at most {MAX_DEGREE}, got {template.degree}")
    derived = _radicand(template)
    if "radicand" in data and _checked(data["radicand"], "radicand", "an integer", int) != derived:
        raise ValueError(f"field 'radicand' is {quote(data['radicand'])}, but the coefficients "
                         f"give {derived}")
    return template


def _term_from_json(e: int, c: dict) -> Term:
    # Each field is checked, in order, before the memo sees it: true == 1 and
    # 1.0 == 1 hash alike, so an unchecked key could hit a valid term's entry.
    if c["kind"] == "fixed":
        a, b = _rational_text("a", c["a"]), _rational_text("b", c.get("b", "0"))
        irrational = _rational(b) != 0
        if "d" in c or irrational:   # the radicand: type-checked when present, -3 when b != 0
            d = _checked(c["d"], "d", "an integer", int)
            if irrational and d != -3:
                raise ValueError(f"field 'd' must be -3 when 'b' is nonzero, got {d}")
        return _fixed_term(e, a, b)
    if c["kind"] == "param":
        return _param_term(e, _checked(c["i"], "i", "an integer", int),
                           _rational_text("scale", c.get("scale", "1")))
    raise ValueError(f"field 'kind' must be 'fixed' or 'param', got {quote(c['kind'])}")


@cache
def _fixed_term(e: int, a: str | int, b: str | int) -> Term:
    return Term(e, QuadNum(_rational(a), _rational(b)))


@cache
def _param_term(e: int, i: int, scale: str | int) -> Term:
    return Term(e, ParamCoeff(i, _rational(scale)))


def _rational_text(key: str, text) -> str | int:
    """``text`` itself, once it is known to spell an exact rational."""
    if type(text) not in (str, int):  # a float is inexact, and true is no number
        raise ValueError(f"coefficient field {key!r} must be a string or an integer, "
                         f"got {quote(text)}")
    if _rational(text) is None:
        raise ValueError(f"coefficient field {key!r} is not a rational number: "
                         f"{quote(text)}")
    return text


@cache
def _rational(text: str | int) -> Fraction | None:
    if type(text) is str and ("e" in text or "E" in text):
        return None   # no exponent notation: Fraction("1e10000000") builds 10^10000000
    try:
        return Fraction(text)
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


def _build_records() -> tuple[FamilyRecord, ...]:
    # A table row holds a record's fields after the genus, the signature as text.
    return tuple(FamilyRecord(genus, nr, block, label, level, m, Signature.parse(sig), *rest)
                 for genus, rows in tables.ALL_TABLES.items()
                 for nr, block, label, level, m, sig, *rest in rows)


def _build_named() -> tuple[NamedCurve, ...]:
    return tuple(NamedCurve(genus=g, level=n, label_text=label, equation=eq, note=note)
                 for g, n, label, eq, note in tables.NAMED_CURVES)


@lru_cache(maxsize=1)
def load_embedded() -> Dataset:
    return Dataset(_build_records(), _build_named())

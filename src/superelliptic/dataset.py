"""Typed access to the embedded classification table.

Wraps the raw tuples in :mod:`superelliptic.tables` as frozen records, layers
the signature-repair oracle (plus the one documented manual correction) on
top of the printed signatures, classifies rows, and serializes the whole
dataset losslessly to JSON and per-genus CSV.

Every JSON document the package writes goes through :func:`dump_json`, which
gives the bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` and a
newline at about twice its speed.  Reading checks each field of a row in a
fixed order, so a malformed row reports the same first error however the
reading is sped up; equation terms are built once per distinct JSON term
(see :meth:`EquationTemplate.from_json_dict`).
"""

from __future__ import annotations

import io
from collections import namedtuple
from functools import lru_cache

from . import tables
from .classify import Classification, classify
from .family import EquationTemplate, _field
from .groups import ReducedGroup, ReducedKind
from .signature import Signature, SignatureRepair, complete_signature

DATASET_VERSION = "v1"

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
    row whose documented manual correction balances comes back
    ``manually_corrected``.  ``order``, when given, is the row's group order.
    """
    order = record.group_order() if order is None else order
    try:
        repair = complete_signature(record.genus, order, record.signature)
    except ValueError as exc:  # a genus below 2: no signature can balance
        raise ValueError(f"genus {record.genus} nr {record.number}: {exc}") from exc
    manual = tables.ERRATA_BY_ROW.get(record.key, {}).get("signature")
    if repair.status == "unrepairable" and manual is not None and manual.why:
        corrected = Signature.parse(manual.derived)
        if complete_signature(record.genus, order, corrected).status == "consistent":
            return SignatureRepair("manually_corrected", corrected, edit=manual.why)
    return repair


def classify_record(record: FamilyRecord) -> Classification:
    reduced = record.reduced_group()
    repair = repair_signature(record, record.level * reduced.order)
    return classify(reduced, repair.effective, record.delta)


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
        "equation": record.equation.to_json_dict(),
        "highlighted": record.highlighted,
    }


def _record_from_json(obj: dict) -> FamilyRecord:
    record = FamilyRecord(
        genus=obj["genus"],
        number=_field(obj, "nr", "an integer", int),
        block=_block_from_json(obj["block"]),
        label_text=_field(obj, "label", "a string", str),
        level=_field(obj, "level", "an integer", int),
        m=_field(obj, "m", "an integer or null", int, type(None)),
        signature=Signature.parse(_field(obj, "signature", "a string", str)),
        delta=_field(obj, "dim", "an integer", int),
        equation=EquationTemplate.from_json_dict(obj["equation"]),
        highlighted=_field(obj, "highlighted", "true or false", bool),
    )
    if record.level < 1:
        raise ValueError(f"field 'level' must be at least 1, got {record.level}")
    record.reduced_group()  # a bad block/m pair fails here, not at first use
    return record


_BLOCK_NAMES = tuple(k.value for k in ReducedKind)


def _block_from_json(value) -> ReducedKind:
    if value not in _BLOCK_NAMES:
        raise ValueError(f"field 'block' must be one of {', '.join(_BLOCK_NAMES)}, "
                         f"got {value!r}")
    return ReducedKind(value)


def _named_to_json(curve: NamedCurve) -> dict:
    return {
        "genus": curve.genus,
        "level": curve.level,
        "label": curve.label_text,
        "equation": curve.equation.to_json_dict(),
        "note": curve.note,
    }


def _named_from_json(obj: dict) -> NamedCurve:
    curve = NamedCurve(
        genus=_field(obj, "genus", "an integer", int),
        level=_field(obj, "level", "an integer", int),
        label_text=_field(obj, "label", "a string", str),
        equation=EquationTemplate.from_json_dict(obj["equation"]),
        note=_field(obj, "note", "a string", str),
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
    payload = json.loads(text)
    version = payload.get("version")
    if version != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {version!r}")
    records = _rows_from_json("families", payload["families"], _record_from_json)
    named = _rows_from_json("named_curves", payload.get("named_curves", []), _named_from_json)
    return Dataset(records, named)


def _rows_from_json(name: str, objs, parse) -> list:
    """Parse each row; a malformed one is a ValueError naming its place and field."""
    if type(objs) is not list:
        raise ValueError(f"field {name!r} must be a list, got {objs!r}")
    out = []
    for i, obj in enumerate(objs):
        try:
            out.append(parse(obj))
        except KeyError as exc:
            raise ValueError(f"{name}[{i}]: missing key {exc.args[0]!r}") from None
        except TypeError as exc:   # a container of the wrong type, found only now
            raise ValueError(f"{name}[{i}]: {_misshapen(obj) or exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{name}[{i}]: {exc}") from None
    return out


def _misshapen(row) -> str | None:
    """The first JSON container of ``row`` that has the wrong type, if any, described."""
    for path, value, kind in _containers(row):
        if type(value) is not kind:
            where = "" if path is None else f"field {path!r} "
            return f"{where}must be {'an object' if kind is dict else 'a list'}, got {value!r}"


def _containers(row):
    """(path, value, type) of each container in a row, each after its parent."""
    yield None, row, dict
    if "equation" in row:
        equation = row["equation"]
        yield "equation", equation, dict
        if "factors" in equation:
            factors = equation["factors"]
            yield "equation.factors", factors, list
            for i, factor in enumerate(factors):
                yield f"equation.factors[{i}]", factor, list
                for j, term in enumerate(factor):
                    yield f"equation.factors[{i}][{j}]", term, dict
                    if "c" in term:
                        yield f"equation.factors[{i}][{j}].c", term["c"], dict


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

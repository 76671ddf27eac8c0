"""Re-derivation checks for every row of the dataset.

Each row is checked from first principles: the printed signature must balance
the genus relation over a genus-0 quotient (after repair where a misprint
forces one), the locus dimension must match the signature length, the
defining polynomial must have the stated genus at the stated level with one
free coefficient a_1, ..., a_delta per dimension, cone orders must divide the
group order, the polynomial must stay separable at the probe point (a modular
certificate plus exact fallback, see :mod:`superelliptic.family`), and the
recomputed verdict must agree with the printed highlighting.

The genus check needs no companions: once the level and degree give a branch
count B, 2g = (n - 1)(B - 2) makes (n, B) one of the admissible splittings of
g, the normal form y^n = f(x) exists by construction, and the branch data is
valid cyclic-cover data.  The separability probe runs only on rows whose
level and degree have that shape, so a badly shaped row is reported once,
under ``genus``.  One walk over the equation's terms (``separability_probe``)
gives the degree for the genus check, the parameter indices for the parameter
check, and, on a shaped row, the probe's answer.

A finding is a warning when :data:`superelliptic.tables.ERRATA` has an entry
with its row, its code and the value the check derived (the effective
signature, the forced group order, the verdict), and the row prints the
signature or label the entry documents; everything else is a failure.  An
entry for a check that does not fire, derives another value, or meets a row
printing another value is a stale ``erratum`` failure.  Strict mode promotes
warnings to failures.
"""

from __future__ import annotations

from collections import namedtuple

from . import tables
from ._quote import clip, quote
from .classify import classify
from .dataset import Dataset, FamilyRecord, repair_signature
from .family import genus_of_family, separability_probe
from .groups import LabelError, parse_group_label
from .signature import SignatureRepair, moduli_dimension

FAILURE = "failure"
WARNING = "warning"
CHECKS = ("label", "signature", "dimension", "cone_orders", "genus", "parameters",
          "separability", "classification")


class Finding(namedtuple("Finding", "severity code genus number message")):
    __slots__ = ()

    def render(self) -> str:
        return (f"[{self.severity}] genus {self.genus} nr {self.number} "
                f"({self.code}): {self.message}")


class RowResult(namedtuple("RowResult", "record resolution classification findings")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not any(f.severity == FAILURE for f in self.findings)


class VerifyReport(namedtuple("VerifyReport", "rows")):
    """One :class:`RowResult` per row checked, in order."""

    __slots__ = ()

    @property
    def findings(self) -> tuple[Finding, ...]:
        return tuple(f for row in self.rows for f in row.findings)

    @property
    def failures(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == FAILURE)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self, verbose: bool = False) -> str:
        lines = [f.render() for f in self.findings if f.severity == FAILURE or verbose]
        by_genus: dict[int, list[RowResult]] = {}
        for row in self.rows:
            by_genus.setdefault(row.record.genus, []).append(row)
        for genus in sorted(by_genus):
            part = VerifyReport(tuple(by_genus[genus]))
            lines.append(f"genus {genus}: {len(part.rows)} rows checked, "
                         f"{len(part.failures)} failure(s), {len(part.warnings)} warning(s)")
        lines.append(f"total: {len(self.rows)} rows, {len(self.failures)} "
                     f"failure(s), {len(self.warnings)} warning(s)")
        return "\n".join(lines)


def verify_row(record: FamilyRecord, strict: bool = False) -> RowResult:
    findings: list[Finding] = []
    errata = tables.ERRATA_BY_ROW.get(record.key, {})
    matched: set[str] = set()

    def add(code: str, message: str, derived: str | None = None) -> None:
        entry = errata.get(code)
        documented = entry is not None and entry.derived == derived and record.prints(entry)
        if documented:
            matched.add(code)
        severity = WARNING if documented and not strict else FAILURE
        findings.append(Finding(severity, code, record.genus, record.number, message))

    reduced = record.reduced_group()
    order = record.level * reduced.order
    degree, indices, separability = separability_probe(record.level, record.equation)

    try:
        label = parse_group_label(record.label_text)
        if label.recognized and label.order != order:
            add("label",
                f"printed group {quote(record.label_text)} has order {label.order}, "
                f"but level {record.level} over {reduced.describe()} forces "
                f"{order}", str(order))
    except LabelError as exc:
        add("label", str(exc))

    try:
        resolution = repair_signature(record, order)
    except ValueError as exc:      # a genus below 2, which no signature balances;
        add("signature", str(exc.__cause__))   # the cause, as the finding names the row
        resolution = SignatureRepair("unrepairable", record.signature)
    else:
        if resolution.status in ("completed", "corrected"):
            suffix = " (repair choice is ambiguous)" if resolution.ambiguous else ""
            add("signature",
                f"printed signature {clip(str(record.signature))} does not balance the genus "
                f"relation; {resolution.edit}{suffix}", resolution.effective.render())
        elif resolution.status == "manually_corrected":
            add("signature",
                f"printed signature {record.signature} is beyond single-edit "
                f"repair; corrected to {resolution.effective} ({resolution.edit})",
                resolution.effective.render())
        elif resolution.status == "unrepairable":
            add("signature",
                f"printed signature {clip(str(record.signature))} does not balance the genus "
                f"relation and no single edit fixes it")

    eff = resolution.effective
    if resolution.status != "unrepairable":   # eff balances over a genus-0 quotient
        dim = moduli_dimension(0, eff.point_count)
        if dim != record.delta:
            add("dimension",
                f"signature {clip(str(eff))} gives a {dim}-dimensional locus, table "
                f"says {record.delta}")

    bad_orders = sorted({o for o, _ in eff.entries if order % o})
    if bad_orders:
        add("cone_orders",
            f"cone order(s) {clip(str(bad_orders))} do not divide the group order {order}")

    shaped = False
    try:
        computed_genus = genus_of_family(record.level, degree)
    except ValueError as exc:      # NonSuperellipticError, a level below 2, or B < 3
        add("genus", str(exc))
    else:
        shaped = True
        if computed_genus != record.genus:
            add("genus",
                f"equation {clip(record.equation.render())} at level {record.level} "
                f"has genus {computed_genus}, not {record.genus}")

    if len(indices) != record.delta:
        add("parameters",
            f"equation has {len(indices)} free "
            f"coefficient(s), table dimension is {record.delta}")
    elif indices != tuple(range(1, record.delta + 1)):
        names = clip(", ".join(f"a_{i}" for i in indices))
        add("parameters",
            f"equation's free coefficients are {names}, expected a_1 to "
            f"a_{record.delta}")

    if shaped and separability:   # a badly shaped row has its one finding under genus
        add("separability", "; ".join(separability))

    classification = classify(reduced, eff)
    computed_highlight = not classification.is_definable
    if computed_highlight != record.highlighted:
        documented = errata.get("classification")
        detail = f" ({documented.why})" if documented else ""
        side = ("recomputation says the row is possibly-not-definable but it "
                "is not highlighted" if computed_highlight else
                "recomputation proves definability but the row is highlighted")
        add("classification", side + detail, classification.verdict)

    for code, entry in errata.items():
        if code in CHECKS and code not in matched:
            why = (f"which the {code} check does not derive" if record.prints(entry)
                   else f"but the row does not print {entry.printed}")
            add("erratum", f"documented {code} erratum expects {entry.derived}, {why}")

    return RowResult(record, resolution, classification, tuple(findings))


def verify_dataset(dataset: Dataset, genera=None, strict: bool = False) -> VerifyReport:
    """Verify every row, or the rows of ``genera``: a genus with none is a KeyError."""
    rows = dataset if genera is None else [
        r for g in sorted(set(genera)) for r in dataset.genus_rows(g)]
    return VerifyReport(tuple(verify_row(record, strict=strict) for record in rows))

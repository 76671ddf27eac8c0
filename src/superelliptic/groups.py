"""Reduced automorphism groups and full-group labels.

A superelliptic curve y^n = f(x) carries a central cyclic group of order n
whose quotient acts on the projective line; that quotient -- the *reduced*
group -- is one of the finite Moebius groups: cyclic C_m (C_1 is the trivial
group), dihedral of order 2m, or one of A_4, S_4, A_5.  The full automorphism
group has order n * |reduced|.

Table labels for full groups come in two kinds: recognizable names built from
C_k, D_k (subscript = order, so D_6 is the symmetric group on 3 letters),
V_4, A_4, S_4, A_5 with direct products and powers; and opaque names (G_5, K,
...) whose order is known only from the row context.  ``parse_group_label``
handles both.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from ._quote import quote

__all__ = [
    "ReducedKind",
    "ReducedGroup",
    "GroupLabel",
    "LabelError",
    "parse_group_label",
]


# The five kinds as the block column prints them, in the tables' block order.
_KINDS = ("cyclic", "dihedral", "tetrahedral", "octahedral", "icosahedral")


class ReducedKind:
    """A reduced group's kind by name; ``ReducedKind.CYCLIC == "cyclic"``."""

    CYCLIC, DIHEDRAL, TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL = _KINDS


# Name and order of each polyhedral group; the label parser reads them too.
_POLYHEDRAL = {
    ReducedKind.TETRAHEDRAL: ("A_4", 12),
    ReducedKind.OCTAHEDRAL: ("S_4", 24),
    ReducedKind.ICOSAHEDRAL: ("A_5", 60),
}


class ReducedGroup(namedtuple("ReducedGroup", "kind m")):
    """A finite subgroup of the Moebius group, up to conjugacy.

    ``m``: the order of C_m, half that of a dihedral group (V_4 has m = 2), None if polyhedral."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, kind: str, m: int | None = None) -> "ReducedGroup":
        if kind not in _KINDS:  # a tuple: an unhashable kind is refused, not a TypeError
            raise ValueError(f"block must be one of {', '.join(_KINDS)}, got {quote(kind)}")
        if kind in _POLYHEDRAL:
            if m:  # the tables print a polyhedral row's m as blank or 0
                raise ValueError(f"{kind} block takes no m, got {m}")
            m = None
        else:
            least = 2 if kind == ReducedKind.DIHEDRAL else 1
            if m is None or m < least:
                raise ValueError(f"{kind} block needs m >= {least}, got {m}")
        return super().__new__(cls, kind, m)

    @property
    def order(self) -> int:
        if self.kind == ReducedKind.CYCLIC:
            return self.m
        if self.kind == ReducedKind.DIHEDRAL:
            return 2 * self.m
        return _POLYHEDRAL[self.kind][1]

    @property
    def is_cyclic_or_trivial(self) -> bool:
        return self.kind == ReducedKind.CYCLIC

    def describe(self) -> str:
        if self.kind == ReducedKind.CYCLIC:
            return "{1}" if self.m == 1 else f"C_{self.m}"
        if self.kind == ReducedKind.DIHEDRAL:
            return "V_4" if self.m == 2 else f"D_{2 * self.m}"
        return _POLYHEDRAL[self.kind][0]


class LabelError(ValueError):
    pass


class GroupLabel(namedtuple("GroupLabel", "order recognized")):
    """What a full-group label says: its order when determinable.

    ``recognized`` is True when the name itself pins the order down (C_k, D_k,
    V_4, A_4, S_4, A_5, their products and powers); opaque names (G_5, K, ...)
    carry the order supplied by context, or None.
    """

    __slots__ = ()


_ATOM_ORDERS = {"V_4": 4, **dict(_POLYHEDRAL.values())}
_MAX_ORDER = 2 ** 64   # far above any table group: the largest order is 180


# The parser reads labels with str methods, not patterns: no CLI call imports
# re.  Where a pattern would say \d or \s, it tests isdecimal or isspace, the
# classes re's \d and \s match on str.  tests/test_groups.py keeps the patterns
# as the reference parser.
def _atom_order(atom: str) -> int | None:
    """Order of a single label atom, stripped of whitespace, or None when opaque."""
    exponent = 1
    stem, caret, digits = atom.rpartition("^")
    if caret and digits.isdecimal() and "\n" not in stem:   # a power; . in a pattern skips \n
        atom, exponent = stem.strip().strip("{}").strip(), int(digits)
    if atom in _ATOM_ORDERS:
        base = _ATOM_ORDERS[atom]
    elif atom[:1] in ("C", "D") and atom[1:2] == "_" and atom[2:].isdecimal():
        kind, base = atom[0], int(atom[2:])
        if base < 1 or (kind == "D" and (base % 2 or base < 4)):
            raise LabelError(f"impossible group label atom {quote(atom)}")
    elif atom == "K" or (atom[:2] == "G_" and atom[2:].isdecimal()):
        return None
    else:
        raise LabelError(f"unrecognized group label atom {quote(atom)}")
    if base > 1 and exponent > 64:    # then base ** exponent > 2^64: not built
        raise LabelError(f"group label atom {quote(atom)}^{exponent} has order above 2^64")
    return base ** exponent


def _split_product(text: str) -> list[str]:
    """The factors of a product label with no leading whitespace.

    A separator is the times sign with the whitespace around it, or a
    lowercase x with whitespace on both sides; the leftmost separator wins,
    and each takes all the whitespace after it.
    """
    atoms, start, i, n = [], 0, 0, len(text)
    while i < n:
        j = i
        while j < n and text[j].isspace():
            j += 1
        if j < n and (text[j] == "×" or (text[j] == "x" and i < j < n - 1
                                         and text[j + 1].isspace())):
            atoms.append(text[start:i])
            i = j + 1
            while i < n and text[i].isspace():
                i += 1
            start = i
        else:
            i = j + 1
    atoms.append(text[start:])
    return atoms


@cache
def parse_group_label(text: str, context_order: int | None = None) -> GroupLabel:
    """Parse a full-group label; opaque or blank labels take ``context_order``.

    Accepts direct products separated by the times sign (either the Unicode
    character or a surrounded lowercase x) and powers like C_3^2.  A label of
    order above 2^64, or with a number of more than 20 digits, is a
    LabelError, raised before so large a number is built.  Memoised; a
    LabelError is not, so every call with a bad label raises it.
    """
    cleaned = text.strip()
    if not cleaned:
        return GroupLabel(context_order, False)
    if len(cleaned) > 20 and any(   # a number above 2^64; int() would be slow
            len(run) > 20 for run in "".join(c if c.isdecimal() else " " for c in cleaned).split()):
        raise LabelError("group label holds a number above 2^64")
    order = 1
    for atom in _split_product(cleaned):
        atom_order = _atom_order(atom.strip())
        if atom_order is None:
            return GroupLabel(context_order, False)
        order *= atom_order
        if order > _MAX_ORDER:
            raise LabelError("group label has order above 2^64")
    return GroupLabel(order, True)

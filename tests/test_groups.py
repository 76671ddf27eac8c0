"""Reduced groups and printed full-group labels."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superelliptic._quote import quote
from superelliptic.groups import (_KINDS, GroupLabel, LabelError, ReducedGroup,
                                  ReducedKind, parse_group_label)


def test_reduced_group_construction() -> None:
    assert ReducedGroup(ReducedKind.CYCLIC, 1) == (ReducedKind.CYCLIC, 1)
    assert ReducedGroup(ReducedKind.CYCLIC, 1).order == 1
    assert ReducedGroup(ReducedKind.CYCLIC, 7).order == 7
    assert ReducedGroup(ReducedKind.DIHEDRAL, 2).order == 4
    assert ReducedGroup(ReducedKind.DIHEDRAL, 12).order == 24
    assert ReducedGroup(ReducedKind.TETRAHEDRAL).order == 12
    assert ReducedGroup(ReducedKind.OCTAHEDRAL).order == 24
    assert ReducedGroup(ReducedKind.ICOSAHEDRAL).order == 60


def test_reduced_group_describe() -> None:
    assert ReducedGroup(ReducedKind.CYCLIC, 1).describe() == "{1}"
    assert ReducedGroup(ReducedKind.CYCLIC, 5).describe() == "C_5"
    assert ReducedGroup(ReducedKind.DIHEDRAL, 2).describe() == "V_4"
    assert ReducedGroup(ReducedKind.DIHEDRAL, 6).describe() == "D_12"
    assert ReducedGroup(ReducedKind.TETRAHEDRAL).describe() == "A_4"
    assert ReducedGroup(ReducedKind.OCTAHEDRAL).describe() == "S_4"
    assert ReducedGroup(ReducedKind.ICOSAHEDRAL).describe() == "A_5"


def test_reduced_group_cyclicity_flag() -> None:
    assert ReducedGroup(ReducedKind.CYCLIC, 1).is_cyclic_or_trivial
    assert ReducedGroup(ReducedKind.CYCLIC, 9).is_cyclic_or_trivial
    assert not ReducedGroup(ReducedKind.DIHEDRAL, 2).is_cyclic_or_trivial
    assert not ReducedGroup(ReducedKind.ICOSAHEDRAL).is_cyclic_or_trivial


def test_c1_is_the_trivial_group() -> None:
    # one representation: the tables' cyclic block with m = 1
    trivial = ReducedGroup(ReducedKind.CYCLIC, 1)
    assert trivial.order == 1
    assert trivial.describe() == "{1}"
    assert trivial.is_cyclic_or_trivial
    assert set(_KINDS) == {"cyclic", "dihedral", "tetrahedral", "octahedral", "icosahedral"}


def test_a_kind_is_the_string_the_block_column_prints() -> None:
    # spelled once, in the tables' block order
    assert (ReducedKind.CYCLIC, ReducedKind.DIHEDRAL, ReducedKind.TETRAHEDRAL,
            ReducedKind.OCTAHEDRAL, ReducedKind.ICOSAHEDRAL) == _KINDS == (
                "cyclic", "dihedral", "tetrahedral", "octahedral", "icosahedral")
    # a block read from --data is an equal string, not the same object
    for kind in _KINDS:
        read = "".join(list(kind))
        assert read == kind and read is not kind
        m = None if kind in ("tetrahedral", "octahedral", "icosahedral") else 2
        group, same = ReducedGroup(read, m), ReducedGroup(kind, m)
        assert group == same and type(group.kind) is str
        assert (group.order, group.describe(), group.is_cyclic_or_trivial) == (
            same.order, same.describe(), same.is_cyclic_or_trivial)
    with pytest.raises(ValueError, match="dihedral block needs m >= 2"):
        ReducedGroup("".join(list("dihedral")), 1)


@pytest.mark.parametrize("kind,m,message", [
    (ReducedKind.CYCLIC, 0, "cyclic block needs m >= 1, got 0"),
    (ReducedKind.CYCLIC, None, "cyclic block needs m >= 1, got None"),
    (ReducedKind.DIHEDRAL, 1, "dihedral block needs m >= 2, got 1"),
    (ReducedKind.DIHEDRAL, None, "dihedral block needs m >= 2, got None"),
    (ReducedKind.OCTAHEDRAL, 3, "octahedral block takes no m, got 3"),
], ids=lambda v: f"ReducedKind.{v.upper()}" if v in _KINDS else None)   # the constant's name
def test_reduced_group_is_the_one_block_and_m_validator(kind, m, message) -> None:
    with pytest.raises(ValueError, match=re.escape(message)):
        ReducedGroup(kind, m)


def test_polyhedral_m_as_printed_is_dropped() -> None:
    # the tables print a polyhedral row's m as blank or 0; neither is a parameter
    for m in (None, 0):
        group = ReducedGroup(ReducedKind.TETRAHEDRAL, m)
        assert group == ReducedGroup(ReducedKind.TETRAHEDRAL) and group.m is None


# (printed label, expected order); all appear in the tables or the named list.
LABEL_CASES = [
    ("C_2", 2),
    ("C_22", 22),
    ("V_4", 4),
    ("A_4", 12),
    ("S_4", 24),
    ("A_5", 60),
    ("C_2 × C_3", 6),
    ("C_3 × C_2", 6),
    ("C_3^2", 9),
    ("D_6 × C_3", 18),
    ("D_8 × C_4", 32),
    ("D_24 × C_3", 72),
    ("S_4 × C_3", 72),
    ("A_5 × C_3", 180),
    ("D_10 × C_5", 50),
    ("V_4 × C_11", 44),
    ("D_4 × C_5", 20),
]


@pytest.mark.parametrize("text,order", LABEL_CASES)
def test_label_orders(text: str, order: int) -> None:
    label = parse_group_label(text)
    assert label.recognized
    assert label.order == order


def test_label_ascii_product_separator() -> None:
    assert parse_group_label("D_6 x C_3").order == 18


def test_opaque_labels_take_context_order() -> None:
    for text in ("G_5", "G_22", "K"):
        label = parse_group_label(text, context_order=48)
        assert not label.recognized
        assert label.order == 48
    assert parse_group_label("G_9").order is None


def test_blank_label() -> None:
    label = parse_group_label("", context_order=8)
    assert not label.recognized
    assert label.order == 8


@pytest.mark.parametrize("bad", ["D_7", "D_2", "X_9", "C_0", "C_2 × Q_8"])
def test_label_rejects_malformed(bad: str) -> None:
    with pytest.raises(LabelError):
        parse_group_label(bad)


def test_c1_atom_parses_with_order_one() -> None:
    label = parse_group_label("C_1")
    assert label.recognized and label.order == 1
    assert parse_group_label("C_1 × C_3").order == 3


def test_memoised_label_parse_raises_on_every_call() -> None:
    for _ in range(3):
        with pytest.raises(LabelError, match="D_7"):
            parse_group_label("D_7 × C_2", 12)


def test_memoised_label_parse_ignores_how_the_order_is_passed() -> None:
    for text in ("G_5", "C_2 × C_3", ""):
        positional = parse_group_label(text, 48)
        assert parse_group_label(text, context_order=48) == positional
        assert parse_group_label(text, 48) is positional



def test_label_order_bound_is_2_to_the_64() -> None:
    assert parse_group_label("C_3^2").order == 9
    assert parse_group_label("C_2^64").order == 2 ** 64
    assert parse_group_label("C_1^99999999999999999999").order == 1
    assert parse_group_label(f"C_{2 ** 32} × C_{2 ** 32}").order == 2 ** 64
    # each is decided before its power or product is built
    for text in ("C_2^65", f"C_{2 ** 64 + 1}", f"C_{2 ** 32} × C_{2 ** 32 + 2}",
                 "V_4^33", "C_1^" + "1" * 21, "C_2^20000", "C_" + "7" * 5000,
                 " × ".join(["C_" + "9" * 3000] * 2), "C_3^10000000"):
        with pytest.raises(LabelError, match="above 2\\^64"):
            parse_group_label(text, 6)


# -- the label parser against its regex form ---------------------------------------

_ATOMS = {"V_4": 4, "A_4": 12, "S_4": 24, "A_5": 60}


def _atom_by_regex(atom: str) -> int | None:
    power = re.match(r"^(.*?)\^(\d+)$", atom)
    exponent = 1
    if power:
        atom, exponent = power.group(1), int(power.group(2))
        atom = atom.strip().strip("{}").strip()
    sub = re.match(r"^([CD])_(\d+)$", atom)
    if atom in _ATOMS:
        base = _ATOMS[atom]
    elif sub:
        kind, base = sub.group(1), int(sub.group(2))
        if base < 1 or (kind == "D" and (base % 2 or base < 4)):
            raise LabelError(f"impossible group label atom {quote(atom)}")
    elif re.match(r"^(G_\d+|K)$", atom):
        return None
    else:
        raise LabelError(f"unrecognized group label atom {quote(atom)}")
    if base > 1 and exponent > 64:
        raise LabelError(f"group label atom {quote(atom)}^{exponent} has order above 2^64")
    return base ** exponent


def _parse_by_regex(text: str, context_order: int | None = None) -> GroupLabel:
    """The reference: ``parse_group_label`` as it was, with re patterns."""
    cleaned = text.strip()
    if not cleaned:
        return GroupLabel(context_order, False)
    if re.search(r"\d{21}", cleaned):
        raise LabelError("group label holds a number above 2^64")
    order = 1
    for atom in re.split(r"\s*×\s*|\s+x\s+", cleaned):
        atom_order = _atom_by_regex(atom.strip())
        if atom_order is None:
            return GroupLabel(context_order, False)
        order *= atom_order
        if order > 2 ** 64:
            raise LabelError("group label has order above 2^64")
    return GroupLabel(order, True)


def _label_outcome(parse, *args):
    try:
        return parse(*args)
    except LabelError as exc:
        return f"LabelError: {exc}"


# Atoms as printed and misprinted: Nd digits of other scripts (٣, ０), digits
# outside Nd (²), braced and repeated powers, 21-digit numbers.
_PRINTED_ATOMS = st.sampled_from((
    "C_3", "C_22", "D_6", "D_24", "V_4", "A_4", "S_4", "A_5", "G_5", "K", "C_1", "C_٣",
    "C_０٣", "C_²", "C_3^²", "C_3^2", "{C_3}^2", "{ V_4 }^٣", "C_3^2^2", "D_2^²", "G_٣"))
_LABEL_ATOMS = st.one_of(_PRINTED_ATOMS, st.sampled_from((
    "C_2^65", "C_" + "1" * 21, "C_1^" + "9" * 20, "D_7", "D_2", "C_0", "X_9", "G_", "x",
    "×", "", "C_3\n^2", "{K}^3")))
# Separators: the times sign and a lowercase x with tabs, NBSP and doubled
# spaces around them; then, among the noisy ones, newlines and no space.
_PRINTED_SEPARATORS = st.sampled_from((
    " × ", "×", "\t×\xa0", "  ×  ", " x ", "  x  ", "\tx\xa0", "\u3000×\u3000"))
_LABEL_SEPARATORS = st.one_of(_PRINTED_SEPARATORS, st.sampled_from((
    "\nx ", " x", "x ", "x", " ", "  ", " × x ", " x × ", " x x ")))
_LABEL_ENDS = st.sampled_from(("", "\n", " ", "\t\n"))
_LABEL_CHARS = "CDGKVAS_0123456789٣²^{}x× \t\n\xa0"


def _joined(atoms, separators) -> st.SearchStrategy[str]:
    return st.tuples(st.lists(st.tuples(atoms, separators), max_size=3), atoms, _LABEL_ENDS) \
        .map(lambda parts: "".join(a + s for a, s in parts[0]) + parts[1] + parts[2])


@given(st.one_of(
    _joined(_PRINTED_ATOMS, _PRINTED_SEPARATORS),
    _joined(_LABEL_ATOMS, _LABEL_SEPARATORS),
    st.text(_LABEL_CHARS, max_size=16),
    st.tuples(st.sampled_from(("C_", "G_", "C_2^", "Q")),
              st.text("0123456789٣", min_size=19, max_size=23)).map("".join),
), st.sampled_from((None, 48)))
def test_label_parse_matches_the_regex_parse(text: str, context_order) -> None:
    args = (text,) if context_order is None else (text, context_order)
    assert _label_outcome(parse_group_label, *args) == _label_outcome(_parse_by_regex, *args)


@pytest.mark.parametrize("text", ["C_2 x × C_3", "C_2 × x C_3", "C_2 x x C_3", "x C_3",
                                  "C_3^2^2", "C_3\n^2", "C_٣ × C_2\n", "C_²", "{C_2}^٣",
                                  "C_2\t×\xa0C_3", "D_6\xa0x\tC_3", "D_6  x  C_3"])
def test_label_parse_matches_the_regex_parse_at_the_edges(text: str) -> None:
    for args in ((text,), (text, 48)):
        assert _label_outcome(parse_group_label, *args) == _label_outcome(_parse_by_regex, *args)

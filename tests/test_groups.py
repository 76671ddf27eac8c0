"""Reduced groups and printed full-group labels."""

from __future__ import annotations

import re

import pytest

from superelliptic.groups import (LabelError, ReducedGroup, ReducedKind,
                                  parse_group_label)


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
    assert {k.value for k in ReducedKind} == {"cyclic", "dihedral", "tetrahedral",
                                              "octahedral", "icosahedral"}


@pytest.mark.parametrize("kind,m,message", [
    (ReducedKind.CYCLIC, 0, "cyclic block needs m >= 1, got 0"),
    (ReducedKind.CYCLIC, None, "cyclic block needs m >= 1, got None"),
    (ReducedKind.DIHEDRAL, 1, "dihedral block needs m >= 2, got 1"),
    (ReducedKind.DIHEDRAL, None, "dihedral block needs m >= 2, got None"),
    (ReducedKind.OCTAHEDRAL, 3, "octahedral block takes no m, got 3"),
])
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

"""Embedded classification table: superelliptic families of genus 3 through 10.

Each genus carries a block-structured list of rows (cyclic reduced group,
dihedral, then A_4 / S_4 / A_5 where present).  A row records, in printed
order: the row number, its block, the full-group label as printed (possibly
empty), the level n, the printed m column (None when the cell is blank), the
printed signature text, the printed dimension of the locus, the defining
polynomial as an :class:`~superelliptic.family.EquationTemplate`, and whether
the row is highlighted as "possibly not definable over the field of moduli".

Transcription policy: everything is kept verbatim except fields that are
provably wrong from the other columns; those are stored corrected and the
deviation is recorded in ``ERRATA`` at the bottom of this module (signature
misprints are the exception -- they stay verbatim because the repair oracle
fixes them at run time, and their entries say what it must find).  Nothing
here is parsed from typeset source at run time; the rows below *are* the
dataset.

Each genus table is a function whose body is its row literal, read through
:func:`genus_table`, which builds the table on first read and keeps it; the
named curves are read the same way through :func:`named_curves`.  Importing
the module builds no equation template, so a call that reads one genus
builds that genus alone.  :data:`GENERA` lists the genera with a table.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .arith import QuadNum, Rational
from .family import EquationTemplate, ParamCoeff, Term
from .groups import ReducedKind


@cache
def _coeff(spec):
    if hasattr(spec, "denominator"):   # an int or a rational
        return QuadNum(spec)
    if isinstance(spec, str):
        return ParamCoeff(int(spec[1:]))
    if isinstance(spec, tuple) and spec[0] == "sqrt":
        return QuadNum(0, spec[1])
    if isinstance(spec, tuple):
        name, scale = spec
        return ParamCoeff(int(name[1:]), scale)
    raise TypeError(f"bad coefficient spec {spec!r}")


@cache
def _term(e: int, spec) -> Term:
    return Term(e, _coeff(spec))


def f(*terms) -> tuple[Term, ...]:
    """A factor: bare int e means x^e, (e, spec) gives the coefficient."""
    return tuple(_term(term, 1) if isinstance(term, int) else _term(*term) for term in terms)


def t(*factors) -> EquationTemplate:
    return EquationTemplate(tuple(factors))


def spread(deg: int, step: int, count: int) -> tuple[Term, ...]:
    """x^deg + a_1 x^step + a_2 x^(2 step) + ... + a_count x^(count*step) + 1."""
    return f(deg, *((step * i, f"a{i}") for i in range(1, count + 1)), 0)


X = f(1)

# x^12 - a_1 x^10 - 33 x^8 + 2 a_1 x^6 - 33 x^4 - a_1 x^2 + 1: the one-parameter
# pencil with tetrahedral reduced symmetry that several genera share.
F1 = f(12, (10, ("a1", -1)), (8, -33), (6, ("a1", 2)), (4, -33), (2, ("a1", -1)), 0)

C, D, A4, S4, A5 = (ReducedKind.CYCLIC, ReducedKind.DIHEDRAL, ReducedKind.TETRAHEDRAL,
                     ReducedKind.OCTAHEDRAL, ReducedKind.ICOSAHEDRAL)

# (nr, block, label, level n, printed m, printed signature, printed delta,
#  equation template, highlighted as possibly-not-definable)


def _genus3():
    return (
    (1, C, "C_2", 2, 1, "2^8", 5, t(X, spread(6, 1, 5)), True),
    (2, C, "V_4", 2, 2, "2^6", 3, t(f(8, (2, "a1"), (4, "a2"), (6, "a3"), 0)), True),
    (3, C, "C_4", 2, 2, "2^3,4^2", 2, t(X, f(6, (2, "a1"), (4, "a2"), 0)), False),
    (4, C, "C_6", 3, 2, "2,3^2,6", 1, t(f(4, (2, "a1"), 0)), False),
    (5, D, "V_4 × C_4", 4, 2, "2^3,4", 1, t(f(4, (2, "a1"), 0)), False),
)


def _genus4():
    return (
    (1, C, "C_2", 2, 1, "2^10", 7, t(X, spread(8, 1, 7)), True),
    (2, C, "V_4", 2, 2, "2^7", 4, t(spread(10, 2, 4)), False),
    (3, C, "C_4", 2, 2, "2^4,4^2", 3, t(X, f(8, (6, "a3"), (4, "a2"), (2, "a1"), 0)), True),
    (4, C, "C_6", 2, 3, "2^3,3,6", 2, t(f(9, (3, "a1"), (6, "a2"), 0)), False),
    (5, C, "C_3", 3, 1, "3^6", 3, t(X, f(4, (1, "a1"), (2, "a2"), (3, "a3"), 0)), True),
    (6, C, "C_2 × C_3", 3, 2, "2^2,3^3", 2, t(f(6, (4, "a2"), (2, "a1"), 0)), False),
    (7, D, "D_6 × C_3", 3, 3, "2^2,3^2", 1, t(f(6, (3, "a1"), 0)), False),
    (8, D, "V_4 × C_3", 3, 2, "2^2,3,6", 1, t(f(2, (0, -1)), f(4, (2, "a1"), 0)), False),
    (9, D, "V_4 × C_3", 3, 2, "2^2,3,6", 1, t(X, f(4, (2, "a1"), 0)), False),
)


def _genus5():
    return (
    (1, C, "V_4", 2, 2, "2^8", 5, t(spread(12, 2, 5)), True),
    (2, C, "C_3 × C_2", 2, 3, "2^4,3^2", 3, t(spread(12, 3, 3)), True),
    (3, C, "C_2 × C_4", 2, 4, "2^3,4^2", 2, t(f(12, (8, "a2"), (4, "a1"), 0)), False),
    (4, C, "C_22", 2, 11, "2,11,22", 0, t(f(11, 0)), False),
    (5, C, "C_22", 11, 2, "2,22,22", 0, t(f(2, 0)), False),
    (6, C, "C_2", 2, 1, "2^12", 9, t(X, spread(10, 1, 9)), True),
    (7, C, "C_4", 2, 2, "2^5,4^2", 4, t(X, spread(10, 2, 4)), False),
    (8, D, "", 2, 2, "2^6", 3,
     t(f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0)), False),
    (9, D, "", 2, 3, "2^4,3", 2, t(f(6, (3, "a1"), 0), f(6, (3, "a2"), 0)), False),
    (10, D, "", 2, 6, "2^3,6", 1, t(f(12, (6, "a1"), 0)), False),
    (11, D, "", 2, 4, "2^2,4^2", 1, t(f(4, (0, -1)), f(8, (4, "a1"), 0)), False),
    (12, D, "", 2, 12, "2,4,12", 0, t(f(12, (0, -1))), False),
    (13, D, "", 2, 5, "2^3,10", 1, t(X, f(10, (5, "a1"), 0)), False),
    (14, D, "", 2, 2, "2^3,4^2", 2,
     t(f(4, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0)), False),
    (15, D, "", 2, 3, "2,3,4^2", 1, t(f(6, (0, -1)), f(6, (3, "a1"), 0)), False),
    (16, D, "", 2, 2, "2^3,4^2", 2,
     t(X, f(2, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0)), False),
    (17, D, "", 2, 10, "2,4,20", 0, t(X, f(10, (0, -1))), False),
    (18, A4, "", 2, None, "2^2,3^2", 1, t(F1), False),
    (19, S4, "", 2, 0, "3,4^2", 0, t(f(12, (8, -33), (4, -33), 0)), False),
    (20, A5, "", 2, None, "2,3,10", 0, t(X, f(10, (5, 11), (0, -1))), False),
)


def _genus6():
    return (
    (1, C, "V_4", 2, 2, "2^9", 6, t(spread(14, 2, 6)), False),
    (2, C, "C_26", 2, 13, "2,13,26", 0, t(f(13, 0)), False),
    (3, C, "C_21", 3, 7, "3,7,21", 0, t(f(7, 0)), False),
    (4, C, "C_20", 4, 5, "4,5,20", 0, t(f(5, 0)), False),
    (5, C, "C_10", 5, 2, "2,5^2,10", 1, t(f(4, (2, "a1"), 0)), False),
    (6, C, "C_20", 5, 4, "4,5,20", 0, t(f(4, 0)), False),
    (7, C, "C_21", 7, 3, "3,7,21", 0, t(f(3, 0)), False),
    (8, C, "C_26", 13, 2, "2,13,26", 0, t(f(2, 0)), False),
    (9, C, "C_2", 2, 1, "2^14", 11, t(X, spread(12, 1, 11)), True),
    (10, C, "C_4", 2, 2, "2^6,4^2", 5, t(X, spread(12, 2, 5)), True),
    (11, C, "C_6", 2, 3, "2^3,3^2,6^2", 3, t(X, spread(12, 3, 3)), False),
    (12, C, "C_8", 2, 4, "2^3,8^2", 2, t(X, spread(12, 4, 2)), False),
    (13, C, "C_3", 3, 1, "3^8", 5, t(X, spread(6, 1, 5)), True),
    (14, C, "C_6", 3, 2, "3^3,6^2", 2, t(X, f(6, (4, "a2"), (2, "a1"), 0)), False),
    (15, C, "C_4", 4, 1, "4^6", 3, t(X, spread(4, 1, 3)), True),
    (16, C, "C_5", 5, 1, "5^5", 2, t(X, f(3, (1, "a1"), (2, "a2"), 0)), False),
    (17, D, "D_14 × C_2", 2, 7, "2^3,7", 1, t(f(14, (7, "a1"), 0)), False),
    (18, D, "G_5", 2, 2, "2^5,4", 3,
     t(f(2, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0)), False),
    (19, D, "G_5", 2, 14, "2,4,14", 0, t(f(14, (0, -1))), False),
    (20, D, "D_10 × C_2", 5, 5, "2,5,10", 0, t(f(5, (0, -1))), False),
    (21, D, "D_8", 2, 2, "2^5,4", 3,
     t(X, f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0)), False),
    (22, D, "D_6 × C_2", 2, 3, "2^4,6", 2, t(X, f(6, (3, "a1"), 0), f(6, (3, "a2"), 0)), False),
    (23, D, "D_24", 2, 6, "2^3,12", 1, t(X, f(12, (6, "a1"), 0)), False),
    (24, D, "D_6 × C_3", 3, 3, "2^2,3,9", 1, t(X, f(6, (3, "a1"), 0)), False),
    (25, D, "D_16", 4, 2, "2^2,4,8", 1, t(X, f(4, (2, "a1"), 0)), False),
    (26, D, "G_8", 2, 4, "2^2,4,8", 1, t(X, f(4, (0, -1)), f(8, (4, "a1"), 0)), False),
    (27, D, "G_8", 2, 12, "2,4,24", 0, t(X, f(12, (0, -1))), False),
    (28, D, "V_4 × C_3", 3, 2, "2,3,6^2", 1, t(X, f(2, (0, -1)), f(4, (2, "a1"), 0)), False),
    (29, D, "D_12 × C_3", 3, 6, "2,6,18", 0, t(X, f(6, (0, -1))), False),
    (30, D, "G_8", 4, 4, "2,8,16", 0, t(X, f(4, (0, -1))), False),
    (31, D, "D_6 × C_5", 5, 3, "2,10,15", 0, t(X, f(3, (0, -1))), False),
    (32, D, "V_4 × C_7", 7, 2, "2,14^2", 0, t(X, f(2, (0, -1))), False),
    (33, D, "G_9", 2, 2, "2^2,4^3", 2,
     t(X, f(4, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0)), False),
    (34, D, "G_9", 2, 3, "2,4^2,6", 1, t(X, f(6, (0, -1)), f(6, (3, "a1"), 0)), False),
    (35, S4, "G_18", 4, 0, "2,3,16", 0, t(X, f(4, (0, -1))), False),
    (36, S4, "G_19", 2, 0, "2,6,8", 0, t(X, f(4, (0, -1)), f(8, (4, 14), 0)), False),
)


def _genus7():
    return (
    (1, C, "V_4", 2, 2, "2^10", 7, t(spread(16, 2, 7)), True),
    (2, C, "C_2 × C_4", 2, 4, "2^4,4^2", 3, t(spread(16, 4, 3)), True),
    (3, C, "C_3^2", 3, 3, "3^5", 2, t(f(9, (6, "a2"), (3, "a1"), 0)), False),
    (4, C, "C_6", 2, 3, "2^5,3,6", 4, t(spread(15, 3, 4)), False),
    (5, C, "C_10", 2, 5, "2^3,5,10", 2, t(f(15, (5, "a1"), (10, "a2"), 0)), False),
    (6, C, "C_30", 2, 15, "2,15,30", 0, t(f(15, 0)), False),
    (7, C, "C_6", 3, 2, "2,3^4,6", 3, t(f(8, (6, "a3"), (4, "a2"), (2, "a1"), 0)), False),
    (8, C, "C_12", 3, 4, "3^2,4,12", 1, t(f(8, (4, "a1"), 0)), False),
    (9, C, "C_24", 3, 8, "3,8,24", 0, t(f(8, 0)), False),
    (10, C, "C_30", 15, 2, "2,15,30", 0, t(f(2, 0)), False),
    (11, C, "C_2", 2, 1, "2^16", 13, t(X, spread(14, 1, 13)), True),
    (12, C, "C_4", 2, 2, "2^7,4^2", 6, t(X, spread(14, 2, 6)), False),
    (13, C, "C_3", 3, 1, "3^9", 6, t(X, spread(7, 1, 6)), False),
    (14, D, "V_4 × C_2", 2, 2, "2^7", 4,
     t(f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0), f(4, (2, "a4"), 0)), False),
    (15, D, "D_8 × C_2", 2, 4, "2^4,4", 2, t(f(8, (4, "a1"), 0), f(8, (4, "a2"), 0)), False),
    (16, D, "D_16 × C_2", 2, 8, "2^3,8", 1, t(f(16, (8, "a1"), 0)), False),
    (17, D, "G_5", 2, 16, "2,4,16", 0, t(f(16, (0, -1))), False),
    (18, D, "D_6 × C_3", 3, 3, "2,3^2,6", 1, t(f(3, (0, -1)), f(6, (3, "a1"), 0)), False),
    (19, D, "D_18 × C_3", 3, 9, "2,6,9", 0, t(f(9, (0, -1))), False),
    (20, D, "D_14 × C_2", 2, 7, "2^3,14", 1, t(X, f(14, (7, "a1"), 0)), False),
    (21, D, "G_7", 2, 2, "2^4,4^2", 3,
     t(f(4, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0)), False),
    (22, D, "G_7", 2, 4, "2,4^3", 1, t(f(8, (0, -1)), f(8, (4, "a1"), 0)), False),
    (23, D, "G_8", 2, 2, "2^4,4^2", 3,
     t(X, f(2, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0)), False),
    (24, D, "G_8", 2, 14, "2,4,28", 0, t(X, f(14, (0, -1))), False),
    (25, D, "D_14 × C_3", 3, 7, "2,6,21", 0, t(X, f(7, (0, -1))), False),
    (26, D, "G_8", 8, 2, "2,16^2", 0, t(X, f(2, (0, -1))), False),
    (27, A4, "K", 2, 0, "2^2,3,6", 1, t(f(4, (2, ("sqrt", 2)), 0), F1), False),
)


def _genus8():
    return (
    (1, C, "V_4", 2, 2, "2^11", 8, t(spread(18, 2, 8)), False),
    (2, C, "C_2 × C_3", 2, 3, "2^6,3^2", 5, t(spread(18, 3, 5)), True),
    (3, C, "C_2 × C_6", 2, 6, "2^3,6^2", 2, t(f(18, (6, "a1"), (12, "a2"), 0)), False),
    (4, C, "C_34", 2, 17, "2,17,34", 0, t(f(17, 0)), False),
    (5, C, "C_34", 17, 2, "2,17,34", 0, t(f(2, 0)), False),
    (6, C, "C_2", 2, 1, "2^18", 15, t(X, spread(16, 1, 15)), True),
    (7, C, "C_4", 2, 2, "2^8,4^2", 7, t(X, spread(16, 2, 7)), True),
    (8, C, "C_8", 2, 4, "2^4,8^2", 3, t(X, spread(16, 4, 3)), True),
    (9, D, "D_6 × C_2", 2, 3, "2^5,3", 3,
     t(f(6, (3, "a1"), 0), f(6, (3, "a2"), 0), f(6, (3, "a3"), 0)), False),
    (10, D, "D_18 × C_2", 2, 9, "2^3,9", 1, t(f(18, (9, "a1"), 0)), False),
    (11, D, "G_5", 2, 2, "2^6,4", 4,
     t(f(2, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0),
       f(4, (2, "a3"), 0), f(4, (2, "a4"), 0)), False),
    (12, D, "G_5", 2, 6, "2^2,4,6", 1, t(f(6, (0, -1)), f(12, (6, "a1"), 0)), False),
    (13, D, "G_5", 2, 18, "2,4,18", 0, t(f(18, (0, -1))), False),
    (14, D, "D_8", 2, 2, "2^6,4", 4,
     t(X, f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0), f(4, (2, "a4"), 0)), False),
    (15, D, "D_16", 2, 4, "2^4,8", 2, t(X, f(8, (4, "a1"), 0), f(8, (4, "a2"), 0)), False),
    (16, D, "D_32", 2, 8, "2^3,16", 1, t(X, f(16, (8, "a1"), 0)), False),
    (17, D, "G_9", 2, 3, "2^2,3,4^2", 2,
     t(f(6, (0, -1)), f(6, (3, "a1"), 0), f(6, (3, "a2"), 0)), False),
    (18, D, "G_8", 2, 16, "2,4,32", 0, t(X, f(16, (0, -1))), False),
    (19, D, "G_9", 2, 2, "2^3,4^3", 3,
     t(X, f(4, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0)), False),
    (20, D, "G_9", 2, 4, "2,4^2,8", 1, t(X, f(8, (0, -1)), f(8, (4, "a1"), 0)), False),
    (21, A4, "K", 2, 0, "2,3^2,4", 1, t(X, f(4, (0, -1)), F1), False),
    (22, S4, "G_22", 2, 0, "3,4,8", 0,
     t(X, f(4, (0, -1)), f(12, (8, -33), (4, -33), 0)), False),
)


def _genus9():
    return (
    (1, C, "V_4", 2, 2, "2^12", 9, t(spread(20, 2, 9)), True),
    (2, C, "C_2 × C_4", 2, 4, "2^5,4^2", 4, t(spread(20, 4, 4)), False),
    (3, C, "C_2 × C_5", 2, 5, "2^4,5^2", 3, t(spread(20, 5, 3)), True),
    (4, C, "C_2 × C_4", 4, 2, "2^2,4^4", 3, t(spread(8, 2, 3)), True),
    (5, C, "C_38", 2, 19, "2,19,38", 0, t(f(19, 0)), False),
    (6, C, "C_6", 3, 2, "2,3^5,6", 4, t(spread(10, 2, 4)), False),
    (7, C, "C_15", 3, 5, "3^2,5,15", 1, t(f(10, (5, "a1"), 0)), False),
    (8, C, "C_30", 3, 10, "3,10^2", 0, t(f(10, 0)), False),
    (9, C, "C_28", 4, 7, "4,7^2", 0, t(f(7, 0)), False),
    (10, C, "C_14", 7, 2, "2,7^2,14", 1, t(f(4, (2, "a1"), 0)), False),
    (11, C, "C_28", 7, 4, "4^2,7", 0, t(f(4, 0)), False),
    (12, C, "C_30", 10, 3, "3^2,10", 0, t(f(3, 0)), False),
    (13, C, "C_38", 19, 2, "2^2,19", 0, t(f(2, 0)), False),
    (14, C, "C_2", 2, 1, "2^20", 17, t(X, spread(18, 1, 17)), True),
    (15, C, "C_4", 2, 2, "2^9,4^2", 8, t(X, spread(18, 2, 8)), False),
    (16, C, "C_6", 2, 3, "2^6,6^2", 5, t(X, spread(18, 3, 5)), True),
    (17, C, "C_12", 2, 6, "2^3,12^2", 2, t(X, spread(18, 6, 2)), False),
    (18, C, "C_3", 3, 1, "3^11", 8, t(X, spread(9, 1, 8)), False),
    (19, C, "C_9", 3, 3, "3^3,9^2", 2, t(X, f(9, (6, "a2"), (3, "a1"), 0)), False),
    (20, C, "C_4", 4, 1, "4^8", 5, t(X, spread(6, 1, 5)), True),
    (21, C, "C_8", 4, 2, "4^3,8^2", 2, t(X, f(6, (4, "a2"), (2, "a1"), 0)), False),
    (22, C, "C_7", 7, 1, "7^5", 2, t(X, f(3, (1, "a1"), (2, "a2"), 0)), False),
    (23, D, "V_4 × C_2", 2, 2, "2^8", 5,
     t(f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0),
       f(4, (2, "a4"), 0), f(4, (2, "a5"), 0)), False),
    (24, D, "D_10 × C_2", 2, 5, "2^4,5", 2, t(f(10, (5, "a1"), 0), f(10, (5, "a2"), 0)), False),
    (25, D, "D_20 × C_2", 2, 10, "2^3,10", 1, t(f(20, (10, "a1"), 0)), False),
    (26, D, "V_4 × C_4", 4, 2, "2^3,4^2", 2, t(f(4, (2, "a1"), 0), f(4, (2, "a2"), 0)), False),
    (27, D, "D_8 × C_4", 4, 4, "2^2,4^2", 1, t(f(8, (4, "a1"), 0)), False),
    (28, D, "G_5", 2, 4, "2^3,4^2", 2,
     t(f(4, (0, -1)), f(8, (4, "a1"), 0), f(8, (4, "a2"), 0)), False),
    (29, D, "G_5", 2, 20, "2,4,20", 0, t(f(20, (0, -1))), False),
    (30, D, "G_5", 4, 8, "2,8^2", 0, t(f(8, (0, -1))), False),
    (31, D, "D_6 × C_2", 2, 3, "2^5,6", 3,
     t(X, f(6, (3, "a1"), 0), f(6, (3, "a2"), 0), f(6, (3, "a3"), 0)), False),
    (32, D, "D_18 × C_2", 2, 9, "2^3,18", 1, t(X, f(18, (9, "a1"), 0)), False),
    (33, D, "D_6 × C_4", 4, 3, "2^2,4,12", 1, t(X, f(6, (3, "a1"), 0)), False),
    (34, D, "G_7", 2, 2, "2^5,4^2", 4,
     t(f(4, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0),
       f(4, (2, "a3"), 0), f(4, (2, "a4"), 0)), False),
    (35, D, "G_9", 2, 5, "2,4^2,5", 1, t(f(10, (0, -1)), f(10, (5, "a1"), 0)), False),
    (36, D, "G_7", 4, 2, "2,4,8^2", 1, t(f(4, (0, -1)), f(4, (2, "a1"), 0)), False),
    (37, D, "G_8", 2, 2, "2^5,4^2", 4,
     t(X, f(2, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0),
       f(4, (2, "a3"), 0), f(4, (2, "a4"), 0)), False),
    (38, D, "G_8", 2, 6, "2^2,4,12", 1, t(X, f(6, (0, -1)), f(12, (6, "a1"), 0)), False),
    (39, D, "G_8", 2, 18, "2,4,36", 0, t(X, f(18, (0, -1))), False),
    (40, D, "D_6 × C_3", 3, 3, "2,3,6,9", 1, t(X, f(3, (0, -1)), f(6, (3, "a1"), 0)), False),
    (41, D, "D_18 × C_3", 3, 9, "2,6,27", 0, t(X, f(9, (0, -1))), False),
    (42, D, "G_8", 4, 2, "2,4,8^2", 1, t(X, f(2, (0, -1)), f(4, (2, "a1"), 0)), False),
    (43, D, "G_8", 4, 6, "2,8,24", 0, t(X, f(6, (0, -1))), False),
    (44, D, "D_6 × C_7", 7, 3, "2,14,21", 0, t(X, f(3, (0, -1))), False),
    (45, D, "G_8", 10, 2, "2,20^2", 0, t(X, f(2, (0, -1))), False),
    (46, D, "G_9", 2, 3, "2^2,4^2,6", 2,
     t(X, f(6, (0, -1)), f(6, (3, "a1"), 0), f(6, (3, "a2"), 0)), False),
    (47, A4, "K", 2, 0, "2^2,6^2", 1, t(f(8, (4, 14), 0), F1), False),
    (48, S4, "G_17", 4, 0, "2,4,12", 0, t(f(8, (4, 14), 0)), False),
    (49, S4, "G_21", 2, 0, "4^2,6", 0,
     t(f(8, (4, 14), 0), f(12, (8, -33), (4, -33), 0)), False),
    (50, A5, "", 2, None, "2,5,6", 0,
     t(f(20, (15, -228), (10, 494), (5, 228), 0)), False),
)


def _genus10():
    return (
    (1, C, "V_4", 2, 2, "2^13", 10, t(spread(22, 2, 10)), False),
    (2, C, "C_2 × C_3", 3, 2, "2^2,3^6", 5, t(spread(12, 2, 5)), True),
    (3, C, "C_3^2", 3, 3, "3^6", 3, t(spread(12, 3, 3)), True),
    (4, C, "C_3 × C_4", 3, 4, "3^3,4^2", 2, t(spread(12, 4, 2)), False),
    (5, C, "C_2 × C_6", 6, 2, "2^2,6^3", 2, t(spread(6, 2, 2)), False),
    (6, C, "C_6", 2, 3, "2^7,3,6", 6, t(spread(21, 3, 6)), False),
    (7, C, "C_14", 2, 7, "2^3,7,14", 2, t(f(21, (7, "a1"), (14, "a2"), 0)), False),
    (8, C, "C_42", 2, 21, "2,4,21", 0, t(f(21, 0)), False),
    (9, C, "C_33", 3, 11, "3,11^2", 0, t(f(11, 0)), False),
    (10, C, "C_10", 5, 2, "2,5^3,10", 2, t(f(6, (4, "a2"), (2, "a1"), 0)), False),
    (11, C, "C_15", 5, 3, "3,5^2,15", 1, t(f(6, (3, "a1"), 0)), False),
    (12, C, "C_30", 5, 6, "5,6^2", 0, t(f(6, 0)), False),
    (13, C, "C_30", 6, 5, "5^2,6", 0, t(f(5, 0)), False),
    (14, C, "C_33", 11, 3, "3^2,11", 0, t(f(3, 0)), False),
    (15, C, "C_42", 21, 2, "2,21,42", 0, t(f(2, 0)), False),
    (16, C, "C_2", 2, 1, "2^22", 19, t(X, spread(20, 1, 19)), True),
    (17, C, "C_4", 2, 2, "2^10,4^2", 9, t(X, spread(20, 2, 9)), True),
    (18, C, "C_8", 2, 4, "2^5,8^2", 4, t(X, spread(20, 4, 4)), False),
    (19, C, "C_10", 2, 5, "2^4,10^2", 3, t(X, spread(20, 5, 3)), True),
    (20, C, "C_3", 3, 1, "3^12", 9, t(X, spread(10, 1, 9)), True),
    (21, C, "C_6", 3, 2, "3^5,6^2", 4, t(X, spread(10, 2, 4)), False),
    (22, C, "C_5", 5, 1, "5^7", 4, t(X, spread(5, 1, 4)), False),
    (23, C, "C_6", 6, 1, "6^6", 3, t(X, spread(4, 1, 3)), True),
    (24, D, "D_22 × C_2", 2, 11, "2^3,11", 1, t(f(22, (11, "a1"), 0)), False),
    (25, D, "V_4 × C_3", 3, 2, "2^3,3^3", 3,
     t(f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0)), False),
    (26, D, "D_6 × C_3", 3, 3, "2^2,3^3", 2, t(f(6, (3, "a1"), 0), f(6, (3, "a2"), 0)), False),
    (27, D, "D_12 × C_3", 3, 6, "2^2,3,6", 1, t(f(12, (6, "a1"), 0)), False),
    (28, D, "D_6 × C_6", 6, 3, "2^2,3,6", 1, t(f(6, (3, "a1"), 0)), False),
    (29, D, "G_5", 2, 2, "2^7,4", 5,
     t(f(2, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0),
       f(4, (2, "a3"), 0), f(4, (2, "a4"), 0), f(4, (2, "a5"), 0)), False),
    (30, D, "G_5", 2, 22, "2,4,22", 0, t(f(22, (0, -1))), False),
    (31, D, "D_8 × C_3", 3, 4, "2,3,4,6", 1, t(f(4, (0, -1)), f(8, (4, "a1"), 0)), False),
    (32, D, "D_24 × C_3", 3, 12, "2,6,12", 0, t(f(12, (0, -1))), False),
    (33, D, "G_5", 6, 2, "2^2,6,12", 1, t(f(2, (0, -1)), f(4, (2, "a1"), 0)), False),
    (34, D, "G_5", 6, 6, "2,6,12", 0, t(f(6, (0, -1))), False),
    (35, D, "D_8", 2, 2, "2^7,4", 5,
     t(X, f(4, (2, "a1"), 0), f(4, (2, "a2"), 0), f(4, (2, "a3"), 0),
       f(4, (2, "a4"), 0), f(4, (2, "a5"), 0)), False),
    (36, D, "D_10 × C_2", 2, 5, "2^4,10", 2, t(X, f(10, (5, "a1"), 0), f(10, (5, "a2"), 0)), False),
    (37, D, "D_40", 2, 10, "2^3,20", 1, t(X, f(20, (10, "a1"), 0)), False),
    (38, D, "D_10 × C_3", 3, 5, "2^2,3,15", 1, t(X, f(10, (5, "a1"), 0)), False),
    (39, D, "D_24", 6, 2, "2^2,6,12", 1, t(X, f(4, (2, "a1"), 0)), False),
    (40, D, "V_4 × C_3", 3, 2, "2,3^2,6^2", 2,
     t(f(4, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0)), False),
    (41, D, "D_6 × C_3", 3, 3, "3^2,6^2", 1, t(f(6, (0, -1)), f(6, (3, "a1"), 0)), False),
    (42, D, "G_8", 2, 4, "2^3,4,8", 2,
     t(X, f(4, (0, -1)), f(8, (4, "a1"), 0), f(8, (4, "a2"), 0)), False),
    (43, D, "G_8", 2, 20, "2,4,40", 0, t(X, f(20, (0, -1))), False),
    (44, D, "V_4 × C_3", 3, 2, "2,3^2,6^2", 2,
     t(X, f(2, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0)), False),
    (45, D, "D_20 × C_3", 3, 10, "2,6,30", 0, t(X, f(10, (0, -1))), False),
    (46, D, "D_10 × C_5", 5, 5, "2,10,25", 0, t(X, f(5, (0, -1))), False),
    (47, D, "G_8", 6, 4, "2,12,24", 0, t(X, f(4, (0, -1))), False),
    (48, D, "V_4 × C_11", 11, 2, "2,22^2", 0, t(X, f(2, (0, -1))), False),
    (49, D, "G_9", 2, 2, "2^4,4^3", 4,
     t(X, f(4, (0, -1)), f(4, (2, "a1"), 0), f(4, (2, "a2"), 0),
       f(4, (2, "a3"), 0), f(4, (2, "a4"), 0)), False),
    (50, D, "G_9", 2, 5, "2,4^2,10", 1, t(X, f(10, (0, -1)), f(10, (5, "a1"), 0)), False),
    (51, A4, "", 3, 0, "2,3^3", 1, t(F1), False),
    (52, A4, "", 2, 0, "2,3,4,6", 1,
     t(X, f(4, (0, -1)), f(4, (2, ("sqrt", 2)), 0), F1), False),
    (53, S4, "G_18", 6, 0, "2,3,24", 0, t(X, f(4, (0, -1))), False),
    (54, S4, "S_4 × C_3", 3, 0, "3,4,6", 0, t(f(12, (8, -33), (4, -33), 0)), False),
    (55, A5, "A_5 × C_3", 3, 0, "2,3,15", 0, t(X, f(10, (5, 11), (0, -1))), False),
)


_TABLES = {3: _genus3, 4: _genus4, 5: _genus5, 6: _genus6,
           7: _genus7, 8: _genus8, 9: _genus9, 10: _genus10}

GENERA = tuple(_TABLES)


@cache
def genus_table(genus: int) -> tuple:
    """The rows of one genus table, built on first read."""
    return _TABLES[genus]()


# ---------------------------------------------------------------------------
# Named zero-dimensional curves mentioned alongside the genus-3/4 tables
# (supplementary; not part of the 224 rows).
# ---------------------------------------------------------------------------

# (genus, level, group label as given, template, note)
@cache
def named_curves() -> tuple:
    """The named curves, built on first read."""
    return (
    (3, 4, "A_4", t(f(4, (2, 2), (0, Rational(1, 3)))), "reduced group A_4"),
    (3, 2, "S_4", t(f(8, (4, 14), 0)), "reduced group S_4"),
    (3, 4, "G_5", t(f(4, (0, -1))), "full group named G_5"),
    (3, 3, "D_6 × C_3", t(X, f(3, (0, -1))), "full group D_6 x C_3"),
    (3, 4, "G_8", t(X, f(2, (0, -1))), "full group named G_8"),
    (3, 2, "C_14", t(f(7, 0)), "cyclic full group"),
    (3, 3, "C_12", t(f(4, 0)), "cyclic full group"),
    (4, 3, "S_4", t(X, f(4, (0, -1))), "reduced group S_4"),
    (4, 3, "D_12 × C_3", t(f(6, (0, -1))), "dihedral reduced group"),
    (4, 3, "D_8 × C_3", t(X, f(4, (0, -1))), "dihedral reduced group"),
    (4, 5, "D_4 × C_5", t(X, f(2, (0, -1))), "dihedral reduced group"),
    (4, 2, "C_18", t(f(9, 0)), "two signatures give the same curve"),
    (4, 3, "C_15", t(f(5, 0)), "two signatures give the same curve"),
)

# ---------------------------------------------------------------------------
# Documented deviations of printed rows from what their other columns force.
# ---------------------------------------------------------------------------

class Erratum(namedtuple("Erratum", "genus number code printed derived why",
                         defaults=("",))):
    """One deviation of a printed row from what the row forces.

    ``code`` names the ``verify`` check the entry explains, or is ``equation``
    or ``cosmetic`` for a defect no check sees; ``derived`` is what that check
    derives (effective signature, forced group order, verdict).  A
    ``signature`` entry without a ``why`` is a one-edit misprint, kept verbatim
    above and repaired at run time; one with a ``why`` is a correction beyond
    single-edit repair, which ``dataset.repair_signature`` applies.
    """

    __slots__ = ()


ERRATA: tuple[Erratum, ...] = (
    Erratum(5, 5, "signature", "2,22,22", "2,11,22"),
    Erratum(9, 8, "signature", "3,10^2", "3,10,30"),
    Erratum(9, 9, "signature", "4,7^2", "4,7,28"),
    Erratum(9, 11, "signature", "4^2,7", "4,7,28"),
    Erratum(9, 12, "signature", "3^2,10", "3,10,30"),
    Erratum(9, 13, "signature", "2^2,19", "2,19,38"),
    Erratum(10, 8, "signature", "2,4,21", "2,21,42"),
    Erratum(10, 9, "signature", "3,11^2", "3,11,33"),
    Erratum(10, 12, "signature", "5,6^2", "5,6,30"),
    Erratum(10, 13, "signature", "5^2,6", "5,6,30"),
    Erratum(10, 14, "signature", "3^2,11", "3,11,33"),
    Erratum(6, 11, "signature", "2^3,3^2,6^2", "2^4,6^2",
            "printed signature 2^3,3^2,6^2 balances neither the genus relation "
            "(quotient genus -5/12) nor the printed dimension (r=7 gives 4, table "
            "says 3); the equation x(x^12+a_1x^3+a_2x^6+a_3x^9+1) has 14 branch "
            "points, the order-3 rotation fixes exactly 0 and infinity (both "
            "branch, cone order 6) and the other 12 roots fall in 4 orbits of 3 "
            "(cone order 2), so the signature is 2^4,6^2"),
    Erratum(6, 11, "classification", "definable", "possibly_not_definable",
            "with the corrected signature 2^4,6^2 every cone order has even "
            "multiplicity, the reduced group C_3 is cyclic and the locus is "
            "3-dimensional, so no sufficiency criterion applies; the row "
            "belongs with the highlighted genus-6 cases {9,10,13,15} "
            "(compare the highlighted analogues: genus 5 nr. 2, genus 8 "
            "nr. 2, genus 9 nr. 16)"),
    Erratum(6, 20, "label", "D_10 × C_2", "50",
            "printed D_10 x C_2 has order 20, but level 5 with reduced "
            "dihedral order 10 forces 50 (and 50 balances the genus "
            "relation where 20 does not); D_10 x C_5 was presumably meant"),
    # Stored with the corrected equation; the printed text is kept for the record.
    Erratum(6, 13, "equation", "x^6+sum_{i=1..5} a_i x^i+1", "",
            "degree 6 at level 3 gives genus 4; the leading x factor "
            "restores 8 branch points and genus 6"),
    Erratum(6, 14, "equation", "x^6+a_2x^4+a_1x^2+1", "",
            "degree 6 at level 3 gives genus 4; leading x factor restores "
            "genus 6"),
    Erratum(6, 15, "equation", "x^4+sum_{i=1..3} a_i x^i+1", "",
            "degree 4 at level 4 gives genus 3; leading x factor restores "
            "genus 6"),
    Erratum(6, 16, "equation", "x^3+a_1x+a_2x^2+1", "",
            "degree 3 at level 5 gives genus 4; leading x factor restores "
            "genus 6"),
    Erratum(6, 22, "equation", "x(x^4+a_1x^2+1)(x^4+a_2x^2+1)", "",
            "printed form is the m=2 shape and gives genus 4; the m=3 row "
            "(signature 2^4,6, dimension 2) forces degree-6 factors "
            "symmetric under the order-3 rotation, as in the genus-9 "
            "analogue nr. 31"),
    Erratum(7, 13, "equation", "x^7+sum_{i=1..6} a_i x^i+1", "",
            "degree 7 at level 3 gives genus 6; leading x factor restores "
            "genus 7"),
    Erratum(8, 19, "equation", "x(x^6+a_1x^3+1)(x^6+a_2x^3+1)(x^6+a_3x^3+1)", "",
            "printed form duplicates the genus-9 nr. 31 family (genus 9, "
            "20 branch points); this row (m=2, signature 2^3,4^3) forces "
            "x(x^4-1) times three even quartics: branch set {0,inf}, "
            "{±1}, {±i} and 12 generic points, as in the genus-6 nr. 33 "
            "and genus-10 nr. 49 analogues"),
    Erratum(9, 18, "equation", "x^9+sum_{i=1..8} a_i x^i+1", "",
            "degree 9 at level 3 gives genus 7; leading x factor restores "
            "genus 9"),
    Erratum(9, 19, "equation", "x^9+a_2x^6+a_1x^3+1", "",
            "degree 9 at level 3 gives genus 7; leading x factor restores "
            "genus 9"),
    Erratum(9, 20, "equation", "x^6+sum_{i=1..5} a_i x^i+1", "",
            "level 4 with degree 6 admits no normal form (gcd 2); leading "
            "x factor gives 8 branch points and genus 9"),
    Erratum(9, 21, "equation", "x^6+a_2x^4+a_1x^2+1", "",
            "level 4 with degree 6 admits no normal form (gcd 2); leading "
            "x factor restores genus 9"),
    Erratum(9, 22, "equation", "x^3+a_1x+a_2x^2+1", "",
            "degree 3 at level 7 gives genus 6; leading x factor restores "
            "genus 9"),
    Erratum(10, 20, "equation", "x^10+sum_{i=1..9} a_i x^i+1", "",
            "degree 10 at level 3 gives genus 9; leading x factor "
            "restores genus 10"),
    Erratum(10, 21, "equation", "x^10+a_1x^2+a_2x^4+a_3x^6+a_4x^8+1", "",
            "degree 10 at level 3 gives genus 9; leading x factor "
            "restores genus 10"),
    Erratum(10, 22, "equation", "x^5+sum_{i=1..4} a_i x^i+1", "",
            "degree 5 at level 5 gives genus 6; leading x factor "
            "restores genus 10"),
    Erratum(10, 23, "equation", "x^4+a_1x+a_2x^2a_3x^3+1", "",
            "degree 4 at level 6 admits no normal form (gcd 2); leading "
            "x factor restores genus 10 (a + sign between the a_2 and "
            "a_3 terms is also missing in print)"),
    Erratum(10, 40, "equation", "(x^2-1)(x^4+a_1x^2+1)(x^4+a_2x^2+1)", "",
            "degree 10 at level 3 gives genus 9; the signature "
            "2,3^2,6^2 puts two full special orbits {±1} and {±i} in "
            "the branch set, so the first factor must be x^4-1 "
            "(compare nr. 44, the variant branched at 0 and infinity)"),
    # Purely typographic defects normalized during transcription.
    Erratum(6, 17, "cosmetic", "", "", "stray closing parenthesis after the polynomial"),
    Erratum(7, 4, "cosmetic", "", "", "summation coefficient printed a_1, clearly a_i "
            "(dimension 4 needs four parameters)"),
    Erratum(8, 6, "cosmetic", "", "", "summation bound printed without braces (i = 1..15)"),
    Erratum(9, 23, "cosmetic", "", "", "extra closing parenthesis after the product"),
    Erratum(10, 26, "cosmetic", "", "", "trailing comma inside the signature cell"),
    Erratum(10, 27, "cosmetic", "", "", "unbalanced opening parenthesis before the polynomial"),
)

# Each row's entries by code, for lookup; no row has two entries with one code.
ERRATA_BY_ROW: dict[tuple[int, int], dict[str, Erratum]] = {}
for _entry in ERRATA:
    ERRATA_BY_ROW.setdefault(_entry[:2], {})[_entry.code] = _entry

# The genus-10 prose tally vs. what the table contains.
PROSE_LEVEL_TALLY: dict[int, dict[int, int]] = {
    10: {2: 18, 3: 18, 5: 4},
}

"""Cone-point signatures of genus-zero group quotients.

A signature records the branching of the quotient map X -> X/G of a curve by a
finite automorphism group: the multiset of cone-point orders.  The text form is
compact, e.g. ``2^5,4^2`` for five cone points of order 2 and two of order 4;
``render(parse(s)) == s`` for canonical text.

The module solves the Riemann--Hurwitz relation

    2(g - 1) = 2|G|(g0 - 1) + |G| * sum(1 - 1/c_i)

exactly (in integers over the lcm of the cone orders, one
:class:`~superelliptic.arith.Rational` at the end), computes the dimension of
the corresponding locus in moduli (3*g0 - 3 + r), tests the odd-multiplicity
property, and repairs misprinted signatures: given a genus and group order,
it appends one cone order or else replaces one, solving for the order that
gives a genus-zero quotient.  All consistent single-edit repairs are
reported; a deterministic preference picks one when several exist.  The
residue an :class:`InconsistentSignatureError` carries is a ``Rational``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._quote import quote
from .arith import Rational

__all__ = [
    "Signature",
    "InconsistentSignatureError",
    "quotient_genus",
    "moduli_dimension",
    "complete_signature",
    "SignatureRepair",
]


class Signature(namedtuple("Signature", "entries")):
    """A multiset of cone-point orders, stored as sorted (order, multiplicity)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace re-runs the checks

    def __new__(cls, entries: tuple[tuple[int, int], ...]) -> "Signature":
        merged: dict[int, int] = {}
        for order, mult in entries:
            if order < 2:
                raise ValueError(f"cone order must be at least 2, got {order}")
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            merged[order] = merged.get(order, 0) + mult
        return super().__new__(cls, tuple(sorted(merged.items())))

    # -- construction ------------------------------------------------------

    @classmethod
    def of(cls, *orders: int) -> "Signature":
        """Signature from an explicit list of cone orders, e.g. of(2, 3, 10)."""
        return cls(tuple((o, 1) for o in orders))

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse the text form, e.g. ``2^5,4^2`` (whitespace tolerated)."""
        parts = [p.strip() for p in text.split(",")]
        if parts == [""]:
            raise ValueError("empty signature text")
        entries = []
        for part in parts:
            # digits, then optionally ^ and digits; isdecimal() is Unicode's class Nd
            order, caret, mult = part.partition("^")
            if not order.isdecimal() or caret and not mult.isdecimal():
                raise ValueError(f"bad signature entry {quote(part)} in {quote(text)}")
            entries.append((int(order), int(mult) if caret else 1))
        return cls(tuple(entries))

    # -- views ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form; inverse of :meth:`parse` on canonical input."""
        chunks = []
        for order, mult in self.entries:
            chunks.append(f"{order}^{mult}" if mult > 1 else f"{order}")
        return ",".join(chunks)

    @property
    def orders(self) -> tuple[int, ...]:
        """All cone orders with repetition, ascending."""
        out: list[int] = []
        for order, mult in self.entries:
            out.extend([order] * mult)
        return tuple(out)

    @property
    def point_count(self) -> int:
        """r, the number of cone points."""
        return sum(mult for _, mult in self.entries)

    @property
    def has_odd_multiplicity(self) -> bool:
        """True when some cone order occurs an odd number of times."""
        return any(mult % 2 == 1 for _, mult in self.entries)

    def __str__(self) -> str:
        return self.render()


class InconsistentSignatureError(ValueError):
    """Riemann--Hurwitz does not balance; carries the exact rational residue."""

    def __init__(self, message: str, residue: Rational):
        super().__init__(f"{message} (quotient genus would be {residue})")
        self.residue = residue


def _quotient_genus_exact(genus: int, group_order: int, sig: Signature) -> Rational:
    if group_order < 1:
        raise ValueError(f"group order must be positive, got {group_order}")
    if genus < 2:
        raise ValueError(f"curve genus must be at least 2, got {genus}")
    # Over the lcm L of the cone orders, sum(1 - 1/c) = S / L in integers, and
    # g0 = (2(g - 1)L - |G|S) / (2|G|L) + 1.
    lcm = math.lcm(*(order for order, _ in sig.entries))
    s = sum(mult * (lcm - lcm // order) for order, mult in sig.entries)
    return Rational(2 * (genus - 1 + group_order) * lcm - group_order * s,
                    2 * group_order * lcm)


def quotient_genus(genus: int, group_order: int, sig: Signature) -> int:
    """Solve Riemann--Hurwitz for the quotient genus; exact, no rounding.

    Raises :class:`InconsistentSignatureError` when the balance is not a
    non-negative integer; the exception carries the rational residue.
    """
    g0 = _quotient_genus_exact(genus, group_order, sig)
    if g0.denominator != 1 or g0.numerator < 0:
        raise InconsistentSignatureError(
            f"signature {sig} with group order {group_order} "
            f"does not fit a genus-{genus} curve", g0)
    return g0.numerator


def moduli_dimension(g0: int, r: int) -> int:
    """Dimension 3*g0 - 3 + r of the family's locus in moduli space."""
    if g0 < 0:
        raise ValueError(f"quotient genus must be non-negative, got {g0}")
    if r < 0:
        raise ValueError(f"cone point count must be non-negative, got {r}")
    dim = 3 * g0 - 3 + r
    if dim < 0:
        raise ValueError(
            f"a genus-{g0} quotient with {r} cone points bounds no family "
            f"(dimension {dim})")
    return dim


class SignatureRepair(namedtuple("SignatureRepair",
                                 "status effective candidates edit",
                                 defaults=((), None))):
    """Outcome of :func:`complete_signature`.

    status is one of ``consistent`` (no edit needed), ``completed`` (one order
    appended), ``corrected`` (one order replaced), ``unrepairable``, or
    ``manually_corrected`` (set by :func:`superelliptic.dataset.repair_signature`
    from a documented correction, whose reason is in ``edit``).  The signature
    to use downstream is ``effective``: it balances over a genus-0 quotient
    unless the status is ``unrepairable`` (then it is the input itself).
    ``candidates`` holds every consistent single-edit repair; several are ``ambiguous``.
    """

    __slots__ = ()
    ambiguous = property(lambda self: len(self.candidates) > 1)

    @property
    def changed(self) -> bool:
        return self.status in ("completed", "corrected", "manually_corrected")


def complete_signature(genus: int, group_order: int, sig: Signature) -> SignatureRepair:
    """Repair a misprinted signature so that the quotient has genus zero.

    The repair is deliberately narrow, mirroring how these misprints arise:
    append one cone order (a dropped entry), else replace one (a garbled
    digit).  With g0 the printed (rational) quotient genus, a genus-0 quotient
    lacks ramification d = 2*g0, so an appended c solves 1 - 1/c = d and o
    replaced by c solves 1/o - 1/c = d; c counts if it is an integer >= 2
    dividing the group order.  Replacing the largest printed order is
    preferred; all balancing replacements are reported (``ambiguous`` when
    several).  Idempotent: a consistent signature comes back unchanged.
    """
    g0 = _quotient_genus_exact(genus, group_order, sig)
    if g0 == 0:
        return SignatureRepair("consistent", sig)
    num, den = g0.numerator, g0.denominator   # d = 2*g0 = 2*num/den

    def cone_order(top: int, bottom: int) -> int | None:
        # The c with 1/c == top/bottom (bottom > 0), if it is an allowed cone order.
        if top <= 0 or bottom % top:
            return None
        c = bottom // top
        return c if c >= 2 and group_order % c == 0 else None

    c = cone_order(den - 2 * num, den)   # 1/c = 1 - d
    if c is not None:
        chosen = Signature(sig.entries + ((c, 1),))
        return SignatureRepair("completed", chosen, (chosen,), f"appended {c}")

    replaced: list[tuple[str, Signature]] = []
    for old, _ in reversed(sig.entries):  # largest printed order first
        new = cone_order(den - 2 * num * old, old * den)   # 1/c = 1/old - d
        if new is not None:
            rest = list(sig.orders)
            rest.remove(old)
            replaced.append((f"replaced {old} with {new}", Signature.of(*rest, new)))
    if replaced:
        edit, chosen = replaced[0]
        return SignatureRepair("corrected", chosen, tuple(s for _, s in replaced), edit)

    return SignatureRepair("unrepairable", sig)

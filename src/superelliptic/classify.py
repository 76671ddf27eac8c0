"""Decide whether a family's field of moduli must be a field of definition.

Two sufficiency criteria are applied in priority order, reading only the
reduced automorphism group and the effective signature:

1. If the reduced automorphism group is neither trivial nor cyclic, the
   central cyclic subgroup is unique of its kind and the curve descends to its
   field of moduli (unique-subgroup descent criterion).
2. If some cone order appears an odd number of times in the signature, the
   curve is definable over its field of moduli (odd-signature criterion).

Quasiplatonic curves (three cone points) are definable over their field of
moduli (Wolfart); here that fact is covered by criterion 2, since three cone
points give some order an odd multiplicity.

When none applies the honest answer is "possibly not definable": the methods
prove nothing either way, and the published tables highlight exactly these
rows.  A :class:`Classification` stores only the proving :class:`Reason` (a
string), or None for "possibly not definable"; its verdict (the string
"definable" or "possibly_not_definable") and theorem text derive from it.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import ReducedGroup
from .signature import Signature

__all__ = ["Reason", "Classification", "classify", "THEOREM_TEXT"]


class Reason:
    """A proving criterion by name; each is the string the JSON ``reason`` field prints."""

    UNIQUE_SUBGROUP = "unique_subgroup"
    ODD_SIGNATURE = "odd_signature"


THEOREM_TEXT = {
    Reason.UNIQUE_SUBGROUP: "unique-subgroup descent criterion",
    Reason.ODD_SIGNATURE: "odd-signature criterion",
    None: "no applicable sufficiency criterion",
}


class Classification(namedtuple("Classification", "reason")):
    """The criterion that proves definability, or None when none applies."""

    __slots__ = ()
    is_definable = property(lambda self: self.reason is not None)
    verdict = property(lambda self: "definable" if self.is_definable else "possibly_not_definable")
    theorem = property(lambda self: THEOREM_TEXT[self.reason])

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "theorem": self.theorem,
        }


def classify(reduced: ReducedGroup, sig: Signature, _printed_dim=None) -> Classification:
    """Apply the two criteria in priority order.

    ``sig`` must already be the effective (repaired) signature; callers working
    from raw table rows should go through the dataset layer, which performs the
    repairs.  The third parameter is read by nothing: it is kept only for the
    benchmark's layer timing, which still passes the printed dimension.
    """
    if not reduced.is_cyclic_or_trivial:
        return Classification(Reason.UNIQUE_SUBGROUP)
    if sig.has_odd_multiplicity:
        return Classification(Reason.ODD_SIGNATURE)
    return Classification(None)

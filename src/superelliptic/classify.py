"""Decide whether a family's field of moduli must be a field of definition.

Three sufficiency criteria are applied in priority order:

1. If the reduced automorphism group is neither trivial nor cyclic, the
   central cyclic subgroup is unique of its kind and the curve descends to its
   field of moduli (unique-subgroup descent criterion).
2. If some cone order appears an odd number of times in the signature, the
   curve is definable over its field of moduli (odd-signature criterion).
3. If the locus is zero-dimensional the curve is rigid, hence definable
   (quasiplatonic rigidity).  It never decides a row whose dimension matches
   its signature: dimension 0 means r = 3 cone points, an odd count, so
   criterion 2 applies first.  Only a dimension contradicting the signature
   reaches it, and no embedded row does.

When none applies the honest answer is "possibly not definable": the methods
prove nothing either way, and the published tables highlight exactly these
rows.  A :class:`Classification` stores only the proving :class:`Reason`, or
None for "possibly not definable"; its verdict (the string "definable" or
"possibly_not_definable") and theorem text derive from it.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .groups import ReducedGroup
from .signature import Signature

__all__ = ["Reason", "Classification", "classify", "THEOREM_TEXT"]


class Reason(Enum):
    UNIQUE_SUBGROUP = "unique_subgroup"
    ODD_SIGNATURE = "odd_signature"
    QUASIPLATONIC = "quasiplatonic"


THEOREM_TEXT = {
    Reason.UNIQUE_SUBGROUP: "unique-subgroup descent criterion",
    Reason.ODD_SIGNATURE: "odd-signature criterion",
    Reason.QUASIPLATONIC: "quasiplatonic rigidity",
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
            "reason": self.reason.value if self.reason else None,
            "theorem": self.theorem,
        }


def classify(reduced: ReducedGroup, sig: Signature, delta: int) -> Classification:
    """Apply the three criteria in priority order.

    ``sig`` must already be the effective (repaired) signature and ``delta``
    the dimension of the locus; callers working from raw table rows should go
    through the dataset layer, which performs the repairs.
    """
    if not reduced.is_cyclic_or_trivial:
        return Classification(Reason.UNIQUE_SUBGROUP)
    if sig.has_odd_multiplicity:
        return Classification(Reason.ODD_SIGNATURE)
    if delta == 0:
        return Classification(Reason.QUASIPLATONIC)
    return Classification(None)

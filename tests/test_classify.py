"""Definability verdicts and the priority of the sufficiency criteria."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from superelliptic.classify import THEOREM_TEXT, Classification, Reason, classify
from superelliptic.dataset import classify_record, load_embedded
from superelliptic.groups import ReducedGroup, ReducedKind
from superelliptic.signature import Signature, moduli_dimension


def test_noncyclic_reduced_group_always_suffices() -> None:
    sig = Signature.parse("2^6")        # even multiplicities, positive dim
    for reduced in (ReducedGroup(ReducedKind.DIHEDRAL, 2),
                    ReducedGroup(ReducedKind.TETRAHEDRAL),
                    ReducedGroup(ReducedKind.OCTAHEDRAL),
                    ReducedGroup(ReducedKind.ICOSAHEDRAL)):
        result = classify(reduced, sig, 3)
        assert result.verdict == "definable"
        assert result.reason is Reason.UNIQUE_SUBGROUP


def test_odd_multiplicity_suffices_for_cyclic() -> None:
    result = classify(ReducedGroup(ReducedKind.CYCLIC, 2), Signature.parse("2^3,4^2"), 2)
    assert result.verdict == "definable"
    assert result.reason is Reason.ODD_SIGNATURE


def test_rigid_family_suffices() -> None:
    result = classify(ReducedGroup(ReducedKind.CYCLIC, 11), Signature.parse("2^2,11^2"), 0)
    assert result.verdict == "definable"
    assert result.reason is Reason.QUASIPLATONIC


def test_priority_group_beats_signature_beats_rigidity() -> None:
    odd = Signature.parse("2,3^2,6")
    # a dihedral reduced group wins even when the signature is odd and rigid
    dihedral = ReducedGroup(ReducedKind.DIHEDRAL, 3)
    assert classify(dihedral, odd, 0).reason is Reason.UNIQUE_SUBGROUP
    # cyclic + odd signature wins over rigidity
    cyclic = ReducedGroup(ReducedKind.CYCLIC, 2)
    assert classify(cyclic, odd, 0).reason is Reason.ODD_SIGNATURE


@given(st.lists(st.integers(2, 60), min_size=3, max_size=9), st.integers(1, 12))
def test_quasiplatonic_never_decides_a_dimension_that_matches_the_signature(orders,
                                                                          m) -> None:
    # dimension 0 over a genus-0 quotient means r = 3 cone points, and an odd
    # number of them gives some order an odd multiplicity: criterion 2 decides first
    sig = Signature.of(*orders)
    dim = moduli_dimension(0, sig.point_count)
    assert dim > 0 or sig.has_odd_multiplicity
    reduced = ReducedGroup(ReducedKind.CYCLIC, m)
    assert classify(reduced, sig, dim).reason is not Reason.QUASIPLATONIC


def test_no_embedded_row_is_decided_by_quasiplatonic_rigidity() -> None:
    reasons = [classify_record(r).reason for r in load_embedded()]
    assert reasons.count(Reason.UNIQUE_SUBGROUP) == 125
    assert reasons.count(Reason.ODD_SIGNATURE) == 66
    assert reasons.count(None) == 33
    assert Reason.QUASIPLATONIC not in reasons


def test_no_criterion_applies() -> None:
    result = classify(ReducedGroup(ReducedKind.CYCLIC, 1), Signature.parse("2^8"), 5)
    assert result.verdict == "possibly_not_definable"
    assert result.reason is None
    assert not result.is_definable


def test_json_shapes() -> None:
    # all four outcomes; no CLI call reaches quasiplatonic, so no digest pins its text
    cyclic = ReducedGroup(ReducedKind.CYCLIC, 2)
    outcomes = [
        (classify(ReducedGroup(ReducedKind.DIHEDRAL, 2), Signature.parse("2^6"), 3),
         "definable", "unique_subgroup", "unique-subgroup descent criterion"),
        (classify(cyclic, Signature.parse("2^3,4^2"), 2),
         "definable", "odd_signature", "odd-signature criterion"),
        (classify(cyclic, Signature.parse("2^2,4^2"), 0),
         "definable", "quasiplatonic", "quasiplatonic rigidity"),
        (classify(cyclic, Signature.parse("2^6"), 3),
         "possibly_not_definable", None, "no applicable sufficiency criterion"),
    ]
    for result, verdict, reason, theorem in outcomes:
        assert result.to_json_dict() == {"verdict": verdict, "reason": reason,
                                         "theorem": theorem}
        assert result.theorem == theorem and result.verdict == verdict
        assert result.is_definable is (reason is not None)


def test_a_classification_is_its_reason() -> None:
    assert Classification._fields == ("reason",)
    for reason in (*Reason, None):
        result = Classification(reason)
        assert result.theorem == THEOREM_TEXT[reason]
        assert result.verdict == ("definable" if reason else "possibly_not_definable")

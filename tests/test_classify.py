"""Definability verdicts and the priority of the sufficiency criteria."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from superelliptic.classify import THEOREM_TEXT, Classification, Reason, classify
from superelliptic.dataset import classify_record, load_embedded
from superelliptic.groups import ReducedGroup, ReducedKind
from superelliptic.signature import Signature


def test_noncyclic_reduced_group_always_suffices() -> None:
    sig = Signature.parse("2^6")        # even multiplicities, positive dim
    for reduced in (ReducedGroup(ReducedKind.DIHEDRAL, 2),
                    ReducedGroup(ReducedKind.TETRAHEDRAL),
                    ReducedGroup(ReducedKind.OCTAHEDRAL),
                    ReducedGroup(ReducedKind.ICOSAHEDRAL)):
        result = classify(reduced, sig)
        assert result.verdict == "definable"
        assert result.reason is Reason.UNIQUE_SUBGROUP


def test_odd_multiplicity_suffices_for_cyclic() -> None:
    result = classify(ReducedGroup(ReducedKind.CYCLIC, 2), Signature.parse("2^3,4^2"))
    assert result.verdict == "definable"
    assert result.reason is Reason.ODD_SIGNATURE


def test_priority_group_beats_signature_beats_rigidity() -> None:
    # rigidity is no criterion of its own: a rigid (three-point) signature is
    # decided by the reduced group first, then by its odd multiplicity
    rigid = Signature.parse("2,3,6")
    dihedral = ReducedGroup(ReducedKind.DIHEDRAL, 3)
    assert classify(dihedral, rigid).reason is Reason.UNIQUE_SUBGROUP
    cyclic = ReducedGroup(ReducedKind.CYCLIC, 2)
    assert classify(cyclic, rigid).reason is Reason.ODD_SIGNATURE


@given(st.lists(st.integers(2, 60), min_size=3, max_size=3), st.integers(1, 12))
def test_three_cone_points_are_decided_by_the_odd_signature(orders, m) -> None:
    # a quasiplatonic curve (three cone points) is definable over its field of
    # moduli (Wolfart); three is an odd count, so some order has odd multiplicity
    sig = Signature.of(*orders)
    assert sig.point_count == 3
    # m = 1 is the trivial reduced group
    assert classify(ReducedGroup(ReducedKind.CYCLIC, m), sig).reason is Reason.ODD_SIGNATURE


def test_no_embedded_row_is_decided_by_quasiplatonic_rigidity() -> None:
    reasons = [classify_record(r).reason for r in load_embedded()]
    assert reasons.count(Reason.UNIQUE_SUBGROUP) == 125
    assert reasons.count(Reason.ODD_SIGNATURE) == 66
    assert reasons.count(None) == 33
    constants = {v for k, v in vars(Reason).items() if not k.startswith("_")}
    assert constants == {"unique_subgroup", "odd_signature"} and len(THEOREM_TEXT) == 3


def test_no_criterion_applies() -> None:
    result = classify(ReducedGroup(ReducedKind.CYCLIC, 1), Signature.parse("2^8"))
    assert result.verdict == "possibly_not_definable"
    assert result.reason is None
    assert not result.is_definable


def test_json_shapes() -> None:
    # all three outcomes
    cyclic = ReducedGroup(ReducedKind.CYCLIC, 2)
    outcomes = [
        (classify(ReducedGroup(ReducedKind.DIHEDRAL, 2), Signature.parse("2^6")),
         "definable", "unique_subgroup", "unique-subgroup descent criterion"),
        (classify(cyclic, Signature.parse("2^3,4^2")),
         "definable", "odd_signature", "odd-signature criterion"),
        (classify(cyclic, Signature.parse("2^6")),
         "possibly_not_definable", None, "no applicable sufficiency criterion"),
    ]
    for result, verdict, reason, theorem in outcomes:
        assert result.to_json_dict() == {"verdict": verdict, "reason": reason,
                                         "theorem": theorem}
        assert result.theorem == theorem and result.verdict == verdict
        assert result.is_definable is (reason is not None)


def test_a_classification_is_its_reason() -> None:
    assert Classification._fields == ("reason",)
    for reason in (Reason.UNIQUE_SUBGROUP, Reason.ODD_SIGNATURE, None):
        result = Classification(reason)
        assert result.theorem == THEOREM_TEXT[reason]
        assert result.verdict == ("definable" if reason else "possibly_not_definable")


def test_a_reason_is_the_string_the_json_prints() -> None:
    assert Reason.UNIQUE_SUBGROUP == "unique_subgroup"
    assert Reason.ODD_SIGNATURE == "odd_signature"
    for row in load_embedded():
        result = classify_record(row)
        assert result.reason is None or type(result.reason) is str
        assert result.to_json_dict()["reason"] == result.reason

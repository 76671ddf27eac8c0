"""Classification of superelliptic curve families by definability.

A superelliptic curve of level n is y^n = f(x) with f separable.  For each
genus from 3 to 10 the embedded dataset lists every positive-dimensional
family (plus the rigid ones) by its reduced automorphism group, signature,
locus dimension, and defining equation, and this package re-derives each
column and decides whether the field of moduli is provably a field of
definition for every member of the family.
"""

from __future__ import annotations

from .arith import Poly, QuadNum, is_separable
from .classify import Classification, Reason, classify
from .dataset import (Dataset, FamilyRecord, NamedCurve, classify_record,
                      export_csv, from_json, load_embedded, repair_signature,
                      to_json)
from .family import (EquationTemplate, NonSuperellipticError, ParamCoeff, Term,
                     branch_count, enumerate_levels, genus_of_family,
                     normal_form_admissible, separability_probe)
from .groups import (GroupLabel, LabelError, ReducedGroup, ReducedKind,
                     parse_group_label)
from .signature import (InconsistentSignatureError, Signature, SignatureRepair,
                        complete_signature, moduli_dimension, quotient_genus)
from .verify import Finding, RowResult, VerifyReport, verify_dataset, verify_row

__version__ = "0.1.0"

__all__ = [
    "Classification", "Dataset", "EquationTemplate", "FamilyRecord", "Finding",
    "GroupLabel", "InconsistentSignatureError", "LabelError", "NamedCurve",
    "NonSuperellipticError", "ParamCoeff", "Poly", "QuadNum", "Reason",
    "ReducedGroup", "ReducedKind", "RowResult", "Signature", "SignatureRepair",
    "Term", "VerifyReport", "branch_count", "classify", "classify_record",
    "complete_signature", "enumerate_levels", "export_csv", "from_json",
    "genus_of_family", "is_separable", "load_embedded", "moduli_dimension",
    "normal_form_admissible", "parse_group_label", "quotient_genus",
    "repair_signature", "separability_probe", "to_json", "verify_dataset",
    "verify_row",
]

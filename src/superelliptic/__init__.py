"""Classification of superelliptic curve families by definability.

A superelliptic curve of level n is y^n = f(x) with f separable.  For each
genus from 3 to 10 the embedded dataset lists every positive-dimensional
family (plus the rigid ones) by its reduced automorphism group, signature,
locus dimension, and defining equation, and this package re-derives each
column and decides whether the field of moduli is provably a field of
definition for every member of the family.

Each public name is imported from its module on first access (PEP 562), so
``import superelliptic`` loads no submodule and a CLI call loads only the
modules it runs.
"""

from __future__ import annotations

import sys
from types import ModuleType

__version__ = "0.1.0"

_NAMES = {
    "arith": ("Poly", "QuadNum", "Rational", "is_separable"),
    "classify": ("Classification", "Reason", "classify"),
    "dataset": ("Dataset", "FamilyRecord", "NamedCurve", "classify_record", "export_csv",
                "from_json", "load_embedded", "repair_signature", "to_json"),
    "family": ("EquationTemplate", "NonSuperellipticError", "ParamCoeff", "Term",
               "branch_count", "enumerate_levels", "genus_of_family",
               "normal_form_admissible", "separability_probe"),
    "groups": ("GroupLabel", "LabelError", "ReducedGroup", "ReducedKind",
               "parse_group_label"),
    "signature": ("InconsistentSignatureError", "Signature", "SignatureRepair",
                  "complete_signature", "moduli_dimension", "quotient_genus"),
    "verify": ("Finding", "RowResult", "VerifyReport", "verify_dataset", "verify_row"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """Keeps ``superelliptic.classify`` the function when the module of that name loads.

    The import system binds a submodule on its package when it first loads it,
    which would hide the public name; ``classify`` is the one name both spell.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

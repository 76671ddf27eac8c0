"""Independent re-derivations used to check the program's outputs.

Nothing here imports ``superelliptic``.  The inputs are the printed table as
data (the rows of a dataset JSON export); every derived quantity -- group
orders, the Riemann--Hurwitz balance, the admissible levels of a genus, the
three sufficiency criteria, separability of the probe instantiation -- is
recomputed from the mathematics with the standard library alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# The one printed signature that no single edit repairs, with the signature
# forced by the row's equation: x(x^12+a_1x^3+a_2x^6+a_3x^9+1) under the
# order-3 rotation has 0 and infinity as cone points of order 6 and four free
# orbits of the other 12 roots, so 2^4,6^2 (quotient genus 0, six orbits,
# dimension 3).  It is the one erratum of the published highlighting.
ASSERTED_ERRATA = {(6, 11): "2^4,6^2"}

# Parameter a_i is set to the i-th of these (by sorted index), the fixed
# probe point of the program's separability check.
PROBE_VALUES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97, 101, 103)

# Primes p = 3 (mod 4) with -3 a square mod p (p = 1 mod 3), so that the
# square root is a power of the radicand.
MODULI = ((1 << 61) - 1, (1 << 31) - 1, 1_000_000_087)

DEFINABLE = "definable"
NOT_DEFINABLE = "possibly_not_definable"
UNIQUE_SUBGROUP = "unique_subgroup"
ODD_SIGNATURE = "odd_signature"
QUASIPLATONIC = "quasiplatonic"

_FIXED_REDUCED = {"{1}": 1, "V_4": 4, "A_4": 12, "S_4": 24, "A_5": 60}
_BLOCK_ORDER = {"tetrahedral": 12, "octahedral": 24, "icosahedral": 60}


def parse_orders(text: str) -> list[int]:
    """``"2^3,4"`` -> ``[2, 2, 2, 4]``."""
    out = []
    for part in text.split(","):
        base, _, mult = part.strip().partition("^")
        out.extend([int(base)] * (int(mult) if mult else 1))
    return sorted(out)


def render_orders(orders) -> str:
    counts: dict[int, int] = {}
    for o in orders:
        counts[o] = counts.get(o, 0) + 1
    return ",".join(f"{o}^{k}" if k > 1 else str(o) for o, k in sorted(counts.items()))


def balances(genus: int, group_order: int, orders) -> bool:
    """Riemann--Hurwitz over a genus-0 quotient, in exact rationals.

    2(g - 1) = -2|G| + |G| * sum(1 - 1/c).
    """
    ram = sum((1 - Fraction(1, c) for c in orders), Fraction(0))
    return Fraction(2 * (genus - 1)) == -2 * group_order + group_order * ram


def reduced_order_of_text(text: str) -> int:
    """Order of a reduced group as the program names it ({1}, C_m, D_2m, ...)."""
    if text in _FIXED_REDUCED:
        return _FIXED_REDUCED[text]
    kind, _, k = text.partition("_")
    if kind in ("C", "D") and k.isdigit():
        return int(k)
    raise ValueError(f"unknown reduced group {text!r}")


def reduced_is_cyclic(text: str) -> bool:
    return text == "{1}" or text.startswith("C_")


def reduced_order_of_row(row: dict) -> int:
    block, m = row["block"], row["m"]
    if block == "cyclic":
        return m
    if block == "dihedral":
        return 2 * m
    return _BLOCK_ORDER[block]


def verdict(cyclic_reduced: bool, orders, dim: int) -> tuple[str, str | None]:
    """The three sufficiency criteria, in priority order."""
    if not cyclic_reduced:
        return DEFINABLE, UNIQUE_SUBGROUP
    if any(orders.count(o) % 2 for o in set(orders)):
        return DEFINABLE, ODD_SIGNATURE
    if dim == 0:
        return DEFINABLE, QUASIPLATONIC
    return NOT_DEFINABLE, None


def divisors_from(k: int, start: int = 1) -> list[int]:
    return [d for d in range(start, k + 1) if k % d == 0]


def levels(genus: int) -> list[tuple[int, int, bool]]:
    """(level, branch points, normal form) with (n - 1)(B - 2) = 2g, by level."""
    out = []
    for d in divisors_from(2 * genus):
        n, b = d + 1, 2 * genus // d + 2
        out.append((n, b, b % n == 0 or gcd(n, b - 1) == 1))
    return out


def repair_candidates(genus: int, group_order: int, printed) -> list[list[int]]:
    """Every signature one edit from ``printed`` that balances, or ``printed``.

    An edit appends one cone order or replaces one; cone orders divide |G|.
    """
    if balances(genus, group_order, printed):
        return [list(printed)]
    allowed = divisors_from(group_order, 2)
    found = []
    for c in allowed:
        cand = sorted(printed + [c])
        if balances(genus, group_order, cand) and cand not in found:
            found.append(cand)
    for old in sorted(set(printed)):
        for new in allowed:
            cand = list(printed)
            cand.remove(old)
            cand = sorted(cand + [new])
            if new != old and balances(genus, group_order, cand) and cand not in found:
                found.append(cand)
    return found


_LABEL_ATOMS = {"V_4": 4, "A_4": 12, "S_4": 24, "A_5": 60}


def label_order(text: str) -> int | None:
    """Order named by a full-group label, or None when the name is opaque."""
    text = text.strip()
    if not text:
        return None
    order = 1
    for atom in re.split(r"\s*×\s*", text):
        base, _, power = atom.strip().partition("^")
        base = base.strip("{} ")
        if base in _LABEL_ATOMS:
            value = _LABEL_ATOMS[base]
        elif re.fullmatch(r"[CD]_\d+", base):
            value = int(base[2:])
        else:
            return None
        order *= value ** (int(power) if power else 1)
    return order


# -- the defining polynomial ------------------------------------------------

def degree(equation: dict) -> int:
    return sum(max(t["e"] for t in factor) for factor in equation["factors"])


def branch_count(level: int, equation: dict) -> int | None:
    """Branch points of y^n = f(x): the roots, plus infinity when n does not
    divide deg f; None when gcd(n, deg f) is neither 1 nor n."""
    deg = degree(equation)
    if deg % level == 0:
        return deg
    return deg + 1 if gcd(level, deg) == 1 else None


def order_at_zero(equation: dict) -> int:
    """Multiplicity of x = 0 as a root of f, for every parameter value."""
    return sum(min(t["e"] for t in factor) for factor in equation["factors"])


def _sqrt_mod(d: int, p: int) -> int:
    s = pow(d % p, (p + 1) // 4, p)
    if s * s % p != d % p:
        raise ArithmeticError(f"{d} is not a square mod {p}")
    return s


def _coeff_mod(c: dict, values: dict[int, int], p: int) -> int:
    if c["kind"] == "param":
        return _frac_mod(values[c["i"]] * Fraction(c.get("scale", "1")), p)
    a, b = Fraction(c["a"]), Fraction(c.get("b", "0"))
    root = _sqrt_mod(int(c.get("d", 1)), p) if b else 0
    return (_frac_mod(a, p) + _frac_mod(b, p) * root) % p


def _frac_mod(x: Fraction, p: int) -> int:
    if x.denominator % p == 0:
        raise ArithmeticError(f"denominator divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def _poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_gcd_degree(f: list[int], g: list[int], p: int) -> int:
    f, g = _trim(f), _trim(g)
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            q = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, b in enumerate(g):
                f[shift + i] = (f[shift + i] - q * b) % p
            f = _trim(f)
            if not f:
                break
        f, g = g, f
    return len(f) - 1


def probe_values(equation: dict) -> dict[int, int]:
    indices = sorted({t["c"]["i"] for factor in equation["factors"]
                      for t in factor if t["c"]["kind"] == "param"})
    return {i: PROBE_VALUES[k] for k, i in enumerate(indices)}


def certified_separable(equation: dict) -> bool:
    """True when f, at the probe point, is proven separable of full degree.

    Over F_p the polynomial keeps its degree and gcd(f, f') = 1; then its
    discriminant is a nonzero element of Q(sqrt(-3)).  An unlucky prime only
    moves on to the next one; False means no prime certified it.
    """
    values = probe_values(equation)
    deg = degree(equation)
    for p in MODULI:
        try:
            f = [1]
            for factor in equation["factors"]:
                g = [0] * (max(t["e"] for t in factor) + 1)
                for t in factor:
                    g[t["e"]] = _coeff_mod(t["c"], values, p)
                f = _poly_mul(f, g, p)
        except ArithmeticError:
            continue
        f = _trim(f)
        if len(f) - 1 != deg:
            continue
        df = [i * a % p for i, a in enumerate(f)][1:]
        if _poly_gcd_degree(list(f), df, p) == 0:
            return True
    return False


# -- the whole table ------------------------------------------------------

@dataclass(frozen=True)
class RowFacts:
    """What the table's own data force for one row."""

    key: tuple[int, int]
    group_order: int
    cyclic_reduced: bool
    printed: tuple[int, ...]
    printed_balances: bool
    candidates: tuple[tuple[int, ...], ...]
    verdict: tuple[str, str | None]
    branch_points: int | None
    separable: bool


def row_facts(row: dict) -> RowFacts:
    key = (row["genus"], row["nr"])
    order = row["level"] * reduced_order_of_row(row)
    cyclic = row["block"] == "cyclic"
    printed = parse_orders(row["signature"])
    cands = repair_candidates(row["genus"], order, printed)
    if not cands and key in ASSERTED_ERRATA:
        cands = [parse_orders(ASSERTED_ERRATA[key])]
    cands = [c for c in cands if len(c) - 3 == row["dim"]] or cands
    verdicts = {verdict(cyclic, c, row["dim"]) for c in cands}
    if len(verdicts) != 1:
        raise ValueError(f"row {key}: the table does not force one verdict "
                         f"({sorted(map(str, verdicts))})")
    return RowFacts(
        key=key,
        group_order=order,
        cyclic_reduced=cyclic,
        printed=tuple(printed),
        printed_balances=balances(row["genus"], order, printed),
        candidates=tuple(tuple(c) for c in cands),
        verdict=verdicts.pop(),
        branch_points=branch_count(row["level"], row["equation"]),
        separable=certified_separable(row["equation"]),
    )

"""Deterministic extractors on reduced Mumford divisors.

For a weight-2 divisor [x^2 + u1*x + u0, v] the support points have
x-coordinates with sum -u1 and product u0 (Vieta), so reading those
coefficients off the representative gives well-defined "sum of x" /
"product of x" maps.  Weight-1 divisors [x + u0, v] contribute their
single x-coordinate -u0 to both maps, and the neutral class maps to 0.

An extractor reads that value val as its integer encoding, whose base-p
digits are its coordinates in the power basis, and outputs the k low
digits of val mod m: base p with m = p^k (the first k coordinates, any
field) or base 2 with m = 2^k (the k low bits, prime fields only).
outcome_count alone decides which (kind, k) fit a field.
"""

from __future__ import annotations

from enum import Enum

from .curve import HyperellipticCurve, MumfordDivisor
from .field import FiniteField


class ExtractorKind(Enum):
    """The four extractor families; values are the CLI spellings."""

    SUM = "sum"
    PROD = "prod"
    SK = "sk"
    PK = "pk"

    @classmethod
    def from_name(cls, name: str) -> "ExtractorKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown extractor {name!r}; expected one of {valid}")

    def __init__(self, value: str):
        # plain attributes: extract reads them on every call
        self.is_bitwise = value in ("sk", "pk")
        self.uses_product = value in ("prod", "pk")


def max_k(kind: ExtractorKind, field: FiniteField) -> int:
    """Largest valid k for this extractor over this field."""
    if kind.is_bitwise:
        return field.p.bit_length() - 1  # largest k with 2**k <= p
    return field.n


def _scalar_value(curve: HyperellipticCurve, D: MumfordDivisor, product: bool) -> int:
    """Field element an extractor reads off D: the sum or the product of
    the x-coordinates in its support (0 for the neutral class)."""
    curve._require_valid(D)
    K = curve.field
    w = D.weight
    if w == 0:
        return 0
    if w == 1:
        return K._neg(D.u.coeff(0))
    return D.u.coeff(0) if product else K._neg(D.u.coeff(1))


def outcome_count(kind: ExtractorKind, field: FiniteField, k: int) -> int:
    """Size m of the output space, p**k digit vectors or 2**k bit strings,
    once (kind, k) is checked against the field: the one place that
    decides whether an extractor fits."""
    if kind.is_bitwise and field.n != 1:
        raise ValueError(
            f"{kind.value} is defined over prime fields only, "
            f"field has degree {field.n}"
        )
    top = max_k(kind, field)
    if type(k) is not int or not 1 <= k <= top:
        raise ValueError(
            f"k must be in [1, {top}] for {kind.value} over F_{field.q}, got {k!r}"
        )
    return 2**k if kind.is_bitwise else field.p**k


def extract(
    curve: HyperellipticCurve, D: MumfordDivisor, kind: ExtractorKind, k: int
) -> tuple[int, ...]:
    """Apply an extractor: the k low digits, low first, of val mod m, where
    val is the sum or product of D's abscissas as an integer encoding and
    m = outcome_count(kind, field, k).  In base p these are the first k
    coordinates of val in the power basis; in base 2 (prime fields only)
    the k low bits of the residue."""
    m = outcome_count(kind, curve.field, k)
    val = _scalar_value(curve, D, kind.uses_product) % m
    radix = 2 if kind.is_bitwise else curve.field.p
    out = []
    for _ in range(k):
        val, d = divmod(val, radix)
        out.append(d)
    return tuple(out)


def outcome_index(kind: ExtractorKind, p: int, out: tuple[int, ...]) -> int:
    """Collapse an output tuple to its index in [0, outcome_count)."""
    radix = 2 if kind.is_bitwise else p
    v = 0
    for d in reversed(out):
        v = v * radix + d
    return v

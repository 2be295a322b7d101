"""Deterministic extractors on reduced Mumford divisors.

For a weight-2 divisor [x^2 + u1*x + u0, v] the support points have
x-coordinates with sum -u1 and product u0 (Vieta), so reading those
coefficients off the representative gives well-defined "sum of x" /
"product of x" maps.  Weight-1 divisors [x + u0, v] contribute their
single x-coordinate -u0 to both maps, and the neutral class maps to 0.

Two output alphabets are supported: the first k coordinates of the
value in the power basis (a vector in F_p^k, any field), and the k
least-significant bits of the residue (prime fields only).
"""

from __future__ import annotations

from enum import Enum

from .curve import HyperellipticCurve, MumfordDivisor
from .errors import (
    InvalidDivisorError,
    KOutOfRangeError,
    RequiresPrimeFieldError,
)
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

    @property
    def is_bitwise(self) -> bool:
        return self in (ExtractorKind.SK, ExtractorKind.PK)

    @property
    def uses_product(self) -> bool:
        return self in (ExtractorKind.PROD, ExtractorKind.PK)


def coord_prefix(field: FiniteField, e: int, k: int) -> tuple[int, ...]:
    """First k coordinates of e in the power basis, low index first."""
    if type(k) is not int or not 1 <= k <= field.n:
        raise KOutOfRangeError(f"k must be in [1, {field.n}], got {k!r}")
    return field.coords(e)[:k]


def low_bits(p: int, r: int, k: int) -> tuple[int, ...]:
    """k least-significant bits of the residue r in [0, p), LSB first.

    Requires 2**k <= p so that every output pattern is reachable."""
    if type(k) is not int or k < 1 or 2**k > p:
        raise KOutOfRangeError(f"k must satisfy 1 <= k and 2**k <= p={p}, got {k!r}")
    if type(r) is not int or not 0 <= r < p:
        raise KOutOfRangeError(f"residue {r!r} is not in [0, {p})")
    return tuple((r >> i) & 1 for i in range(k))


def max_k(kind: ExtractorKind, field: FiniteField) -> int:
    """Largest valid k for this extractor over this field."""
    if kind.is_bitwise:
        return field.p.bit_length() - 1  # largest k with 2**k <= p
    return field.n


def _scalar_value(curve: HyperellipticCurve, D: MumfordDivisor, product: bool) -> int:
    """Field element an extractor reads off D: the sum or the product of
    the x-coordinates in its support (0 for the neutral class)."""
    if not curve.is_valid_divisor(D):
        raise InvalidDivisorError(f"{D!r} is not a divisor on {curve!r}")
    K = curve.field
    w = D.weight
    if w == 0:
        return 0
    if w == 1:
        return K._neg(D.u.coeff(0))
    return D.u.coeff(0) if product else K._neg(D.u.coeff(1))


def extract(
    curve: HyperellipticCurve, D: MumfordDivisor, kind: ExtractorKind, k: int
) -> tuple[int, ...]:
    """Apply an extractor; returns a length-k tuple of digits or bits."""
    return value_output(curve.field, kind, _scalar_value(curve, D, kind.uses_product), k)


def value_output(field: FiniteField, kind: ExtractorKind, val: int, k: int) -> tuple[int, ...]:
    """The extractor's output for a class whose sum or product of
    abscissas (as kind reads it) is val."""
    if kind.is_bitwise:
        if field.n != 1:
            raise RequiresPrimeFieldError(
                f"{kind.value} is defined over prime fields only, "
                f"field has degree {field.n}"
            )
        return low_bits(field.p, val, k)
    return coord_prefix(field, val, k)


def extract_sum(curve: HyperellipticCurve, D: MumfordDivisor, k: int) -> tuple[int, ...]:
    """First k coordinates of the x-coordinate sum of the support."""
    return extract(curve, D, ExtractorKind.SUM, k)


def extract_prod(curve: HyperellipticCurve, D: MumfordDivisor, k: int) -> tuple[int, ...]:
    """First k coordinates of the x-coordinate product of the support."""
    return extract(curve, D, ExtractorKind.PROD, k)


def extract_sum_bits(curve: HyperellipticCurve, D: MumfordDivisor, k: int) -> tuple[int, ...]:
    """k low-order bits, LSB first, of the x-coordinate sum (prime fields)."""
    return extract(curve, D, ExtractorKind.SK, k)


def extract_prod_bits(curve: HyperellipticCurve, D: MumfordDivisor, k: int) -> tuple[int, ...]:
    """k low-order bits, LSB first, of the x-coordinate product (prime fields)."""
    return extract(curve, D, ExtractorKind.PK, k)


def outcome_count(kind: ExtractorKind, field: FiniteField, k: int) -> int:
    """Size of the output space: p**k digit vectors or 2**k bit strings."""
    return 2**k if kind.is_bitwise else field.p**k


def outcome_index(kind: ExtractorKind, p: int, out: tuple[int, ...]) -> int:
    """Collapse an output tuple to its index in [0, outcome_count)."""
    radix = 2 if kind.is_bitwise else p
    v = 0
    for d in reversed(out):
        v = v * radix + d
    return v

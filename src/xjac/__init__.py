"""Genus-2 hyperelliptic Jacobian arithmetic over odd-characteristic finite
fields, coefficient/bit extractors on Mumford representatives, and exact
verification tools for output distributions and additive character sums."""

__version__ = "0.1.0"

from .curve import (
    AffinePoint,
    HyperellipticCurve,
    MumfordDivisor,
    find_squarefree_quintic,
)
from .extractors import ExtractorKind, extract
from .field import FiniteField, find_irreducible, finite_field, is_prime
from .poly import Poly
from .stats import RandomSource, Tally

__all__ = [
    "AffinePoint",
    "ExtractorKind",
    "FiniteField",
    "HyperellipticCurve",
    "MumfordDivisor",
    "Poly",
    "RandomSource",
    "Tally",
    "extract",
    "find_irreducible",
    "find_squarefree_quintic",
    "finite_field",
    "is_prime",
    "__version__",
]

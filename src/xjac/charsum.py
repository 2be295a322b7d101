"""Additive character sums over F_{p^n} with verifiable magnitude laws.

psi_a(x) = exp(2 pi i Tr(a x) / p) runs over the additive characters of
F_q as a runs over F_q; a = 0 is the trivial character.  Every sum here
is evaluated by direct accumulation in complex doubles, so closed-form
laws (orthogonality, square-root cancellation for quadratics, duality
for subgroup spans) can be checked against an independent route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BadSubgroupBasisError,
    BudgetExceededError,
    DegreeTooHighError,
    FieldMismatchError,
    LOutOfRangeError,
    TrivialCharacterError,
)
from .field import FiniteField
from .poly import Poly

DEFAULT_BUDGET = 10**6


def root_of_unity(p: int, t: int) -> complex:
    """exp(2 pi i t / p)."""
    return cmath.exp(complex(0.0, 2.0 * math.pi * (t % p) / p))


@dataclass(frozen=True)
class CharSumReport:
    magnitude: float
    bound: float
    ratio: float


class Character:
    """Additive character psi_a of a finite field, callable on encodings."""

    __slots__ = ("field", "a", "_roots")

    def __init__(self, field: FiniteField, a: int):
        field._check(a)
        self.field = field
        self.a = a
        self._roots = [root_of_unity(field.p, t) for t in range(field.p)]

    @property
    def is_trivial(self) -> bool:
        return self.a == 0

    def __call__(self, x: int) -> complex:
        K = self.field
        return self._roots[K.trace(K._mul(self.a, x))]

    def __repr__(self):
        return f"psi_{self.a} on {self.field!r}"


def orthogonality_sum(field: FiniteField, a: int) -> complex:
    """sum_x psi_a(x); q for the trivial character, 0 otherwise."""
    psi = Character(field, a)
    s = 0j
    for x in range(field.q):
        s += psi(x)
    return s


def poly_char_sum_value(field: FiniteField, P: Poly, a: int = 1) -> complex:
    """sum_x psi_a(P(x)) as a bare complex number, any a (including 0)."""
    if P.field != field:
        raise FieldMismatchError(f"P is over {P.field!r}, not {field!r}")
    field._check(a)
    psi = Character(field, a)
    s = 0j
    for x in range(field.q):
        s += psi(P(x))
    return s


def poly_char_sum(field: FiniteField, P: Poly, a: int = 1) -> CharSumReport:
    """S = sum_x psi_a(P(x)) with the square-root cancellation bound
    d * q^(1 - 1/(2d)) for 1 <= d = deg P < p."""
    if P.field != field:
        raise FieldMismatchError(f"P is over {P.field!r}, not {field!r}")
    field._check(a)
    if a == 0:
        raise TrivialCharacterError("a = 0 gives the trivial character")
    d = P.degree
    if not 1 <= d < field.p:
        raise DegreeTooHighError(
            f"deg P = {d} outside [1, p) = [1, {field.p}) where the bound applies"
        )
    s = poly_char_sum_value(field, P, a)
    q = field.q
    bound = d * q ** (1.0 - 1.0 / (2.0 * d))
    mag = abs(s)
    return CharSumReport(
        magnitude=mag,
        bound=bound,
        ratio=mag / bound,
    )


class AdditiveSubgroup:
    """F_p-span of a subset of the power basis {x^i : i in basis}."""

    __slots__ = ("field", "basis")

    def __init__(self, field: FiniteField, basis: Iterable[int]):
        idx = list(basis)
        seen = set()
        for i in idx:
            if not isinstance(i, int) or not 0 <= i < field.n or i in seen:
                raise BadSubgroupBasisError(
                    f"basis must be distinct indices in [0, {field.n}), got {idx!r}"
                )
            seen.add(i)
        self.field = field
        self.basis = tuple(sorted(seen))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.field.n - len(self.basis)

    def elements(self, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
        """All p^dim encodings in the span, ascending.

        Power-basis monomial x^i has encoding p^i, so the span is exactly
        the set of encodings whose non-basis digits vanish."""
        p = self.field.p
        size = p**self.dim
        if size > budget:
            raise BudgetExceededError(f"subgroup has {size} elements, budget {budget}")
        out = [0]
        for i in self.basis:
            step = p**i
            out = [e + c * step for e in out for c in range(p)]
        return tuple(sorted(out))

    def __repr__(self):
        return f"span{self.basis} in {self.field!r}"


def subgroup_elements(
    field: FiniteField, basis: Iterable[int], budget: int = DEFAULT_BUDGET
) -> tuple[int, ...]:
    return AdditiveSubgroup(field, basis).elements(budget)


def winterhof_sum(
    field: FiniteField,
    subgroup: AdditiveSubgroup | Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> CharSumReport:
    """T = sum_a |sum_{x in V} psi_1(a x)| over all a in F_q.

    T <= q always; for the monomial-basis spans used here duality gives
    equality, which makes the law a sharp self-check."""
    if not isinstance(subgroup, AdditiveSubgroup):
        subgroup = AdditiveSubgroup(field, subgroup)
    elif subgroup.field != field:
        raise FieldMismatchError("subgroup belongs to a different field")
    V = subgroup.elements(budget)
    q = field.q
    if q * len(V) > budget:
        raise BudgetExceededError(
            f"winterhof sum needs {q * len(V)} character evaluations, "
            f"budget is {budget}"
        )
    roots = [root_of_unity(field.p, t) for t in range(field.p)]
    mul, trace = field._mul, field.trace
    total = 0.0
    for a in range(q):
        s = 0j
        for x in V:
            s += roots[trace(mul(a, x))]
        total += abs(s)
    return CharSumReport(
        magnitude=total,
        bound=float(q),
        ratio=total / q,
    )


def interval_char_sum(p: int, L: int) -> CharSumReport:
    """T = sum over all a in F_p of |sum_{x=0}^{L-1} e_p(a x)|, with the
    classical p * log2(p) envelope for incomplete geometric sums."""
    if not isinstance(p, int) or p < 2:
        raise LOutOfRangeError(f"p must be a prime >= 3, got {p!r}")
    if not isinstance(L, int) or not 1 <= L <= p:
        raise LOutOfRangeError(f"L must be in [1, {p}], got {L!r}")
    total = 0.0
    for a in range(p):
        s = 0j
        for x in range(L):
            s += root_of_unity(p, a * x)
        total += abs(s)
    bound = p * math.log2(p)
    return CharSumReport(
        magnitude=total,
        bound=bound,
        ratio=total / bound,
    )

"""Additive character sums over F_{p^n} with verifiable magnitude laws.

psi_a(x) = exp(2 pi i Tr(a x) / p) runs over the additive characters of
F_q as a runs over F_q; a = 0 is the trivial character.  Every sum here
is evaluated by direct accumulation in complex doubles, so closed-form
laws (orthogonality, square-root cancellation for quadratics, duality
for subgroup spans) can be checked against an independent route.

Tr(a x) is F_p-bilinear in the base-p digits of a and x, so the sums read
trace tables expanded digit by digit (_digit_dots), yet add the same
_unit_roots entries in ascending x order: the floats of a per-x loop.
Orthogonality reads Tr(a x^i) from tables kept per field.  Winterhof's
inner sum over V = span{x^i : i in b} depends on a only through the
trace vector (Tr(a x^i))_{i in b}, so each of the at most p^|b| vectors
is summed once, and the outer sum still adds q terms in ascending a:
O(q |b| + min(q, p^|b|) p^|b|) steps in place of q p^|b|.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Iterable, NamedTuple, Sequence

from .field import FiniteField, is_prime
from .poly import Poly, raw_eval


def root_of_unity(p: int, t: int) -> complex:
    """exp(2 pi i t / p)."""
    return cmath.exp(complex(0.0, 2.0 * math.pi * (t % p) / p))


@functools.lru_cache(maxsize=16)
def _unit_roots(p: int) -> tuple[complex, ...]:
    """root_of_unity(p, t) for t in [0, p), built once per p."""
    return tuple(root_of_unity(p, t) for t in range(p))


class CharSumReport(NamedTuple):
    magnitude: float
    bound: float
    ratio: float


class Character:
    """Additive character psi_a of a finite field, callable on encodings.

    x -> Tr(a x) is F_p-linear, so Tr(a x) is the dot product of the
    base-p digits of x with the n values Tr(a x^i), kept from
    construction; an evaluation does no field multiply.  Neither does
    construction: with a = sum_j a_j x^j, Tr(a x^i) = sum_j a_j Tr(x^(i+j))."""

    __slots__ = ("field", "a", "_roots", "_trace_axi")

    def __init__(self, field: FiniteField, a: int):
        field._check(a)
        self.field = field
        self.a = a
        p = field.p
        self._roots = _unit_roots(p)
        txk = field._trace_powers()
        digits = field._vec_decode(a)
        self._trace_axi = tuple(
            sum(aj * txk[i + j] for j, aj in enumerate(digits)) % p
            for i in range(field.n)
        )

    def __call__(self, x: int) -> complex:
        self.field._check(x)
        return self._eval(x)

    def _eval(self, x: int) -> complex:
        """psi_a(x) for an x known to be an element encoding."""
        p = self.field.p
        t = 0
        for ti in self._trace_axi:
            t += x % p * ti
            x //= p
        return self._roots[t % p]

    def __repr__(self):
        return f"psi_{self.a} on {self.field!r}"


def _digit_dots(p: int, coeffs: Sequence[int]) -> list[int]:
    """sum_i d_i coeffs[i], not reduced, for every digit vector d in [0, p)^k
    in ascending order of sum_i d_i p^i: digit by digit, the last slowest."""
    out = [0]
    for c in reversed(coeffs):
        row = [d * c for d in range(p)]
        out = [t + m for t in out for m in row]
    return out


def _trace_table(field: FiniteField, i: int) -> list[int]:
    """Tr(a x^i) mod p for every a, as sum_j a_j Tr(x^(i+j)) over the
    digits a_j of a."""
    p, n = field.p, field.n
    return [t % p for t in _digit_dots(p, field._trace_powers()[i : i + n])]


@functools.lru_cache(maxsize=1)
def _trace_tables(field: FiniteField) -> list[list[int]]:
    """_trace_table(field, i) for every i < n, kept for the last field."""
    return [_trace_table(field, i) for i in range(field.n)]


def orthogonality_sum(field: FiniteField, a: int) -> complex:
    """sum_x psi_a(x); q for the trivial character, 0 otherwise."""
    field._check(a)
    p, roots = field.p, _unit_roots(field.p)
    s = 0j
    for t in _digit_dots(p, [tr[a] for tr in _trace_tables(field)]):
        s += roots[t % p]
    return s


@functools.lru_cache(maxsize=1)
def _poly_values(field: FiniteField, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """P(x) for every x in F_q, kept for the last P: the mordell rows ask
    for every a in turn with the same P."""
    return tuple(raw_eval(field, coeffs, x) for x in range(field.q))


@functools.lru_cache(maxsize=1)
def _psi_tables(field: FiniteField) -> list[tuple[complex, ...] | None]:
    """psi_a(x) for every x in F_q, one slot per a filled on first use by
    _psi_table, kept for the last field: the mordell rows run every a per
    P, a cycle of q - 1 keys that a bounded LRU on (field, a) would miss
    on every call once q - 1 exceeded its size."""
    return [None] * field.q


def _psi_table(field: FiniteField, a: int) -> tuple[complex, ...]:
    """Build and keep slot a of _psi_tables(field)."""
    p, roots = field.p, _unit_roots(field.p)
    table = tuple(roots[t % p] for t in _digit_dots(p, Character(field, a)._trace_axi))
    _psi_tables(field)[a] = table
    return table


def _poly_char_sum_raw(field: FiniteField, coeffs: tuple[int, ...], a: int) -> complex:
    """sum_x psi_a(P(x)), P given by its coefficients, for any element a
    (0 included); the callers check a."""
    psi = _psi_tables(field)[a] or _psi_table(field, a)
    s = 0j
    for v in _poly_values(field, coeffs):
        s += psi[v]
    return s


def poly_char_sum(field: FiniteField, P: Poly, a: int = 1) -> CharSumReport:
    """S = sum_x psi_a(P(x)) with the square-root cancellation bound
    d * q^(1 - 1/(2d)) for 1 <= d = deg P < p."""
    if P.field is not field and P.field != field:
        raise ValueError(f"P is over {P.field!r}, not {field!r}")
    field._check(a)
    if a == 0:
        raise ValueError("a = 0 gives the trivial character")
    d = P.degree
    if not 1 <= d < field.p:
        raise ValueError(
            f"deg P = {d} outside [1, p) = [1, {field.p}) where the bound applies"
        )
    s = _poly_char_sum_raw(field, P.coeffs, a)
    q = field.q
    bound = d * q ** (1.0 - 1.0 / (2.0 * d))
    mag = abs(s)
    return CharSumReport(
        magnitude=mag,
        bound=bound,
        ratio=mag / bound,
    )


def basis_indices(n: int, basis: Iterable[int]) -> tuple[int, ...]:
    """basis sorted, once checked to name distinct indices in [0, n)."""
    idx = list(basis)
    seen = set()
    for i in idx:
        if type(i) is not int or not 0 <= i < n or i in seen:
            raise ValueError(f"basis must be distinct indices in [0, {n}), got {idx!r}")
        seen.add(i)
    return tuple(sorted(seen))


class AdditiveSubgroup:
    """F_p-span of a subset of the power basis {x^i : i in basis}."""

    __slots__ = ("field", "basis")

    def __init__(self, field: FiniteField, basis: Iterable[int]):
        self.field = field
        self.basis = basis_indices(field.n, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> tuple[int, ...]:
        """All p^dim encodings in the span, ascending.

        Power-basis monomial x^i has encoding p^i, so the span is exactly
        the set of encodings whose non-basis digits vanish."""
        p = self.field.p
        return tuple(_digit_dots(p, [p**i for i in self.basis]))

    def __repr__(self):
        return f"span{self.basis} in {self.field!r}"


def winterhof_sum(field: FiniteField, subgroup: AdditiveSubgroup) -> CharSumReport:
    """T = sum_a |sum_{x in V} psi_1(a x)| over all a in F_q.

    T <= q always; for the monomial-basis spans used here duality gives
    equality, which makes the law a sharp self-check."""
    if subgroup.field != field:
        raise ValueError("subgroup belongs to a different field")
    q = field.q
    p, roots = field.p, _unit_roots(field.p)
    # V spans the x^i, so the inner sum of a depends on a only through its
    # trace vector (Tr(a x^i) mod p for i in the basis): each is summed once
    trs = [_trace_table(field, i) for i in subgroup.basis]
    inner: dict[tuple[int, ...], float] = {}
    total = 0.0
    for key in (zip(*trs) if trs else [()] * q):
        m = inner.get(key)
        if m is None:
            s = 0j
            for t in _digit_dots(p, key):
                s += roots[t % p]
            m = inner[key] = abs(s)
        total += m
    return CharSumReport(
        magnitude=total,
        bound=float(q),
        ratio=total / q,
    )


@functools.lru_cache(maxsize=16)
def _interval_sums(p: int) -> tuple[list[complex], list[float]]:
    """Running state of the interval sums for p, shared by every L: the
    partial sums s_a = sum_{x<m} e_p(a x) for each a, and totals[L - 1] =
    sum_a |s_a| for every L <= m reached so far."""
    return [0j] * p, []


def interval_char_sum(p: int, L: int) -> CharSumReport:
    """T = sum over all a in F_p of |sum_{x=0}^{L-1} e_p(a x)|, with the
    classical p * log2(p) envelope for incomplete geometric sums.

    A call only extends the running sums of p up to L, adding the terms in
    the order of the direct per-L loop, so a sweep over every L costs p^2
    additions and each total is the same float as that loop's."""
    if type(p) is not int or p < 3 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 3, got {p!r}")
    if type(L) is not int or not 1 <= L <= p:
        raise ValueError(f"L must be in [1, {p}], got {L!r}")
    sums, totals = _interval_sums(p)
    roots = _unit_roots(p)
    for x in range(len(totals), L):
        sums[:] = [s + roots[a * x % p] for a, s in enumerate(sums)]
        t = 0.0
        for s in sums:
            t += abs(s)
        totals.append(t)
    total = totals[L - 1]
    bound = p * math.log2(p)
    return CharSumReport(
        magnitude=total,
        bound=bound,
        ratio=total / bound,
    )

"""Exact distribution statistics for extractor outputs.

Counting is integer-exact and the statistical distance / collision
probability are computed over Q (fractions.Fraction); floats only appear
at the reporting edge.  Sampling uses a counter-based splitmix64 stream
with rejection, so runs are reproducible across platforms from a seed.

Neither distribution builds a divisor: extractors read a class [u, v]
only through u (the sum -u1 or the product u0 of its abscissas), and
#v(u) is its number of classes (Cantor, Math. Comp. 48, 1987).  An exact
tally adds up value_counts, #v(u) summed by value in one O(q^2) count
per curve shared by every (extractor, k): on plain ints in O(q) memory
over a prime field, from the per-u table over an extension field.  A
Monte-Carlo tally reads the curve's _class_table, #v(u) for every monic
u of degree 1 or 2 in enumerate_jacobian's canonical order (q^2 + q
bytes), expands it into one outcome per class index, |J| = 1 + its sum
of them, and reads the drawn indices from it.  The enumeration stays the
tests' oracle for both.
"""

from __future__ import annotations

import collections
import functools
import math
import struct
import sys
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple

from .curve import HyperellipticCurve
from .extractors import ExtractorKind, extract, outcome_count, outcome_index

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# each 128-bit lane's low word among z.to_bytes(16 * k, sys.byteorder)'s native words
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


@functools.lru_cache(maxsize=8)
def _lanes(k: int) -> tuple[int, int, int]:
    """Three ints of k 128-bit lanes, lane i holding (i + 1) * _GAMMA, 1
    and 2^64 - 1 in turn: below's per-pass constants."""
    counters = int.from_bytes(struct.pack("<" + "Q8x" * k, *range(1, k + 1)), "little")
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    return counters * _GAMMA, ones, ones * _MASK64


class RandomSource:
    """Deterministic 64-bit stream: splitmix64 over a counter (Steele, Lea
    and Flood, OOPSLA 2014).  below(n, count) draws unbiased from [0, n)
    by rejection, so a bounded draw may consume several raw draws."""

    __slots__ = ("seed", "_state")

    algorithm = "splitmix64"

    def __init__(self, seed: int):
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        self.seed = seed
        self._state = seed & _MASK64

    def below(self, n: int, count: int) -> list[int]:
        """The next count draws from [0, n), in stream order, rejecting a
        raw draw at or above the largest multiple of n up to 2^64.  Up to
        1024 raw draws are mixed at once in one int, counter i in bits
        [128i, 128i + 64): each shift (masked back to 64 bits), xor and
        64 x 64-bit product stays in its 128-bit lane."""
        if type(n) is not int or not 1 <= n <= 1 << 64:
            raise ValueError(f"need an int n in [1, 2^64], got {n!r}")
        if type(count) is not int or count < 0:
            raise ValueError(f"need an int count >= 0, got {count!r}")
        threshold = (1 << 64) - (1 << 64) % n
        s, out = self._state, []
        while len(out) < count:
            k = min(count - len(out), 1024)
            counters, ones, low = _lanes(k)
            z = (counters + s * ones) & low
            z = ((z ^ (z >> 30 & low)) * 0xBF58476D1CE4E5B9) & low
            z = ((z ^ (z >> 27 & low)) * 0x94D049BB133111EB) & low
            z ^= z >> 31 & low
            raw = memoryview(z.to_bytes(16 * k, sys.byteorder)).cast("Q")[_LOW_WORDS]
            out += [r % n for r in raw if r < threshold]
            s = (s + k * _GAMMA) & _MASK64
        self._state = s
        return out


class Tally:
    """Exact outcome counts over a finite outcome space [0, m).

    Stored sparsely: only outcomes that occurred appear in counts."""

    __slots__ = ("m", "counts", "total")

    def __init__(self, m: int, counts: Mapping[int, int]):
        if type(m) is not int or m < 1:
            raise ValueError(f"outcome space size must be >= 1, got {m!r}")
        clean: dict[int, int] = {}
        total = 0
        for idx, c in counts.items():
            if type(idx) is not int or not 0 <= idx < m:
                raise ValueError(f"outcome index {idx!r} outside [0, {m})")
            if type(c) is not int or c < 0:
                raise ValueError(f"count {c!r} for outcome {idx} is not an int >= 0")
            if c:
                clean[idx] = c
                total += c
        if total == 0:
            raise ValueError("tally needs at least one observation")
        self.m = m
        self.counts = clean
        self.total = total

    @classmethod
    def from_outcomes(cls, m: int, outcomes: Iterable[int]) -> "Tally":
        """Counts keyed in order of first occurrence, as Counter keeps them."""
        return cls(m, collections.Counter(outcomes))

    def __eq__(self, other):
        if isinstance(other, Tally):
            return self.m == other.m and self.counts == other.counts
        return NotImplemented

    def __repr__(self):
        return f"Tally(m={self.m}, total={self.total}, counts={self.counts})"


# -- exact statistics ---------------------------------------------------------


def statistical_distance_exact(t: Tally) -> Fraction:
    """(1/2) * sum_z |Pr[z] - 1/m|, exactly."""
    n, m = t.total, t.m
    # |c/n - 1/m| summed over observed cells plus (m - #observed)/m for
    # the empty ones; all over a common denominator to stay in Z
    acc = 0
    for c in t.counts.values():
        acc += abs(c * m - n)
    acc += (m - len(t.counts)) * n
    return Fraction(acc, 2 * n * m)


def collision_probability_exact(t: Tally) -> Fraction:
    """sum_z Pr[z]^2, exactly."""
    n = t.total
    return Fraction(sum(c * c for c in t.counts.values()), n * n)


def collision_lower_bound(sd: Fraction, m: int) -> Fraction:
    """Quadratic-form floor on the collision probability at distance sd
    from uniform: (1 + 4*sd^2) / m."""
    s = Fraction(sd)
    return (1 + 4 * s * s) / m


def check_collision_sd_relation(t: Tally) -> bool:
    """Col >= (1 + 4*SD^2)/m, both sides exact."""
    return collision_probability_exact(t) >= collision_lower_bound(
        statistical_distance_exact(t), t.m
    )


# -- closed-form bounds --------------------------------------------------------


def sd_bound_coords(p: int, n: int, k: int) -> float:
    """SD bound for the k-coordinate extractors over F_{p^n}:
    sqrt(p^k) / (2 sqrt(q) (q + 1))."""
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    q = p**n
    return math.sqrt(p**k) / (2.0 * math.sqrt(q) * (q + 1))


def sd_bound_bits(p: int, k: int) -> float:
    """SD bound for the k-bit extractors over F_p:
    sqrt(2^k / p) * (1 + sqrt(log2 p) / (p + 1))."""
    if k < 1 or 2**k > p:
        raise ValueError(f"k must satisfy 2**k <= p={p}, got {k}")
    return math.sqrt(2**k / p) * (1.0 + math.sqrt(math.log2(p)) / (p + 1))


def acceptance_envelope(kind: ExtractorKind, p: int, n: int, k: int) -> float:
    """Working tolerance for small-field sweeps: 5/sqrt(q) for the
    coordinate extractors, 5x the bit bound for the bit extractors."""
    if kind.is_bitwise:
        return 5.0 * sd_bound_bits(p, k)
    return 5.0 / math.sqrt(p**n)


# -- distributions over a Jacobian ---------------------------------------------


def exact_output_distribution(
    curve: HyperellipticCurve, kind: ExtractorKind, k: int
) -> Tally:
    """Outcome tally of an extractor over every divisor class.

    Counted, not enumerated: the extractor reads a class only through the
    sum or product of its abscissas, so the tally adds up
    curve.value_counts() (#v per u, Cantor 1987) per value, O(q + m) per
    (kind, k) once the curve's one O(q^2) counting pass has run.  A value
    val lands on outcome val % m, whose digits are extract's output by
    its definition.  The neutral class goes through extract itself, which
    also rejects a kind or k that does not fit the field (outcome_count)
    before any counting."""
    field = curve.field
    counts = {outcome_index(kind, field.p, extract(curve, curve.zero(), kind, k)): 1}
    m = outcome_count(kind, field, k)
    by_value = curve.value_counts()
    for val, n in enumerate(by_value.products if kind.uses_product else by_value.sums):
        if n:
            counts[val % m] = counts.get(val % m, 0) + n
    return Tally(m, counts)


def monte_carlo_distribution(
    curve: HyperellipticCurve, kind: ExtractorKind, k: int, samples: int, seed: int
) -> Tally:
    """Outcome tally over `samples` classes drawn uniformly (splitmix64
    stream from `seed`) by index into enumerate_jacobian's order.

    Sampled, not enumerated: curve._class_table expands into the outcome
    of every class index, the value its u gives the extractor % m as in
    exact_output_distribution, and each draw reads its outcome there.  The
    neutral class goes through extract, which rejects a kind or k that
    does not fit before any counting."""
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    field = curve.field
    q, neg = field.q, field._neg
    zero = outcome_index(kind, field.p, extract(curve, curve.zero(), kind, k))
    m = outcome_count(kind, field, k)
    table = curve._class_table()
    # x - x1 at position x1 gives x1; x^2 + a*x + b at q + b*q + a gives b
    # (product) or -a (sum), so the quadratics run a row of q per b
    if kind.uses_product:
        quadratics = chain.from_iterable(repeat(b % m, q) for b in range(q))
    else:
        quadratics = chain.from_iterable(repeat([neg(a) % m for a in range(q)], q))
    outcomes = chain([x % m for x in range(q)], quadratics)
    per_class = [zero, *chain.from_iterable(map(repeat, outcomes, table))]
    draws = RandomSource(seed).below(len(per_class), samples)  # |J| = 1 + sum(table)
    return Tally.from_outcomes(m, map(per_class.__getitem__, draws))


# -- assembled report ------------------------------------------------------------


class SDReport(NamedTuple):
    """The statistics of a result row; the row's identity columns (extractor,
    k, mode, samples, seed) are the caller's."""

    m: int
    sd_exact: Fraction
    col_exact: Fraction
    sd: float
    col: float
    sd_sqrt_q: float
    bound_coords: float | None
    bound_bits: float | None
    envelope: float
    ratio_coords: float | None
    ratio_bits: float | None


def sd_report(
    curve: HyperellipticCurve,
    kind: ExtractorKind,
    k: int,
    tally: Tally,
) -> SDReport:
    p, n = curve.field.p, curve.field.n
    q = curve.field.q
    sd_e = statistical_distance_exact(tally)
    col_e = collision_probability_exact(tally)
    sd = float(sd_e)
    bc = None if kind.is_bitwise else sd_bound_coords(p, n, k)
    bb = sd_bound_bits(p, k) if kind.is_bitwise else None
    env = acceptance_envelope(kind, p, n, k)
    return SDReport(
        m=tally.m,
        sd_exact=sd_e,
        col_exact=col_e,
        sd=sd,
        col=float(col_e),
        sd_sqrt_q=sd * math.sqrt(q),
        bound_coords=bc,
        bound_bits=bb,
        envelope=env,
        ratio_coords=(sd / bc) if bc else None,
        ratio_bits=(sd / bb) if bb else None,
    )

"""Exact distribution statistics for extractor outputs.

Counting is integer-exact and the statistical distance / collision
probability are computed over Q (fractions.Fraction); floats only appear
at the reporting edge.  Sampling uses a counter-based splitmix64 stream
with rejection, so runs are reproducible across platforms from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .curve import HyperellipticCurve
from .errors import BudgetExceededError, KOutOfRangeError
from .extractors import ExtractorKind, extract, outcome_count, outcome_index

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class RandomSource:
    """Deterministic 64-bit stream: splitmix64 over a counter.

    next_below(n) is unbiased via rejection.  skip(k) advances the raw
    stream by k draws; note that rejection may consume several raw draws
    per bounded sample."""

    __slots__ = ("seed", "_state")

    algorithm = "splitmix64"

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        self.seed = seed
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"need n >= 1, got {n}")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % n

    def skip(self, k: int) -> None:
        self._state = (self._state + _GAMMA * k) & _MASK64


class Tally:
    """Exact outcome counts over a finite outcome space [0, m).

    Stored sparsely: only outcomes that occurred appear in counts."""

    __slots__ = ("m", "counts", "total")

    def __init__(self, m: int, counts: Mapping[int, int]):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"outcome space size must be >= 1, got {m!r}")
        clean: dict[int, int] = {}
        total = 0
        for idx, c in counts.items():
            if not isinstance(idx, int) or not 0 <= idx < m:
                raise ValueError(f"outcome index {idx!r} outside [0, {m})")
            if not isinstance(c, int) or c < 0:
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
        counts: dict[int, int] = {}
        for idx in outcomes:
            counts[idx] = counts.get(idx, 0) + 1
        return cls(m, counts)

    def probability(self, idx: int) -> Fraction:
        return Fraction(self.counts.get(idx, 0), self.total)

    def __eq__(self, other):
        if isinstance(other, Tally):
            return self.m == other.m and self.counts == other.counts
        return NotImplemented

    def __add__(self, other):
        """Merge two tallies over the same outcome space."""
        if not isinstance(other, Tally):
            return NotImplemented
        if self.m != other.m:
            raise ValueError(f"outcome space mismatch: {self.m} != {other.m}")
        merged = dict(self.counts)
        for idx, c in other.counts.items():
            merged[idx] = merged.get(idx, 0) + c
        return Tally(self.m, merged)

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


def statistical_distance(t: Tally) -> float:
    return float(statistical_distance_exact(t))


def collision_probability_exact(t: Tally) -> Fraction:
    """sum_z Pr[z]^2, exactly."""
    n = t.total
    return Fraction(sum(c * c for c in t.counts.values()), n * n)


def collision_probability(t: Tally) -> float:
    return float(collision_probability_exact(t))


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


def is_delta_uniform(t: Tally, delta) -> bool:
    """SD <= delta, compared exactly (floats convert losslessly)."""
    return statistical_distance_exact(t) <= Fraction(delta)


# -- closed-form bounds --------------------------------------------------------


def sd_bound_coords(p: int, n: int, k: int) -> float:
    """SD bound for the k-coordinate extractors over F_{p^n}:
    sqrt(p^k) / (2 sqrt(q) (q + 1))."""
    if k < 1 or k > n:
        raise KOutOfRangeError(f"k must be in [1, {n}], got {k}")
    q = p**n
    return math.sqrt(p**k) / (2.0 * math.sqrt(q) * (q + 1))


def sd_bound_bits(p: int, k: int) -> float:
    """SD bound for the k-bit extractors over F_p:
    sqrt(2^k / p) * (1 + sqrt(log2 p) / (p + 1))."""
    if k < 1 or 2**k > p:
        raise KOutOfRangeError(f"k must satisfy 2**k <= p={p}, got {k}")
    return math.sqrt(2**k / p) * (1.0 + math.sqrt(math.log2(p)) / (p + 1))


def acceptance_envelope(kind: ExtractorKind, p: int, n: int, k: int) -> float:
    """Working tolerance for small-field sweeps: 5/sqrt(q) for the
    coordinate extractors, 5x the bit bound for the bit extractors."""
    if kind.is_bitwise:
        return 5.0 * sd_bound_bits(p, k)
    return 5.0 / math.sqrt(p**n)


# -- distributions over a Jacobian ---------------------------------------------


def exact_output_distribution(
    curve: HyperellipticCurve,
    kind: ExtractorKind,
    k: int,
    budget: int = 10**6,
) -> Tally:
    """Outcome tally of an extractor over every divisor class."""
    J = curve.enumerate_jacobian(budget)
    p = curve.field.p
    m = outcome_count(kind, curve.field, k)
    return Tally.from_outcomes(
        m, (outcome_index(kind, p, extract(curve, D, kind, k)) for D in J)
    )


def monte_carlo_distribution(
    curve: HyperellipticCurve,
    kind: ExtractorKind,
    k: int,
    samples: int,
    seed: int,
    budget: int = 10**6,
) -> Tally:
    """Outcome tally over `samples` divisors drawn uniformly (splitmix64
    stream from `seed`) from the enumerated Jacobian.

    Extractors read only the class, so each drawn class is extracted (and
    so validated) once per call, the first time it is drawn; later draws
    of it reuse that outcome index."""
    if not isinstance(samples, int) or samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    J = curve.enumerate_jacobian(budget)
    src = RandomSource(seed)
    p = curve.field.p
    m = outcome_count(kind, curve.field, k)
    order = len(J)
    memo: list[int | None] = [None] * order
    counts: dict[int, int] = {}
    for _ in range(samples):
        i = src.next_below(order)
        idx = memo[i]
        if idx is None:
            idx = memo[i] = outcome_index(kind, p, extract(curve, J[i], kind, k))
        counts[idx] = counts.get(idx, 0) + 1
    return Tally(m, counts)


# -- assembled report ------------------------------------------------------------


@dataclass(frozen=True)
class SDReport:
    """Everything a result row needs, floats already at reporting precision."""

    extractor: str
    k: int
    m: int
    mode: str
    samples: int | None
    seed: int | None
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
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> SDReport:
    p, n = curve.field.p, curve.field.n
    q = curve.field.q
    sd_e = statistical_distance_exact(tally)
    col_e = collision_probability_exact(tally)
    sd = float(sd_e)
    bc = sd_bound_coords(p, n, k) if (not kind.is_bitwise and k <= n) else None
    bb = sd_bound_bits(p, k) if (kind.is_bitwise and n == 1 and 2**k <= p) else None
    env = acceptance_envelope(kind, p, n, k)
    return SDReport(
        extractor=kind.value,
        k=k,
        m=tally.m,
        mode=mode,
        samples=samples,
        seed=seed,
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

"""Exact distribution statistics, RNG determinism, bounds and reports."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjac import stats
from xjac.curve import HyperellipticCurve, MumfordDivisor
from xjac.errors import InvalidDivisorError, KOutOfRangeError
from xjac.extractors import ExtractorKind, extract, outcome_count, outcome_index
from xjac.field import finite_field
from xjac.poly import Poly
from xjac.stats import (
    RandomSource,
    SDReport,
    Tally,
    acceptance_envelope,
    check_collision_sd_relation,
    collision_lower_bound,
    collision_probability,
    collision_probability_exact,
    exact_output_distribution,
    is_delta_uniform,
    monte_carlo_distribution,
    sd_bound_bits,
    sd_bound_coords,
    sd_report,
    statistical_distance,
    statistical_distance_exact,
)


class TestRandomSource:
    def test_determinism(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_different_seeds_differ(self):
        assert RandomSource(1).next_u64() != RandomSource(2).next_u64()

    def test_next_below_range_and_coverage(self):
        src = RandomSource(7)
        seen = set()
        for _ in range(2000):
            v = src.next_below(11)
            assert 0 <= v < 11
            seen.add(v)
        assert seen == set(range(11))

    def test_skip_matches_consumption(self):
        # skip(k) must land exactly where k draws of next_u64 would
        a = RandomSource(99)
        for _ in range(5):
            a.next_u64()
        b = RandomSource(99)
        b.skip(5)
        assert a.next_u64() == b.next_u64()

    def test_algorithm_tag(self):
        assert RandomSource(0).algorithm == "splitmix64"


class TestTally:
    def test_from_outcomes(self):
        t = Tally.from_outcomes(4, [0, 1, 1, 3])
        assert t.total == 4
        assert t.counts == {0: 1, 1: 2, 3: 1}
        assert t.probability(1) == Fraction(1, 2)
        assert t.probability(2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Tally(0, {})
        with pytest.raises(ValueError):
            Tally(4, {4: 1})
        with pytest.raises(ValueError):
            Tally(4, {0: -1})
        with pytest.raises(ValueError):
            Tally(4, {})  # no observations

    def test_merge_is_order_independent(self):
        a = Tally(5, {0: 3, 2: 1})
        b = Tally(5, {2: 2, 4: 7})
        assert a + b == b + a
        assert (a + b).counts == {0: 3, 2: 3, 4: 7}
        assert (a + b).total == 13
        with pytest.raises(ValueError):
            a + Tally(6, {0: 1})


class TestExactStats:
    def test_uniform_tally_has_zero_sd(self):
        t = Tally(4, {0: 5, 1: 5, 2: 5, 3: 5})
        assert statistical_distance_exact(t) == 0
        assert collision_probability_exact(t) == Fraction(1, 4)

    def test_point_mass_extremes(self):
        t = Tally(4, {2: 10})
        assert statistical_distance_exact(t) == Fraction(3, 4)  # 1 - 1/m
        assert collision_probability_exact(t) == 1

    def test_worked_example(self):
        # counts (3, 1) over m=2: SD = 1/4, Col = 10/16
        t = Tally(2, {0: 3, 1: 1})
        assert statistical_distance_exact(t) == Fraction(1, 4)
        assert collision_probability_exact(t) == Fraction(5, 8)

    def test_equality_witness(self):
        # (2,2,0,0)/m=4 sits exactly on the quadratic relation boundary
        t = Tally(4, {0: 2, 1: 2})
        sd = statistical_distance_exact(t)
        col = collision_probability_exact(t)
        assert sd == Fraction(1, 2)
        assert col == Fraction(1, 2)
        assert col == (1 + 4 * sd * sd) / 4
        assert check_collision_sd_relation(t)

    def test_relation_random_tallies(self):
        rng = random.Random(314159)
        for _ in range(10_000):
            m = rng.randint(1, 12)
            counts = {i: rng.randint(0, 20) for i in range(m)}
            if sum(counts.values()) == 0:
                counts[0] = 1
            t = Tally(m, counts)
            sd = statistical_distance_exact(t)
            col = collision_probability_exact(t)
            assert col >= (1 + 4 * sd * sd) / m  # exact rational comparison
            assert check_collision_sd_relation(t)
            assert 0 <= sd <= Fraction(m - 1, m)
            assert Fraction(1, m) <= col <= 1

    @given(
        st.integers(min_value=1, max_value=10),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=10),
    )
    @settings(max_examples=500)
    def test_relation_hypothesis(self, m, raw):
        counts = {i % m: c for i, c in enumerate(raw) if c}
        if not counts:
            counts = {0: 1}
        t = Tally(m, counts)
        assert check_collision_sd_relation(t)

    def test_collision_lower_bound_matches_relation(self):
        t = Tally(3, {0: 4, 1: 1, 2: 1})
        assert collision_probability_exact(t) >= collision_lower_bound(
            statistical_distance_exact(t), t.m
        )

    def test_float_wrappers(self):
        t = Tally(2, {0: 3, 1: 1})
        assert statistical_distance(t) == 0.25
        assert collision_probability(t) == 0.625

    def test_is_delta_uniform(self):
        t = Tally(2, {0: 3, 1: 1})
        assert is_delta_uniform(t, 0.25)
        assert is_delta_uniform(t, Fraction(1, 4))
        assert not is_delta_uniform(t, 0.2499)


class TestBounds:
    def test_coords_bound_goldens(self):
        assert sd_bound_coords(7, 1, 1) == pytest.approx(0.0625, rel=1e-12)
        assert sd_bound_coords(11, 1, 1) == pytest.approx(1 / 24, rel=1e-12)
        assert sd_bound_coords(13, 1, 1) == pytest.approx(1 / 28, rel=1e-12)
        assert sd_bound_coords(3, 3, 1) == pytest.approx(1 / 168, rel=1e-12)
        assert sd_bound_coords(3, 3, 2) == pytest.approx(
            0.010309826235529031, rel=1e-12
        )

    def test_bits_bound_goldens(self):
        # formula value; the spec's 0.6477 footnote does not match any
        # reading of the expression, while its p=127 value does
        assert sd_bound_bits(7, 1) == pytest.approx(0.6464726266272206, rel=1e-12)
        assert sd_bound_bits(127, 1) == pytest.approx(0.12808295747948903, rel=1e-12)

    def test_bound_domains(self):
        with pytest.raises(KOutOfRangeError):
            sd_bound_coords(7, 1, 2)
        with pytest.raises(KOutOfRangeError):
            sd_bound_bits(7, 3)

    def test_envelopes(self):
        assert acceptance_envelope(ExtractorKind.SUM, 7, 1, 1) == pytest.approx(
            5 / math.sqrt(7)
        )
        assert acceptance_envelope(ExtractorKind.PROD, 3, 3, 1) == pytest.approx(
            5 / math.sqrt(27)
        )
        assert acceptance_envelope(ExtractorKind.SK, 7, 1, 1) == pytest.approx(
            5 * sd_bound_bits(7, 1)
        )


class TestDistributions:
    def test_exact_f7_goldens(self, c7):
        # frozen from an independent naive-scan oracle
        t = exact_output_distribution(c7, ExtractorKind.SUM, 1)
        assert statistical_distance_exact(t) == Fraction(59, 350)
        t = exact_output_distribution(c7, ExtractorKind.PROD, 1)
        assert statistical_distance_exact(t) == Fraction(61, 350)
        t = exact_output_distribution(c7, ExtractorKind.SK, 1)
        assert t.counts == {0: 26, 1: 24}
        t = exact_output_distribution(c7, ExtractorKind.PK, 1)
        assert t.counts == {0: 30, 1: 20}

    def test_exact_f11_f13_goldens(self, c11, c13):
        assert statistical_distance_exact(
            exact_output_distribution(c11, ExtractorKind.SUM, 1)
        ) == Fraction(2, 11)
        assert statistical_distance_exact(
            exact_output_distribution(c11, ExtractorKind.PROD, 1)
        ) == Fraction(15, 88)
        assert exact_output_distribution(c11, ExtractorKind.SK, 1).counts == {
            0: 44, 1: 44,
        }
        assert statistical_distance_exact(
            exact_output_distribution(c13, ExtractorKind.SK, 1)
        ) == Fraction(4, 117)
        assert exact_output_distribution(c13, ExtractorKind.PK, 1).counts == {
            0: 133, 1: 101,
        }

    def test_exact_f27_goldens(self, c27):
        t = exact_output_distribution(c27, ExtractorKind.SUM, 1)
        assert [t.counts.get(i, 0) for i in range(3)] == [252, 217, 215]
        assert statistical_distance_exact(t) == Fraction(2, 57)
        t = exact_output_distribution(c27, ExtractorKind.PROD, 1)
        assert [t.counts.get(i, 0) for i in range(3)] == [228, 250, 206]
        assert statistical_distance_exact(t) == Fraction(11, 342)

    def test_identity_divisor_lands_on_zero(self, c7):
        t = exact_output_distribution(c7, ExtractorKind.SUM, 1)
        assert t.counts[0] >= 1  # the neutral class maps to outcome 0

    def test_exact_totals_are_group_order(self, c7, c27):
        for curve in (c7, c27):
            t = exact_output_distribution(curve, ExtractorKind.SUM, 1)
            assert t.total == curve.jacobian_order()

    def test_monte_carlo_determinism(self, c7):
        a = monte_carlo_distribution(c7, ExtractorKind.SUM, 1, 5000, seed=42)
        b = monte_carlo_distribution(c7, ExtractorKind.SUM, 1, 5000, seed=42)
        assert a == b
        c = monte_carlo_distribution(c7, ExtractorKind.SUM, 1, 5000, seed=43)
        assert a != c

    @pytest.mark.parametrize("seed", [42, 123])
    def test_monte_carlo_converges(self, c7, seed):
        exact = exact_output_distribution(c7, ExtractorKind.SUM, 1)
        mc = monte_carlo_distribution(c7, ExtractorKind.SUM, 1, 100_000, seed=seed)
        dev = abs(statistical_distance(mc) - statistical_distance(exact))
        assert dev <= 0.02

    def test_monte_carlo_validation(self, c7):
        with pytest.raises(ValueError):
            monte_carlo_distribution(c7, ExtractorKind.SUM, 1, 0, seed=1)


class TestSDReport:
    def test_report_fields(self, c7):
        t = exact_output_distribution(c7, ExtractorKind.SUM, 1)
        rep = sd_report(c7, ExtractorKind.SUM, 1, t)
        assert isinstance(rep, SDReport)
        assert rep.extractor == "sum" and rep.k == 1 and rep.m == 7
        assert rep.sd == pytest.approx(59 / 350)
        assert rep.sd_sqrt_q == pytest.approx(rep.sd * math.sqrt(7))
        assert rep.bound_coords == pytest.approx(0.0625)
        assert rep.bound_bits is None and rep.ratio_bits is None
        assert rep.ratio_coords == pytest.approx(rep.sd / 0.0625)
        assert 0 <= rep.sd <= 1
        assert 1 / rep.m <= rep.col <= 1

    def test_report_bitwise(self, c7):
        t = exact_output_distribution(c7, ExtractorKind.SK, 1)
        rep = sd_report(c7, ExtractorKind.SK, 1, t)
        assert rep.bound_coords is None and rep.ratio_coords is None
        assert rep.bound_bits == pytest.approx(sd_bound_bits(7, 1))
        assert rep.sd == pytest.approx(0.02)

    def test_report_montecarlo_metadata(self, c7):
        t = monte_carlo_distribution(c7, ExtractorKind.PROD, 1, 500, seed=9)
        rep = sd_report(c7, ExtractorKind.PROD, 1, t, mode="montecarlo", samples=500, seed=9)
        assert rep.mode == "montecarlo"
        assert rep.samples == 500 and rep.seed == 9


def per_sample_reference(curve, kind, k, samples, seed):
    """Monte-Carlo tally with one extract call per sample."""
    J = curve.enumerate_jacobian()
    src = RandomSource(seed)
    p = curve.field.p
    return Tally.from_outcomes(
        outcome_count(kind, curve.field, k),
        (
            outcome_index(kind, p, extract(curve, J[src.next_below(len(J))], kind, k))
            for _ in range(samples)
        ),
    )


# c9 is over F_3^2, where the bit extractors are undefined
MC_CASES = [(name, kind) for name in ("c7", "c11") for kind in ExtractorKind] + [
    ("c9", ExtractorKind.SUM),
    ("c9", ExtractorKind.PROD),
]


class TestMonteCarloMemo:
    """monte_carlo_distribution extracts each drawn class once per call."""

    @pytest.mark.parametrize("name,kind", MC_CASES)
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_matches_per_sample_reference(self, request, name, kind, seed):
        curve = request.getfixturevalue(name)
        order = len(curve.enumerate_jacobian())
        k = 2 if curve.field.n == 2 else 1
        for samples in (1, order // 2, 3 * order):
            got = monte_carlo_distribution(curve, kind, k, samples, seed)
            want = per_sample_reference(curve, kind, k, samples, seed)
            assert got == want
            assert got.total == samples
            # same first-occurrence order as the per-sample tally
            assert list(got.counts) == list(want.counts)

    @pytest.mark.parametrize("name", ["c7", "c9", "c27"])
    def test_extracts_each_drawn_class_once(self, request, monkeypatch, name):
        curve = request.getfixturevalue(name)
        J = curve.enumerate_jacobian()
        calls = []

        def counting_extract(c, D, kind, k):
            calls.append(D)
            return extract(c, D, kind, k)

        monkeypatch.setattr(stats, "extract", counting_extract)
        for samples in (len(J) // 3, 4 * len(J)):
            calls.clear()
            monte_carlo_distribution(curve, ExtractorKind.SUM, 1, samples, seed=5)
            src = RandomSource(5)
            drawn = {src.next_below(len(J)) for _ in range(samples)}
            assert len(calls) == len(drawn) <= min(samples, len(J))
            assert len(set(calls)) == len(calls)

    def test_invalid_class_raises_when_first_drawn(self):
        curve = HyperellipticCurve(finite_field(7), "1,0,0,0,0,1")
        K = curve.field
        J = list(curve.enumerate_jacobian())
        # u = x^2 + 1, v = 0 does not satisfy v^2 = f mod u over F_7
        bad = MumfordDivisor(Poly(K, (1, 0, 1)), Poly(K, ()))
        assert not curve.is_valid_divisor(bad)
        J[1] = bad
        curve.preload_enumeration(J)
        src = RandomSource(3)
        first = 0
        while src.next_below(len(J)) != 1:
            first += 1
        if first:
            monte_carlo_distribution(curve, ExtractorKind.SUM, 1, first, seed=3)
        with pytest.raises(InvalidDivisorError):
            monte_carlo_distribution(curve, ExtractorKind.SUM, 1, first + 1, seed=3)

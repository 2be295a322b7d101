"""Exact distribution statistics, RNG determinism, bounds and reports."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjac import cli, extractors, stats
from xjac.curve import HyperellipticCurve
from xjac.extractors import (
    ExtractorKind,
    extract,
    max_k,
    outcome_count,
    outcome_index,
)
from xjac.field import finite_field
from xjac.stats import (
    RandomSource,
    SDReport,
    Tally,
    acceptance_envelope,
    check_collision_sd_relation,
    collision_lower_bound,
    collision_probability_exact,
    exact_output_distribution,
    monte_carlo_distribution,
    sd_bound_bits,
    sd_bound_coords,
    sd_report,
    statistical_distance_exact,
)


def splitmix64(state):
    """The reference stream, one raw draw at a time (Steele, Lea and
    Flood, OOPSLA 2014)."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) % (1 << 64)
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % (1 << 64)
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % (1 << 64)
        yield z ^ (z >> 31)


class TestRandomSource:
    def test_determinism(self):
        assert RandomSource(42).below(1 << 64, 100) == RandomSource(42).below(1 << 64, 100)

    def test_different_seeds_differ(self):
        assert RandomSource(1).below(1 << 64, 1) != RandomSource(2).below(1 << 64, 1)

    def test_below_range_and_coverage(self):
        draws = RandomSource(7).below(11, 2000)
        assert all(0 <= v < 11 for v in draws)
        assert set(draws) == set(range(11))

    def test_algorithm_tag(self):
        assert RandomSource(0).algorithm == "splitmix64"

    @pytest.mark.parametrize(
        "seed,published",
        [
            (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
            (1234567, [6457827717110365317, 3203168211198807973]),
        ],
    )
    def test_published_splitmix64_vectors(self, seed, published):
        src = RandomSource(seed)
        assert [src.below(1 << 64, 1)[0] for _ in published] == published
        assert RandomSource(seed).below(1 << 64, len(published)) == published

    @pytest.mark.parametrize("n", [1, 11, 855982, 3 << 62, 1 << 64])
    # 1024 raw draws a pass: the lane constants change with k at 1023, 1024 and 1025
    @pytest.mark.parametrize("count", [0, 1, 1000, 1023, 1024, 1025, 2048, 2049, 2500])
    def test_below_is_count_single_draws(self, n, count):
        """below mixes up to 1024 raw draws per pass; the draws, the
        rejections and the state left behind are those of the textbook
        generator drawn one at a time, and of count below(n, 1) calls."""
        one, batch = RandomSource(5), RandomSource(5)
        singles = [one.below(n, 1)[0] for _ in range(count)]
        assert batch.below(n, count) == singles
        assert batch._state == one._state
        raw, expected = splitmix64(5), []
        while len(expected) < count:
            r = next(raw)
            if r < (1 << 64) - (1 << 64) % n:
                expected.append(r % n)
        assert singles == expected
        consumed = (one._state - 5) * pow(0x9E3779B97F4A7C15, -1, 1 << 64) % (1 << 64)
        # 2^64 mod 3*2^62 = 2^62: a quarter of raw draws are rejected
        assert consumed > count if n == 3 << 62 and count >= 1000 else consumed == count
        assert [next(raw)] == one.below(1 << 64, 1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, 0, -1, "11", (1 << 64) + 1])
    def test_below_needs_an_int_n_in_1_to_2_64(self, n):
        # above 2^64 every raw draw would be rejected
        message = re.escape(f"need an int n in [1, 2^64], got {n!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            RandomSource(0).below(n, 1)

    @pytest.mark.parametrize("count", [-1, 2.0, True, None])
    def test_below_needs_an_int_count_of_at_least_0(self, count):
        with pytest.raises(ValueError, match=f"^need an int count >= 0, got {count!r}$"):
            RandomSource(0).below(11, count)

    @pytest.mark.parametrize("seed", [True, False, 1.0, -1])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative int, got {seed!r}$"):
            RandomSource(seed)


class TestTally:
    def test_from_outcomes(self):
        t = Tally.from_outcomes(4, [0, 1, 1, 3])
        assert t.total == 4
        assert t.counts == {0: 1, 1: 2, 3: 1}

    def test_from_outcomes_keeps_first_occurrence_order(self):
        """counts, and so the Tally's repr, list outcomes in order of first
        occurrence."""
        t = Tally.from_outcomes(8, [5, 0, 5, 7, 0, 2, 7, 7])
        assert list(t.counts.keys()) == [5, 0, 7, 2]
        assert list(t.counts.values()) == [2, 2, 3, 1]
        assert type(t.counts) is dict
        rng = random.Random(3)
        draws = [rng.randrange(50) for _ in range(2000)]
        assert list(Tally.from_outcomes(50, draws).counts) == list(dict.fromkeys(draws))
        with pytest.raises(ValueError, match=r"^outcome index True outside \[0, 2\)$"):
            Tally.from_outcomes(2, [0, True])

    def test_validation(self):
        with pytest.raises(ValueError, match="^outcome space size must be >= 1, got 0$"):
            Tally(0, {})
        with pytest.raises(ValueError, match=r"^outcome index 4 outside \[0, 4\)$"):
            Tally(4, {4: 1})
        with pytest.raises(ValueError, match="^count -1 for outcome 0 is not an int >= 0$"):
            Tally(4, {0: -1})
        with pytest.raises(ValueError, match="^tally needs at least one observation$"):
            Tally(4, {})  # no observations

    def test_bool_is_not_an_index_count_or_size(self):
        with pytest.raises(ValueError, match="^outcome space size must be >= 1, got True$"):
            Tally(True, {0: 1})
        with pytest.raises(ValueError, match=r"^outcome index True outside \[0, 4\)$"):
            Tally(4, {True: 1})
        with pytest.raises(ValueError, match="^count True for outcome 0 is not an int >= 0$"):
            Tally(4, {0: True})


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
        """The exact values round to the floats a report shows."""
        t = Tally(2, {0: 3, 1: 1})
        assert float(statistical_distance_exact(t)) == 0.25
        assert float(collision_probability_exact(t)) == 0.625


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
        with pytest.raises(ValueError, match=r"^k must be in \[1, 1\], got 2$"):
            sd_bound_coords(7, 1, 2)
        with pytest.raises(ValueError, match=r"^k must satisfy 2\*\*k <= p=7, got 3$"):
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
        dev = abs(statistical_distance_exact(mc) - statistical_distance_exact(exact))
        assert dev <= 0.02

    def test_monte_carlo_validation(self, c7):
        with pytest.raises(ValueError, match="^samples must be >= 1, got 0$"):
            monte_carlo_distribution(c7, ExtractorKind.SUM, 1, 0, seed=1)
        with pytest.raises(ValueError, match="^samples must be >= 1, got True$"):
            monte_carlo_distribution(c7, ExtractorKind.SUM, 1, True, seed=1)


def enumerated_tallies(curve, kind):
    """Oracle: the tally for every valid k by extracting each enumerated
    class, as exact_output_distribution did before it counted; the output
    for k is the first k entries of the output for the largest k."""
    p, top = curve.field.p, max_k(kind, curve.field)
    outs = [extract(curve, D, kind, top) for D in curve.enumerate_jacobian()]
    return {
        k: Tally.from_outcomes(
            outcome_count(kind, curve.field, k),
            (outcome_index(kind, p, out[:k]) for out in outs),
        )
        for k in range(1, top + 1)
    }


def fresh_curve(p, n, f):
    return HyperellipticCurve(finite_field(p, n), f)


COUNTED_CURVES = {
    "F7^2": (7, 2, "1,3,0,0,0,1"),
    "F3^4": (3, 4, "2,0,1,0,0,1"),
    "F101": (101, 1, "1,3,0,0,0,1"),
}


class TestCountedTally:
    """exact_output_distribution counts #v per u; enumeration is its oracle."""

    @pytest.mark.parametrize("name", ["c7", "c9", "c11", "c13", "c27", *COUNTED_CURVES])
    def test_counted_equals_enumerated(self, request, name):
        if name in COUNTED_CURVES:
            curve = fresh_curve(*COUNTED_CURVES[name])
        else:
            curve = request.getfixturevalue(name)
        kinds = [k for k in ExtractorKind if curve.field.n == 1 or not k.is_bitwise]
        for kind in kinds:
            for k, want in enumerated_tallies(curve, kind).items():
                got = exact_output_distribution(curve, kind, k)
                assert got == want, (name, kind, k)
                assert got.total == want.total == len(curve.enumerate_jacobian())

    def test_exact_tally_does_not_enumerate(self):
        curve = fresh_curve(13, 1, "1,2,0,0,0,1")
        for kind in ExtractorKind:
            exact_output_distribution(curve, kind, 1)
        assert curve._jacobian is None and curve._counts is not None

    def test_one_counting_pass_per_curve(self, monkeypatch, table_builds):
        curve = fresh_curve(11, 1, "1,1,0,0,0,1")
        passes = []
        count_prime = HyperellipticCurve._count_prime

        def counting_prime(self):
            passes.append(self)
            return count_prime(self)

        monkeypatch.setattr(HyperellipticCurve, "_count_prime", counting_prime)
        for kind in ExtractorKind:
            for k in range(1, max_k(kind, curve.field) + 1):
                exact_output_distribution(curve, kind, k)
        # one count over the u on ints, shared by every (kind, k); over F_p
        # no per-u table is built
        assert passes == [curve]
        assert table_builds == [] and curve._table is None

    @pytest.mark.parametrize("first", ["exact", "montecarlo"])
    def test_exact_and_monte_carlo_share_one_table(self, table_builds, first):
        curve = fresh_curve(13, 1, "1,2,0,0,0,1")
        tallies = [
            lambda kind: exact_output_distribution(curve, kind, 1),
            lambda kind: monte_carlo_distribution(curve, kind, 1, 50, 3),
        ]
        for tally in tallies if first == "exact" else tallies[::-1]:
            for kind in ExtractorKind:
                tally(kind)
        assert table_builds == [curve]

    def test_errors_as_before_and_no_count(self):
        curve = fresh_curve(7, 1, "1,0,0,0,0,1")
        with pytest.raises(ValueError, match=r"^k must be in \[1, 1\] for sum over F_7, got 2$"):
            exact_output_distribution(curve, ExtractorKind.SUM, 2)
        with pytest.raises(ValueError, match=r"^k must be in \[1, 2\] for sk over F_7, got 3$"):
            exact_output_distribution(curve, ExtractorKind.SK, 3)
        with pytest.raises(ValueError, match=r"^k must be in \[1, 2\] for pk over F_7, got 0$"):
            exact_output_distribution(curve, ExtractorKind.PK, 0)
        ext = fresh_curve(3, 2, "1,0,0,0,0,1")
        for kind in (ExtractorKind.SK, ExtractorKind.PK):
            prime_only = f"^{kind.value} is defined over prime fields only, field has degree 2$"
            with pytest.raises(ValueError, match=prime_only):
                exact_output_distribution(ext, kind, 1)
        # every error is raised before the counting pass
        assert curve._counts is None and ext._counts is None
        assert curve._jacobian is None and ext._jacobian is None

    @pytest.mark.parametrize("p, n", [(7, 1), (31, 1), (3, 4), (5, 2), (3, 5)])
    def test_outcome_is_value_mod_m(self, monkeypatch, p, n):
        """Both tallies put a class whose sum or product is val on outcome
        val % m, and extract outputs the digits of val % m: against a
        reference, its first k coordinates (sum, prod) or its k low bits,
        LSB first (sk, pk), for every val and every admissible (kind, k)."""
        K = finite_field(p, n)
        curve = HyperellipticCurve(K, "0,1,0,0,0,1")  # x^5 + x
        kinds = [kind for kind in ExtractorKind if n == 1 or not kind.is_bitwise]
        for val in range(K.q):
            # extract reads val off any class as its sum or product
            monkeypatch.setattr(extractors, "_scalar_value", lambda *_: val)
            for kind in kinds:
                for k in range(1, max_k(kind, K) + 1):
                    if kind.is_bitwise:
                        want = tuple((val >> i) & 1 for i in range(k))
                    else:
                        want = K.coords(val)[:k]
                    got = extract(curve, curve.zero(), kind, k)
                    assert got == want, (val, kind, k)
                    m = outcome_count(kind, K, k)
                    assert outcome_index(kind, p, got) == val % m


class TestSDReport:
    def test_report_fields(self, c7):
        t = exact_output_distribution(c7, ExtractorKind.SUM, 1)
        rep = sd_report(c7, ExtractorKind.SUM, 1, t)
        assert isinstance(rep, SDReport)
        assert rep.m == 7
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
        """The report holds statistics only: a row's identity columns are
        written once, by the CLI's _extract_cell."""
        t = monte_carlo_distribution(c7, ExtractorKind.PROD, 1, 500, seed=9)
        rep = sd_report(c7, ExtractorKind.PROD, 1, t)
        assert not {"extractor", "k", "mode", "samples", "seed"} & set(rep._fields)
        row = cli._extract_row(c7, ExtractorKind.PROD, 1, "montecarlo", 500, 9, "extract-sd")
        assert (row["extractor"], row["k"], row["mode"], row["samples"], row["seed"]) == (
            "prod", 1, "montecarlo", 500, 9
        )
        assert row["sd"] == rep.sd and row["m"] == rep.m


def per_sample_reference(curve, kind, k, samples, seed):
    """Monte-Carlo tally with one extract call per sample."""
    J = curve.enumerate_jacobian()
    src = RandomSource(seed)
    p = curve.field.p
    return Tally.from_outcomes(
        outcome_count(kind, curve.field, k),
        (
            outcome_index(kind, p, extract(curve, J[i], kind, k))
            for i in src.below(len(J), samples)
        ),
    )


# c9 is over F_3^2, where the bit extractors are undefined
MC_CASES = [(name, kind) for name in ("c7", "c11") for kind in ExtractorKind] + [
    ("c9", ExtractorKind.SUM),
    ("c9", ExtractorKind.PROD),
]


class TestMonteCarloMemo:
    """monte_carlo_distribution places its draws on the counted runs of
    classes per u; the per-sample tally over the enumeration is its oracle."""

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
    def test_extracts_only_the_neutral_class(self, request, monkeypatch, name):
        curve = request.getfixturevalue(name)
        calls = []

        def counting_extract(c, D, kind, k):
            calls.append(D)
            return extract(c, D, kind, k)

        def forbidden(*args, **kwargs):
            raise AssertionError("Monte-Carlo enumerated the Jacobian")

        monkeypatch.setattr(stats, "extract", counting_extract)
        monkeypatch.setattr(HyperellipticCurve, "enumerate_jacobian", forbidden)
        order = curve.jacobian_order()
        for samples in (order // 3, 4 * order):
            calls.clear()
            monte_carlo_distribution(curve, ExtractorKind.SUM, 1, samples, seed=5)
            assert calls == [curve.zero()]

    def test_sampling_builds_no_divisor(self):
        """Sampling reads the per-u table, and |J| from it: no divisor and
        no second count on ints."""
        curve = fresh_curve(13, 1, "1,2,0,0,0,1")
        for kind in ExtractorKind:
            monte_carlo_distribution(curve, kind, 1, 1000, seed=4)
        assert curve._jacobian is None and curve._table is not None
        assert curve._counts is None

    def test_errors_before_any_count(self):
        curve = fresh_curve(7, 1, "1,0,0,0,0,1")
        with pytest.raises(ValueError, match=r"^k must be in \[1, 1\] for sum over F_7, got 2$"):
            monte_carlo_distribution(curve, ExtractorKind.SUM, 2, 10, seed=1)
        ext = fresh_curve(3, 2, "1,0,0,0,0,1")
        with pytest.raises(
            ValueError, match="^pk is defined over prime fields only, field has degree 2$"
        ):
            monte_carlo_distribution(ext, ExtractorKind.PK, 1, 10, seed=1)
        assert curve._counts is None and ext._counts is None

"""Acceptance gate.

Each criterion below is a single test that prints exactly one PASS/FAIL
line (visible under `pytest -s`).  A criterion fails loudly via assert;
the printed line flips to FAIL in that case.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import csv
import functools
import io
import math
import random
import time
from fractions import Fraction

import pytest

from xjac.charsum import (
    AdditiveSubgroup,
    interval_char_sum,
    orthogonality_sum,
    poly_char_sum,
    winterhof_sum,
)
from xjac.cli import main as cli_main
from xjac.curve import HyperellipticCurve, find_squarefree_quintic
from xjac.extractors import ExtractorKind, extract
from xjac.field import finite_field, is_prime
from xjac.poly import Poly
from xjac.stats import (
    RandomSource,
    Tally,
    check_collision_sd_relation,
    collision_probability_exact,
    exact_output_distribution,
    monte_carlo_distribution,
    sd_bound_bits,
    statistical_distance_exact,
)

PRIME_CURVES = [(7, "1,0,0,0,0,1"), (11, "1,1,0,0,0,1"), (13, "1,2,0,0,0,1")]


def criterion(label):
    """One printed line per criterion, PASS only if every assert held."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\n{label}: FAIL", flush=True)
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"\n{label}: PASS{suffix}", flush=True)

        return inner

    return wrap


@pytest.fixture(scope="module")
def prime_curves():
    return [HyperellipticCurve(finite_field(p, 1), f) for p, f in PRIME_CURVES]


@pytest.fixture(scope="module")
def ext_curve():
    K = finite_field(3, 3)
    return HyperellipticCurve(K, find_squarefree_quintic(K))


@criterion("criterion 1 group-law suite")
def test_criterion_1_group_laws(prime_curves):
    worst = 0.0
    for curve in prime_curves:
        start = time.perf_counter()
        J = curve.enumerate_jacobian()
        order = len(J)
        assert order <= 2 * 10**4  # exhaustive coverage applies
        members = set(J)

        # closure and commutativity over every unordered pair
        for i, A in enumerate(J):
            for B in J[i:]:
                AB = curve.cantor_add(A, B)
                assert AB in members
                assert AB == curve.cantor_add(B, A)

        # associativity on seeded random triples
        draws = RandomSource(2024).below(order, 3000)
        for a, b, c in zip(draws[0::3], draws[1::3], draws[2::3]):
            A, B, C = J[a], J[b], J[c]
            left = curve.cantor_add(curve.cantor_add(A, B), C)
            right = curve.cantor_add(A, curve.cantor_add(B, C))
            assert left == right

        # identity and inverse for every element
        zero = curve.zero()
        for D in J:
            assert curve.cantor_add(D, zero) == D
            assert curve.cantor_add(D, curve.neg(D)) == zero

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        worst = max(worst, elapsed)
    orders = "/".join(str(c.jacobian_order()) for c in prime_curves)
    return f"|J| = {orders}, slowest curve {worst:.1f}s"


@criterion("criterion 2 points and orders")
def test_criterion_2_points_orders(prime_curves, ext_curve):
    c7 = prime_curves[0]
    expected = {(0, 1), (0, 6), (1, 3), (1, 4), (5, 2), (5, 5), (6, 0)}
    assert set(c7.points()) == expected

    for curve in [*prime_curves, ext_curve]:
        low, high = curve.weil_interval()
        order = curve.jacobian_order()
        assert low <= order <= high

        J = curve.enumerate_jacobian()
        zero = curve.zero()
        for i in RandomSource(1729).below(order, 100):
            D = J[i]
            assert curve.scalar_mul(D, order) == zero
    return "7 affine points on y^2=x^5+1/F_7; |J| in Weil interval x4; 100 annihilations/curve"


@criterion("criterion 3 character-sum laws")
def test_criterion_3_charsum_laws():
    start = time.perf_counter()

    # exact orthogonality for every odd prime field up to 101
    for p in range(3, 102, 2):
        if not is_prime(p):
            continue
        K = finite_field(p, 1)
        for a in range(p):
            got = orthogonality_sum(K, a)
            want = p if a == 0 else 0.0
            assert abs(got - want) <= 1e-9 * p

    for p in (5, 7, 11, 13):
        K = finite_field(p, 1)
        root_q = math.sqrt(p)
        # degree-1 sums vanish for every nontrivial character
        for c1 in range(1, p):
            for c0 in range(p):
                for a in range(1, p):
                    rep = poly_char_sum(K, Poly(K, (c0, c1)), a)
                    assert rep.magnitude <= 1e-9
        # every monic quadratic hits the square-root law and Mordell
        for c0 in range(p):
            for c1 in range(p):
                P = Poly(K, (c0, c1, 1))
                for a in range(1, p):
                    rep = poly_char_sum(K, P, a)
                    assert abs(rep.magnitude - root_q) <= 1e-6 * root_q
                    assert rep.magnitude <= rep.bound

    # Winterhof equality over every basis-span subgroup
    for p in (3, 5):
        for n in (2, 3):
            K = finite_field(p, n)
            q = p**n
            for mask in range(2**n):
                basis = [i for i in range(n) if mask >> i & 1]
                rep = winterhof_sum(K, AdditiveSubgroup(K, basis))
                assert abs(rep.magnitude - q) <= 1e-6 * q

    # initial-interval sums stay under p*log2(p) for every length
    for p in (7, 31, 101):
        cap = p * math.log2(p)
        for L in range(1, p + 1):
            rep = interval_char_sum(p, L)
            assert rep.magnitude <= cap + 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    return f"orthogonality p<=101, Gauss/Mordell, Winterhof, intervals in {elapsed:.1f}s"


def _criterion_5_6_tallies(prime_curves, ext_curve):
    """The tallies behind criteria 5 and 6, reproduced at library level."""
    tallies = []
    for curve in prime_curves:
        for kind in ExtractorKind:
            tallies.append(exact_output_distribution(curve, kind, 1))
    for kind in (ExtractorKind.SUM, ExtractorKind.PROD):
        tallies.append(exact_output_distribution(ext_curve, kind, 1))
    tallies.append(
        monte_carlo_distribution(
            prime_curves[0], ExtractorKind.SUM, 1, 100_000, seed=42
        )
    )
    return tallies


@criterion("criterion 4 collision/SD quadratic relation")
def test_criterion_4_col_sd_relation(prime_curves, ext_curve):
    checked = 0
    for t in _criterion_5_6_tallies(prime_curves, ext_curve):
        assert check_collision_sd_relation(t)
        checked += 1

    rng = random.Random(271828)
    for _ in range(10_000):
        m = rng.randint(1, 16)
        counts = {i: rng.randint(0, 30) for i in range(m)}
        if sum(counts.values()) == 0:
            counts[0] = 1
        assert check_collision_sd_relation(Tally(m, counts))
        checked += 1

    witness = Tally(4, {0: 2, 1: 2})
    assert collision_probability_exact(witness) == Fraction(1, 2)
    assert statistical_distance_exact(witness) == Fraction(1, 2)
    assert check_collision_sd_relation(witness)
    return f"{checked} tallies exact, (2,2,0,0)/m=4 equality witness"


@criterion("criterion 5 extractor SD envelope")
def test_criterion_5_sd_envelope(prime_curves, ext_curve, tmp_path, capsys):
    start = time.perf_counter()

    out_csv = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--p", "7,11,13", "--c", "0,1,2", "--f", "1,c,0,0,0,1",
        "--extractor", "sum,prod,sk,pk", "--k", "1", "--out", str(out_csv),
    ]
    assert cli_main(argv) == 0
    capsys.readouterr()

    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    cells = [r for r in rows if r["experiment_id"] != "summary"]
    assert len(cells) == 12
    for row in cells:
        assert row["status"] == "ok"
        assert row["sd"] != "" and row["sd_sqrt_q"] != ""
        q = int(row["q"])
        sd = float(row["sd"])
        if row["extractor"] in ("sum", "prod"):
            assert sd <= 5 / math.sqrt(q)
            assert row["ratio_coords"] != ""  # reported, not asserted
        else:
            assert sd <= 5 * sd_bound_bits(int(row["p"]), 1)
            assert row["ratio_bits"] != ""

    # extension-field case: bit extractors need a prime field, so the
    # q = 27 column runs the two coordinate extractors
    ext_rows = []
    for kind in ("sum", "prod"):
        out2 = tmp_path / f"ext-{kind}.csv"
        argv = [
            "extract-sd", "--p", "3", "--n", "3",
            "--f", ext_curve.f.to_string(),
            "--extractor", kind, "--k", "1", "--out", str(out2),
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        (row,) = list(csv.DictReader(io.StringIO(out2.read_text())))
        ext_rows.append(row)
        assert float(row["sd"]) <= 5 / math.sqrt(27)

    # the CSV values mirror the exact rational distances
    for curve in [*prime_curves, ext_curve]:
        q = curve.field.q
        for kind in (ExtractorKind.SUM, ExtractorKind.PROD):
            sd = statistical_distance_exact(exact_output_distribution(curve, kind, 1))
            assert sd <= Fraction(5) / Fraction(math.sqrt(q))
    for curve in prime_curves:
        p = curve.field.p
        for kind in (ExtractorKind.SK, ExtractorKind.PK):
            sd = statistical_distance_exact(exact_output_distribution(curve, kind, 1))
            assert float(sd) <= 5 * sd_bound_bits(p, 1)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    worst = max(float(r["sd_sqrt_q"]) for r in cells)
    return f"12 sweep cells + 2 extension cells under envelopes, max sd*sqrt(q) = {worst:.3f}, {elapsed:.1f}s"


@criterion("criterion 6 Monte-Carlo consistency")
def test_criterion_6_monte_carlo(prime_curves, tmp_path, capsys):
    argv = [
        "extract-sd", "--p", "7", "--f", "1,0,0,0,0,1",
        "--extractor", "sum", "--k", "1",
        "--mode", "montecarlo", "--samples", "100000", "--seed", "42",
        "--out",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main([*argv, str(a)]) == 0
    assert cli_main([*argv, str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    (row,) = list(csv.DictReader(io.StringIO(a.read_text())))
    exact = statistical_distance_exact(
        exact_output_distribution(prime_curves[0], ExtractorKind.SUM, 1)
    )
    gap = abs(float(row["sd"]) - float(exact))
    assert gap <= 0.02
    return f"N=100000 seed=42, |empirical-exact| = {gap:.4f}, reruns byte-identical"


@criterion("criterion 7 worked-example regression")
def test_criterion_7_worked_example(prime_curves):
    curve = prime_curves[0]
    K = curve.field
    D1 = curve.divisor_from_point((0, 1))
    assert D1.u == Poly(K, (0, 1)) and D1.v == Poly(K, (1,))

    D2 = curve.divisor_from_point((1, 3))  # x + 6 vanishes at x = 1
    assert D2.u == Poly(K, (6, 1)) and D2.v == Poly(K, (3,))

    S = curve.cantor_add(D1, D2)
    assert S.u == Poly(K, (0, 6, 1))  # x^2 + 6x
    assert S.v == Poly(K, (1, 2))  # 2x + 1

    assert extract(curve, S, ExtractorKind.SUM, 1) == (1,)
    assert extract(curve, S, ExtractorKind.PROD, 1) == (0,)
    assert extract(curve, S, ExtractorKind.SK, 1) == (1,)
    assert extract(curve, S, ExtractorKind.PK, 1) == (0,)
    return "[x,1] + [x+6,3] = [x^2+6x, 2x+1]; outputs (1)/(0)/(1)/(0)"

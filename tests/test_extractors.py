"""Extractor outputs: worked values, point semantics, ranges, errors."""

import re

import pytest

from xjac.curve import MumfordDivisor
from xjac.extractors import (
    ExtractorKind,
    extract,
    max_k,
    outcome_count,
    outcome_index,
)
from xjac.field import finite_field
from xjac.poly import Poly


def k_range(kind, field, k):
    """The message outcome_count gives for a k outside [1, max_k]."""
    top = max_k(kind, field)
    message = re.escape(f"k must be in [1, {top}] for {kind.value} over F_{field.q}, got {k!r}")
    return f"^{message}$"


def prime_only(kind, field):
    """The message outcome_count gives for a bit kind over an extension."""
    return f"^{kind.value} is defined over prime fields only, field has degree {field.n}$"


def test_kind_parsing():
    assert ExtractorKind.from_name("Sum") is ExtractorKind.SUM
    assert ExtractorKind.from_name(" pk ") is ExtractorKind.PK
    with pytest.raises(
        ValueError, match="^unknown extractor 'parity'; expected one of sum, prod, sk, pk$"
    ):
        ExtractorKind.from_name("parity")
    assert ExtractorKind.SK.is_bitwise and not ExtractorKind.SUM.is_bitwise
    assert ExtractorKind.PROD.uses_product and not ExtractorKind.SK.uses_product


SUM, PROD, SK, PK = ExtractorKind


def class_with_sum(curve, e):
    """Some class whose abscissas sum to e."""
    K = curve.field
    return next(D for D in curve.enumerate_jacobian()
                if D.weight and K.neg(D.u.coeff(D.weight - 1)) == e)


def test_coord_prefix(c27):
    K = c27.field
    D = class_with_sum(c27, K.from_coords((2, 1, 0)))
    assert extract(c27, D, SUM, 1) == (2,)
    assert extract(c27, D, SUM, 2) == (2, 1)
    assert extract(c27, D, SUM, 3) == (2, 1, 0)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 3\] for sum over F_27, got 0$"):
        extract(c27, D, SUM, 0)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 3\] for sum over F_27, got 4$"):
        extract(c27, D, SUM, 4)


def test_low_bits_lsb_first(c7, c13):
    assert extract(c7, class_with_sum(c7, 5), SK, 2) == (1, 0)     # 5 = 0b101
    assert extract(c7, class_with_sum(c7, 6), SK, 2) == (0, 1)
    assert extract(c13, class_with_sum(c13, 11), SK, 3) == (1, 1, 0)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 2\] for sk over F_7, got 3$"):
        extract(c7, class_with_sum(c7, 1), SK, 3)                  # 2^3 > 7


def test_max_k():
    assert max_k(ExtractorKind.SUM, finite_field(3, 3)) == 3
    assert max_k(ExtractorKind.SK, finite_field(7)) == 2
    assert max_k(ExtractorKind.PK, finite_field(13)) == 3


class TestDivisorValues:
    def test_worked_example_weight2(self, c7):
        # [x^2 + 6x, 2x + 1] has support x-coords {0, 1}: sum 1, product 0
        D = c7.cantor_add(
            c7.divisor_from_point((0, 1)), c7.divisor_from_point((1, 3))
        )
        assert extract(c7, D, SUM, 1) == (1,)
        assert extract(c7, D, PROD, 1) == (0,)
        assert extract(c7, D, SK, 1) == (1,)
        assert extract(c7, D, PK, 1) == (0,)

    def test_weight1(self, c7):
        D = c7.divisor_from_point((5, 2))
        assert extract(c7, D, SUM, 1) == (5,)
        assert extract(c7, D, PROD, 1) == (5,)
        assert extract(c7, D, SK, 2) == (1, 0)   # 5 = 0b101, LSB first

    def test_weight0(self, c7):
        Z = c7.zero()
        for kind in ExtractorKind:
            assert extract(c7, Z, kind, 1) == (0,)

    def test_point_semantics_all_pairs(self, c7):
        # Vieta: extractor values equal literal sum/product of x-coordinates
        K = c7.field
        pts = c7.points()
        for P in pts:
            for Q in pts:
                D = c7.cantor_add(
                    c7.divisor_from_point(P), c7.divisor_from_point(Q)
                )
                if D.weight != 2:
                    continue   # opposite points cancel
                assert extract(c7, D, SUM, 1) == (K.add(P.x, Q.x),)
                assert extract(c7, D, PROD, 1) == (K.mul(P.x, Q.x),)

    def test_extension_truncation_chain(self, c27):
        # k = n returns the full coordinate vector; smaller k prefixes it
        K = c27.field
        D = c27.enumerate_jacobian()[40]
        full = extract(c27, D, SUM, 3)
        assert extract(c27, D, SUM, 1) == full[:1]
        assert extract(c27, D, SUM, 2) == full[:2]
        values = K.from_coords(full)
        assert values == K.neg(D.u.coeff(1))

    def test_totality_over_enumeration(self, c9):
        for D in c9.enumerate_jacobian():
            for kind in (ExtractorKind.SUM, ExtractorKind.PROD):
                out = extract(c9, D, kind, 2)
                assert len(out) == 2 and all(0 <= d < 3 for d in out)


class TestErrors:
    def test_bitwise_requires_prime_field(self, c9):
        D = c9.zero()
        with pytest.raises(ValueError, match=prime_only(SK, c9.field)):
            extract(c9, D, SK, 1)
        with pytest.raises(ValueError, match=prime_only(PK, c9.field)):
            extract(c9, D, PK, 1)

    def test_k_out_of_range(self, c7):
        D = c7.zero()
        with pytest.raises(ValueError, match=r"^k must be in \[1, 1\] for sum over F_7, got 2$"):
            extract(c7, D, SUM, 2)     # n = 1
        with pytest.raises(ValueError, match=r"^k must be in \[1, 2\] for sk over F_7, got 3$"):
            extract(c7, D, SK, 3)      # 2^3 > 7

    @pytest.mark.parametrize("k", [True, False, 1.0])
    def test_k_must_be_an_int(self, c7, c9, k):
        for kind in ExtractorKind:
            with pytest.raises(ValueError, match=k_range(kind, c7.field, k)):
                extract(c7, c7.zero(), kind, k)
            with pytest.raises(ValueError, match=k_range(kind, c7.field, k)):
                outcome_count(kind, c7.field, k)
        with pytest.raises(ValueError, match=k_range(SUM, c9.field, k)):
            extract(c9, c9.zero(), SUM, k)

    def test_foreign_divisor_rejected(self, c7, F11):
        ghost = MumfordDivisor(Poly(F11, (0, 1)), Poly(F11, (1,)))
        on_c7 = r" is not a divisor on y\^2 = x\^5 \+ 1 over F_7$"
        with pytest.raises(ValueError, match=r"^\[x, 1\]" + on_c7):
            extract(c7, ghost, SUM, 1)
        off_curve = MumfordDivisor(Poly(c7.field, (1, 0, 1)), Poly.zero(c7.field))
        with pytest.raises(ValueError, match=r"^\[x\^2 \+ 1, 0\]" + on_c7):
            extract(c7, off_curve, SUM, 1)


def test_outcome_indexing_roundtrip():
    K7 = finite_field(7)
    assert outcome_count(ExtractorKind.SUM, K7, 1) == 7
    assert outcome_count(ExtractorKind.SK, K7, 2) == 4
    K27 = finite_field(3, 3)
    assert outcome_count(ExtractorKind.PROD, K27, 2) == 9
    # mixed-radix index: low digit first
    assert outcome_index(ExtractorKind.SUM, 3, (2, 1)) == 2 + 1 * 3
    assert outcome_index(ExtractorKind.SK, 7, (1, 0, 1)) == 0b101
    seen = set()
    for d0 in range(3):
        for d1 in range(3):
            seen.add(outcome_index(ExtractorKind.SUM, 3, (d0, d1)))
    assert seen == set(range(9))


@pytest.mark.parametrize("p, n", [(7, 1), (3, 3), (13, 1)])
def test_outcome_count_is_the_one_check(p, n):
    """outcome_count accepts exactly k in [1, max_k] and rejects a bit
    kind over an extension field whatever k is."""
    K = finite_field(p, n)
    for kind in ExtractorKind:
        if kind.is_bitwise and n > 1:
            for k in (0, 1, n, n + 1):
                with pytest.raises(ValueError, match=prime_only(kind, K)):
                    outcome_count(kind, K, k)
            continue
        top = max_k(kind, K)
        for k in (0, top + 1):
            with pytest.raises(ValueError, match=k_range(kind, K, k)):
                outcome_count(kind, K, k)
        for k in range(1, top + 1):
            assert outcome_count(kind, K, k) == (2**k if kind.is_bitwise else p**k)

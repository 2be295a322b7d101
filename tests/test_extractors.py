"""Extractor outputs: worked values, point semantics, ranges, errors."""

import pytest

from xjac.curve import MumfordDivisor
from xjac.errors import (
    InvalidDivisorError,
    KOutOfRangeError,
    RequiresPrimeFieldError,
)
from xjac.extractors import (
    ExtractorKind,
    coord_prefix,
    extract,
    extract_prod,
    extract_prod_bits,
    extract_sum,
    extract_sum_bits,
    low_bits,
    max_k,
    outcome_count,
    outcome_index,
)
from xjac.field import finite_field
from xjac.poly import Poly


def test_kind_parsing():
    assert ExtractorKind.from_name("Sum") is ExtractorKind.SUM
    assert ExtractorKind.from_name(" pk ") is ExtractorKind.PK
    with pytest.raises(ValueError):
        ExtractorKind.from_name("parity")
    assert ExtractorKind.SK.is_bitwise and not ExtractorKind.SUM.is_bitwise
    assert ExtractorKind.PROD.uses_product and not ExtractorKind.SK.uses_product


def test_coord_prefix():
    K = finite_field(3, 3)
    e = K.from_coords((2, 1, 0))
    assert coord_prefix(K, e, 1) == (2,)
    assert coord_prefix(K, e, 2) == (2, 1)
    assert coord_prefix(K, e, 3) == (2, 1, 0)
    with pytest.raises(KOutOfRangeError):
        coord_prefix(K, e, 0)
    with pytest.raises(KOutOfRangeError):
        coord_prefix(K, e, 4)


def test_low_bits_lsb_first():
    assert low_bits(7, 5, 2) == (1, 0)     # 5 = 0b101
    assert low_bits(7, 6, 2) == (0, 1)
    assert low_bits(13, 11, 3) == (1, 1, 0)
    with pytest.raises(KOutOfRangeError):
        low_bits(7, 1, 3)                  # 2^3 > 7
    with pytest.raises(KOutOfRangeError):
        low_bits(7, 9, 1)                  # residue out of range


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
        assert extract_sum(c7, D, 1) == (1,)
        assert extract_prod(c7, D, 1) == (0,)
        assert extract_sum_bits(c7, D, 1) == (1,)
        assert extract_prod_bits(c7, D, 1) == (0,)

    def test_weight1(self, c7):
        D = c7.divisor_from_point((5, 2))
        assert extract_sum(c7, D, 1) == (5,)
        assert extract_prod(c7, D, 1) == (5,)
        assert extract_sum_bits(c7, D, 2) == (1, 0)   # 5 = 0b101, LSB first

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
                assert extract_sum(c7, D, 1) == (K.add(P.x, Q.x),)
                assert extract_prod(c7, D, 1) == (K.mul(P.x, Q.x),)

    def test_extension_truncation_chain(self, c27):
        # k = n returns the full coordinate vector; smaller k prefixes it
        K = c27.field
        D = c27.enumerate_jacobian()[40]
        full = extract_sum(c27, D, 3)
        assert extract_sum(c27, D, 1) == full[:1]
        assert extract_sum(c27, D, 2) == full[:2]
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
        with pytest.raises(RequiresPrimeFieldError):
            extract_sum_bits(c9, D, 1)
        with pytest.raises(RequiresPrimeFieldError):
            extract_prod_bits(c9, D, 1)

    def test_k_out_of_range(self, c7):
        D = c7.zero()
        with pytest.raises(KOutOfRangeError):
            extract_sum(c7, D, 2)     # n = 1
        with pytest.raises(KOutOfRangeError):
            extract_sum_bits(c7, D, 3)  # 2^3 > 7

    @pytest.mark.parametrize("k", [True, False, 1.0])
    def test_k_must_be_an_int(self, c7, c9, k):
        for kind in ExtractorKind:
            with pytest.raises(KOutOfRangeError):
                extract(c7, c7.zero(), kind, k)
        with pytest.raises(KOutOfRangeError):
            coord_prefix(c9.field, 0, k)
        with pytest.raises(KOutOfRangeError):
            low_bits(7, 0, k)

    @pytest.mark.parametrize("r", [True, False, 1.0])
    def test_residue_must_be_an_int(self, r):
        with pytest.raises(KOutOfRangeError):
            low_bits(7, r, 1)

    def test_foreign_divisor_rejected(self, c7, F11):
        ghost = MumfordDivisor(Poly(F11, (0, 1)), Poly(F11, (1,)))
        with pytest.raises(InvalidDivisorError):
            extract_sum(c7, ghost, 1)
        off_curve = MumfordDivisor(Poly(c7.field, (1, 0, 1)), Poly.zero(c7.field))
        with pytest.raises(InvalidDivisorError):
            extract_sum(c7, off_curve, 1)


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

"""Polynomials: the Poly value type (canonical form, text, evaluation,
squarefreeness) and the raw_* kernels that hold all the arithmetic
(division, gcd, derivative, evaluation)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjac.field import finite_field
from xjac.poly import (
    Poly,
    raw_add,
    raw_derivative,
    raw_divmod,
    raw_eval,
    raw_gcd,
    raw_monic,
    raw_mul,
    raw_neg,
    raw_strip,
    raw_sub,
    raw_xgcd,
)


@pytest.fixture(scope="module")
def K():
    return finite_field(7)


def rand_raw(field, rng, max_deg):
    """A canonical coefficient list: no trailing zeros."""
    cs = [rng.randrange(field.q) for _ in range(rng.randint(0, max_deg + 1))]
    return raw_strip(cs)


def test_canonical_form_strips_leading_zeros(K):
    assert Poly(K, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(K, (0, 0, 0)).coeffs == ()
    assert Poly(K, ()).is_zero
    assert Poly(K, (0,)).degree == -1
    assert Poly(K, (5,)).degree == 0
    # the kernels return canonical lists too
    assert raw_add(K, [1, 2, 3], [0, 5, 4]) == [1]
    assert raw_sub(K, [1, 1], [1, 1]) == []
    assert raw_mul(K, [1, 1], []) == []


def test_string_roundtrip(K):
    f = Poly.from_string(K, "1,0,3")
    assert f.coeffs == (1, 0, 3)
    assert f.to_string() == "1,0,3"
    assert Poly.zero(K).to_string() == "0"
    assert Poly.from_string(K, "0").is_zero
    with pytest.raises(ValueError, match="^7 is not an element encoding of F_7$"):
        Poly.from_string(K, "1,7")
    with pytest.raises(ValueError, match="^bad polynomial text '1,x'$"):
        Poly.from_string(K, "1,x")
    with pytest.raises(ValueError, match="^True is not an element encoding of F_7$"):
        Poly(K, [True, 2])  # would print as "True,2"


def test_constructors(K):
    assert Poly.zero(K).coeffs == ()
    assert Poly.one(K).coeffs == (1,)
    assert Poly.one(K).is_monic and not Poly.zero(K).is_monic
    f = Poly(K, (4, 0, 2))
    assert f._wrap(raw_neg(K, f.coeffs)) == Poly(K, (3, 0, 5))


def test_arithmetic_small_cases(K):
    f = [1, 1]      # x + 1
    g = [6, 1]      # x + 6 = x - 1
    assert raw_mul(K, f, g) == [6, 0, 1]        # x^2 - 1
    assert raw_add(K, f, g) == [0, 2]
    assert raw_sub(K, f, f) == []
    assert raw_neg(K, f) == [6, 6]
    assert raw_mul(K, f, f) == [1, 2, 1]
    assert raw_divmod(K, [0, 0, 1], [1, 1])[1] == [1]  # x^2 mod (x+1) = 1


def test_divmod_roundtrip_randomized(K):
    rng = random.Random(424242)
    for _ in range(10_000):
        a = rand_raw(K, rng, 8)
        b = rand_raw(K, rng, 4)
        if not b:
            continue
        q, r = raw_divmod(K, a, b)
        assert raw_add(K, raw_mul(K, q, b), r) == a
        assert len(r) < len(b)


def test_divmod_by_zero(K):
    with pytest.raises(ZeroDivisionError):
        raw_divmod(K, [1, 1], [])


def test_xgcd_bezout_identity(K):
    rng = random.Random(99)
    for _ in range(3000):
        a = rand_raw(K, rng, 6)
        b = rand_raw(K, rng, 6)
        if not a and not b:
            continue
        g, s, t = raw_xgcd(K, a, b)
        assert raw_add(K, raw_mul(K, s, a), raw_mul(K, t, b)) == g
        assert g[-1] == 1
        assert not raw_divmod(K, a, g)[1] and not raw_divmod(K, b, g)[1]
        assert raw_gcd(K, a, b) == g


def test_xgcd_both_zero(K):
    with pytest.raises(ValueError, match=r"^gcd\(0, 0\) is undefined$"):
        raw_xgcd(K, [], [])
    with pytest.raises(ValueError, match=r"^gcd\(0, 0\) is undefined$"):
        raw_gcd(K, [], [])


def test_gcd_of_coprime_is_one(K):
    f = [1, 1]       # x + 1
    g = [2, 1]       # x + 2
    assert raw_gcd(K, f, g) == [1]
    assert raw_gcd(K, raw_mul(K, f, g), f) == f
    # the gcd is monic whatever the leading coefficients
    assert raw_gcd(K, [3, 3], [5, 5]) == [1, 1]


def test_eval_is_ring_homomorphism(K):
    rng = random.Random(5)
    for _ in range(500):
        a = rand_raw(K, rng, 5)
        b = rand_raw(K, rng, 5)
        x = rng.randrange(7)
        assert raw_eval(K, raw_add(K, a, b), x) == K.add(raw_eval(K, a, x), raw_eval(K, b, x))
        assert raw_eval(K, raw_mul(K, a, b), x) == K.mul(raw_eval(K, a, x), raw_eval(K, b, x))
        assert Poly(K, a)(x) == raw_eval(K, a, x)


def test_eval_type_follows_argument(K):
    f = Poly(K, (1, 1))
    assert f(3) == 4


def test_derivative(K):
    assert raw_derivative(K, [2, 3, 0, 5]) == [3, 0, 1]  # 15x^2 + 3 -> x^2 + 3
    # char divides exponent: d/dx x^7 = 0 over F_7
    assert raw_derivative(K, [0] * 7 + [1]) == []


def test_is_squarefree_cases(K):
    assert Poly(K, (1, 0, 0, 0, 0, 1)).is_squarefree()          # x^5 + 1
    assert not Poly(K, (0, 0, 1)).is_squarefree()               # x^2
    cube = raw_mul(K, raw_mul(K, [1, 1], [1, 1]), [2, 1])
    assert not Poly(K, cube).is_squarefree()                    # (x+1)^2 (x+2)
    assert not Poly(K, [1] + [0] * 6 + [1]).is_squarefree()     # x^7 + 1 = (x+1)^7
    assert Poly(K, (3,)).is_squarefree()   # units are squarefree
    assert not Poly.zero(K).is_squarefree()


def test_monic_normalization(K):
    f = [2, 4]
    m = raw_monic(K, f)
    assert m[-1] == 1 and len(m) == len(f)
    assert raw_mul(K, f, [K.inv(4)]) == m
    assert raw_monic(K, []) == []


def test_immutability(K):
    f = Poly(K, (1, 2))
    with pytest.raises(AttributeError):
        f.coeffs = (3,)


def test_extension_field_polys():
    E = finite_field(3, 2)
    f = [3, 1]  # x + g where g is the degree generator
    h = [1, 0, 1]
    g, s, t = raw_xgcd(E, f, h)
    assert raw_add(E, raw_mul(E, s, f), raw_mul(E, t, h)) == g


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=8),
       st.lists(st.integers(min_value=0, max_value=6), max_size=8))
@settings(max_examples=300)
def test_mul_commutes_hypothesis(ca, cb):
    K = finite_field(7)
    a, b = list(Poly(K, ca).coeffs), list(Poly(K, cb).coeffs)
    assert raw_mul(K, a, b) == raw_mul(K, b, a)
    assert len(raw_add(K, a, b)) <= max(len(a), len(b))

"""Polynomial ring behavior: canonical form, division, gcd, evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjac.errors import BothZeroError, FieldMismatchError, NonElementError
from xjac.field import finite_field
from xjac.poly import Poly


@pytest.fixture(scope="module")
def K():
    return finite_field(7)


def rand_poly(field, rng, max_deg):
    return Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, max_deg + 1))])


def test_canonical_form_strips_leading_zeros(K):
    assert Poly(K, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(K, (0, 0, 0)).coeffs == ()
    assert Poly(K, ()).is_zero
    assert Poly(K, (0,)).degree == -1
    assert Poly(K, (5,)).degree == 0


def test_string_roundtrip(K):
    f = Poly.from_string(K, "1,0,3")
    assert f.coeffs == (1, 0, 3)
    assert f.to_string() == "1,0,3"
    assert Poly.zero(K).to_string() == "0"
    assert Poly.from_string(K, "0").is_zero
    with pytest.raises(NonElementError):
        Poly.from_string(K, "1,7")
    with pytest.raises(NonElementError):
        Poly.from_string(K, "1,x")
    with pytest.raises(NonElementError):
        Poly(K, [True, 2])  # would print as "True,2"


def test_constructors(K):
    assert Poly.one(K).coeffs == (1,)
    assert Poly.x(K).coeffs == (0, 1)
    assert Poly.constant(K, 4).coeffs == (4,)
    assert Poly.constant(K, 0).coeffs == ()


def test_arithmetic_small_cases(K):
    f = Poly(K, (1, 1))      # x + 1
    g = Poly(K, (6, 1))      # x + 6 = x - 1
    assert (f * g).coeffs == (6, 0, 1)        # x^2 - 1
    assert (f + g).coeffs == (0, 2)
    assert (f - f).is_zero
    assert (-f).coeffs == (6, 6)
    assert (f ** 2).coeffs == (1, 2, 1)
    assert (Poly(K, (0, 0, 1)) % Poly(K, (1, 1))).coeffs == (1,)  # x^2 mod (x+1) = 1


def test_scalar_coercion(K):
    f = Poly(K, (1, 1))
    assert (f * 3).coeffs == (3, 3)
    assert (3 * f).coeffs == (3, 3)
    assert (f + 6).coeffs == (0, 1)
    with pytest.raises(NonElementError):
        f * 9


def test_divmod_roundtrip_randomized(K):
    rng = random.Random(424242)
    for _ in range(10_000):
        a = rand_poly(K, rng, 8)
        b = rand_poly(K, rng, 4)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_divmod_by_zero(K):
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(K, (1, 1)), Poly.zero(K))


def test_xgcd_bezout_identity(K):
    rng = random.Random(99)
    for _ in range(3000):
        a = rand_poly(K, rng, 6)
        b = rand_poly(K, rng, 6)
        if a.is_zero and b.is_zero:
            continue
        g, s, t = a.xgcd(b)
        assert s * a + t * b == g
        assert g.is_monic
        assert (a % g).is_zero and (b % g).is_zero


def test_xgcd_both_zero(K):
    with pytest.raises(BothZeroError):
        Poly.zero(K).xgcd(Poly.zero(K))


def test_gcd_of_coprime_is_one(K):
    f = Poly(K, (1, 1))       # x + 1
    g = Poly(K, (2, 1))       # x + 2
    assert f.gcd(g).coeffs == (1,)
    assert (f * g).gcd(f).coeffs == f.coeffs


def test_eval_is_ring_homomorphism(K):
    rng = random.Random(5)
    for _ in range(500):
        a = rand_poly(K, rng, 5)
        b = rand_poly(K, rng, 5)
        x = rng.randrange(7)
        assert (a + b)(x) == K.add(a(x), b(x))
        assert (a * b)(x) == K.mul(a(x), b(x))


def test_eval_type_follows_argument(K):
    f = Poly(K, (1, 1))
    assert f(3) == 4


def test_derivative(K):
    f = Poly(K, (2, 3, 0, 5))     # 5x^3 + 3x + 2
    assert f.derivative().coeffs == (3, 0, 1)  # 15x^2 + 3 -> x^2 + 3
    # char divides exponent: d/dx x^7 = 0 over F_7
    assert Poly(K, (0,) * 7 + (1,)).derivative().is_zero


def test_is_squarefree_cases(K):
    x = Poly.x(K)
    assert (x**5 + 1).is_squarefree()
    assert not (x**2).is_squarefree()
    assert not ((x + 1) ** 2 * (x + 2)).is_squarefree()
    assert Poly.constant(K, 3).is_squarefree()   # units are squarefree
    assert not Poly.zero(K).is_squarefree()


def test_monic_normalization(K):
    f = Poly(K, (2, 4))
    m = f.monic()
    assert m.is_monic and m.degree == f.degree
    assert (f * K.inv(4)) == m
    with pytest.raises(ValueError):
        Poly.zero(K).monic()


def test_field_mismatch(K):
    other = finite_field(11)
    with pytest.raises(FieldMismatchError):
        Poly(K, (1, 1)) + Poly(other, (1, 1))


def test_immutability(K):
    f = Poly(K, (1, 2))
    with pytest.raises(AttributeError):
        f.coeffs = (3,)


def test_extension_field_polys():
    E = finite_field(3, 2)
    f = Poly(E, (3, 1))  # x + g where g is the degree generator
    g, s, t = f.xgcd(Poly(E, (1, 0, 1)))
    assert s * f + t * Poly(E, (1, 0, 1)) == g


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=8),
       st.lists(st.integers(min_value=0, max_value=6), max_size=8))
@settings(max_examples=300)
def test_mul_commutes_hypothesis(ca, cb):
    K = finite_field(7)
    a, b = Poly(K, ca), Poly(K, cb)
    assert a * b == b * a
    assert (a + b).degree <= max(a.degree, b.degree)

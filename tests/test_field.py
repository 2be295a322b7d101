"""Field axioms, Frobenius/trace behavior, encodings and error paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjac.errors import (
    EvenCharacteristicError,
    FieldMismatchError,
    NonElementError,
    NotIrreducibleError,
    NotMonicError,
    NotPrimeError,
    WrongDegreeError,
)
from xjac.field import FieldElement, FiniteField, find_irreducible, finite_field, is_prime


SMALL_FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_find_irreducible_goldens():
    # lex-smallest monic irreducibles, constant coefficient compared first
    assert find_irreducible(3, 1) == (0, 1)
    assert find_irreducible(7, 1) == (0, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert find_irreducible(3, 3) == (1, 0, 2, 1)
    assert find_irreducible(3, 4) == (1, 0, 1, 1, 1)
    assert find_irreducible(5, 2) == (1, 1, 1)
    assert find_irreducible(5, 3) == (1, 0, 1, 1)
    assert find_irreducible(7, 2) == (1, 0, 1)


def test_find_irreducible_is_minimal():
    # nothing lexicographically below the returned tuple may be irreducible:
    # every smaller monic quadratic over F_3 must factor
    from xjac.field import _pis_irreducible

    got = find_irreducible(3, 2)
    for c0 in range(3):
        for c1 in range(3):
            cand = (c0, c1, 1)
            if cand < got:
                assert not _pis_irreducible(list(cand), 3)


def _monics(p, d):
    """Every monic polynomial of degree d over F_p, low-degree-first."""
    for m in range(p**d):
        yield [m // p**i % p for i in range(d)] + [1]


def _divides(g, f, p):
    """True when monic g divides f over F_p, by schoolbook division on ints."""
    r = list(f)
    while len(r) >= len(g):
        lead = r[-1]
        shift = len(r) - len(g)
        for i, c in enumerate(g):
            r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    return not any(r)


@pytest.mark.parametrize(
    "p,n", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]
)
def test_pis_irreducible_matches_trial_division(p, n):
    from xjac.field import _pis_irreducible

    for f in _monics(p, n):
        by_trial = not any(
            _divides(g, f, p) for d in range(1, n // 2 + 1) for g in _monics(p, d)
        )
        assert _pis_irreducible(f, p) == by_trial, f


def test_default_modulus_of_huge_prime_field_is_x():
    # the modulus search must not build anything p-sized
    K = FiniteField(2**61 - 1)
    assert K.modulus == (0, 1)


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, n):
    K = finite_field(p, n)
    q = K.q
    elems = range(q)
    for a in elems:
        assert K.add(a, 0) == a
        assert K.mul(a, 1) == a
        assert K.add(a, K.neg(a)) == 0
        if a:
            assert K.mul(a, K.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert K.add(a, b) == K.add(b, a)
            assert K.mul(a, b) == K.mul(b, a)
            assert K.sub(a, b) == K.add(a, K.neg(b))
    # associativity and distributivity on a grid (full cube is q^3)
    step = max(1, q // 9)
    sample = list(range(0, q, step))
    for a in sample:
        for b in sample:
            for c in sample:
                assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
                assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
                assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


@pytest.mark.parametrize("p,n", [(5, 3), (1009, 1)])
def test_field_axioms_randomized(p, n):
    # larger fields get sampled instead of enumerated
    import random

    K = finite_field(p, n)
    rng = random.Random(20240817)
    q = K.q
    for _ in range(10_000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        if a:
            assert K.mul(a, K.inv(a)) == 1
        if b:
            assert K.div(K.mul(a, b), b) == a


def test_vector_backend_matches_tables():
    # F_3^7 = 2187 > table limit, so it runs on the digit-vector backend;
    # embed F_3 scalars and compare against the table/prime backend
    import random

    big = finite_field(3, 7)
    small = finite_field(3)
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(3), rng.randrange(3)
        assert big.add(a, b) == small.add(a, b)
        assert big.mul(a, b) == small.mul(a, b)
    for _ in range(500):
        a = rng.randrange(big.q)
        if a:
            assert big.mul(a, big.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 4), (3, 5)])
def test_table_backend_matches_digit_vectors(p, n):
    # every add/sub/neg/mul/inv table entry against digit-vector arithmetic,
    # with products reduced by poly.raw_divmod
    from xjac.poly import raw_divmod, raw_mul

    K = finite_field(p, n)
    Fp = finite_field(p)
    q = K.q
    dec = [K.coords(a) for a in range(q)]
    enc = K.from_coords
    for a in range(q):
        da = dec[a]
        assert K.neg(a) == enc([-x % p for x in da])
        for b in range(q):
            db = dec[b]
            assert K.add(a, b) == enc([(x + y) % p for x, y in zip(da, db)])
            assert K.sub(a, b) == enc([(x - y) % p for x, y in zip(da, db)])
            assert K.mul(a, b) == enc(raw_divmod(Fp, raw_mul(Fp, da, db), K.modulus)[1])
        if a:
            assert K.mul(a, K.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        K.inv(0)


def test_vector_mul_matches_polynomial_product_mod_modulus():
    import random

    from xjac.poly import raw_divmod, raw_mul

    big = finite_field(3, 7)
    Fp = finite_field(3)
    rng = random.Random(11)
    for _ in range(500):
        a, b = rng.randrange(big.q), rng.randrange(big.q)
        prod = raw_mul(Fp, big.coords(a), big.coords(b))
        _, rem = raw_divmod(Fp, prod, big.modulus)
        assert big.mul(a, b) == big.from_coords(rem)


def test_pow_matches_repeated_mul():
    K = finite_field(5, 2)
    for a in range(1, K.q):
        acc = 1
        for e in range(8):
            assert K.pow(a, e) == acc
            acc = K.mul(acc, a)
    # Fermat / Lagrange: a^(q-1) = 1
    for a in range(1, K.q):
        assert K.pow(a, K.q - 1) == 1


def test_frobenius_is_pth_power_and_field_automorphism():
    K = finite_field(3, 3)
    for a in range(K.q):
        assert K.frobenius(a) == K.pow(a, 3)
    for a in range(K.q):
        for b in range(0, K.q, 4):
            assert K.frobenius(K.add(a, b)) == K.add(K.frobenius(a), K.frobenius(b))
            assert K.frobenius(K.mul(a, b)) == K.mul(K.frobenius(a), K.frobenius(b))
    # n-fold Frobenius is the identity
    for a in range(K.q):
        x = a
        for _ in range(3):
            x = K.frobenius(x)
        assert x == a


def test_trace_goldens():
    # frozen from an independent Frobenius-powering oracle
    F9 = finite_field(3, 2)
    assert [F9.trace(a) for a in range(9)] == [0, 2, 1, 0, 2, 1, 0, 2, 1]
    F27 = finite_field(3, 3)
    assert [F27.trace(a) for a in range(27)] == [
        0, 0, 0, 1, 1, 1, 2, 2, 2,
        1, 1, 1, 2, 2, 2, 0, 0, 0,
        2, 2, 2, 0, 0, 0, 1, 1, 1,
    ]


def test_trace_is_linear_onto_prime_field():
    K = finite_field(5, 2)
    for a in range(K.q):
        t = K.trace(a)
        assert 0 <= t < 5
    for a in range(K.q):
        for b in range(0, K.q, 3):
            assert K.trace(K.add(a, b)) == (K.trace(a) + K.trace(b)) % 5
    # trace is onto: every prime-field value is hit q/p times
    hits = [0] * 5
    for a in range(K.q):
        hits[K.trace(a)] += 1
    assert hits == [5, 5, 5, 5, 5]


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (7, 2), (3, 7)])
def test_trace_matches_frobenius_sum(p, n):
    # Tr(a) = a + a^p + ... + a^(p^(n-1)), lying in the prime subfield
    K = finite_field(p, n)
    for a in range(K.q):
        s = x = a
        for _ in range(n - 1):
            x = K.frobenius(x)
            s = K.add(s, x)
        assert s < p
        assert K.trace(a) == s


def test_coords_roundtrip_bijection():
    K = finite_field(3, 3)
    seen = set()
    for a in range(K.q):
        digits = K.coords(a)
        assert len(digits) == 3 and all(0 <= d < 3 for d in digits)
        assert K.from_coords(digits) == a
        seen.add(digits)
    assert len(seen) == K.q


def test_elements_iterates_all_encodings():
    K = finite_field(3, 2)
    assert list(K.elements()) == list(range(9))


class TestFieldElement:
    def test_arithmetic_and_repr(self, F7):
        a = F7.element(3)
        b = F7.element(5)
        assert (a + b).value == 1
        assert (a - b).value == 5
        assert (a * b).value == 1
        assert (a / b).value == (3 * pow(5, -1, 7)) % 7
        assert (-a).value == 4
        assert (a**3).value == 27 % 7
        assert repr(a) == "F7(3)"

    def test_int_coercion_validates(self, F7):
        a = F7.element(3)
        assert (a + 4).value == 0  # ints are read as encodings
        with pytest.raises(NonElementError):
            a + 11
        with pytest.raises(NonElementError):
            a * (-1)

    def test_foreign_element_rejected(self, F7, F11):
        with pytest.raises(FieldMismatchError):
            F7.element(3) + F11.element(3)

    def test_extension_element_helpers(self, F9):
        x = F9.element(3)  # the generator: coords (0, 1)
        assert x.coords == (0, 1)
        assert x.trace() == 0
        assert x.frobenius().value == F9.pow(3, 3)


class TestConstructionErrors:
    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            FiniteField(6)
        with pytest.raises(NotPrimeError):
            FiniteField(1)

    def test_char_two(self):
        with pytest.raises(EvenCharacteristicError):
            FiniteField(2)

    def test_bad_degree(self):
        with pytest.raises(WrongDegreeError):
            FiniteField(3, 0)

    def test_reducible_modulus(self):
        with pytest.raises(NotIrreducibleError):
            FiniteField(3, 2, (0, 0, 1))  # x^2
        with pytest.raises(NotIrreducibleError):
            FiniteField(3, 2, (2, 0, 1))  # x^2 - 1 = (x-1)(x+1)

    def test_modulus_shape(self):
        with pytest.raises(WrongDegreeError):
            FiniteField(3, 2, (1, 0, 0, 1))
        with pytest.raises(NotMonicError):
            FiniteField(3, 2, (1, 0, 2))
        with pytest.raises(NonElementError):
            FiniteField(3, 2, (1, 0, 3))

    def test_non_element_ops(self, F7):
        with pytest.raises(NonElementError):
            F7.add(7, 0)
        with pytest.raises(NonElementError):
            F7.mul(0, "3")
        with pytest.raises(ZeroDivisionError):
            F7.inv(0)

    def test_field_identity(self):
        assert finite_field(3, 2) == finite_field(3, 2)
        assert finite_field(3, 2) is finite_field(3, 2)  # cached
        assert finite_field(3, 2) != finite_field(3, 3)
        custom = FiniteField(3, 2, (2, 2, 1))
        assert custom != finite_field(3, 2)  # different modulus


@given(st.integers(min_value=0, max_value=3**4 - 1), st.integers(min_value=0, max_value=3**4 - 1))
@settings(max_examples=200)
def test_add_mul_commute_hypothesis(a, b):
    K = finite_field(3, 4)
    assert K.add(a, b) == K.add(b, a)
    assert K.mul(a, b) == K.mul(b, a)

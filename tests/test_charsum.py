"""Additive character laws: orthogonality, Gauss/Mordell magnitudes,
subgroup duality sums and incomplete interval sums."""

import math
import random
import re

import pytest

from xjac import charsum
from xjac.charsum import (
    AdditiveSubgroup,
    Character,
    _interval_sums,
    _poly_char_sum_raw,
    _unit_roots,
    interval_char_sum,
    orthogonality_sum,
    poly_char_sum,
    root_of_unity,
    winterhof_sum,
)
from xjac.field import finite_field
from xjac.poly import Poly, raw_eval

PRIMES_TO_101 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]


def test_root_of_unity_basics():
    assert root_of_unity(7, 0) == 1
    assert root_of_unity(7, 7) == pytest.approx(1)
    for t in range(7):
        assert abs(root_of_unity(7, t)) == pytest.approx(1)
    assert root_of_unity(7, 3) == pytest.approx(root_of_unity(7, 10))


def test_character_is_multiplicative_on_addition():
    K = finite_field(3, 2)
    for a in range(K.q):
        psi = Character(K, a)
        for x in range(K.q):
            for y in range(K.q):
                assert psi(K.add(x, y)) == pytest.approx(psi(x) * psi(y), abs=1e-9)


def psi_by_field_ops(K, a, x):
    """psi_a(x) the direct way: one field multiply, then the trace."""
    return _unit_roots(K.p)[K.trace(K._mul(a, x))]


@pytest.mark.parametrize("p,n", [(7, 1), (3, 3), (5, 2)])
def test_character_matches_field_ops_everywhere(p, n):
    K = finite_field(p, n)
    for a in range(K.q):
        psi = Character(K, a)
        for x in range(K.q):
            assert psi(x) == psi_by_field_ops(K, a, x), (a, x)


def test_character_matches_field_ops_vector_backend():
    K = finite_field(3, 7)  # above the table limit: digit-vector arithmetic
    rng = random.Random(2187)
    for _ in range(2000):
        a, x = rng.randrange(K.q), rng.randrange(K.q)
        assert Character(K, a)(x) == psi_by_field_ops(K, a, x), (a, x)


@pytest.mark.parametrize("p,n", [(7, 1), (3, 3), (5, 2), (3, 4)])
def test_trace_axi_matches_field_multiply(p, n):
    K = finite_field(p, n)
    for a in range(K.q):
        want = tuple(K.trace(K.mul(a, p**i)) for i in range(n))
        assert Character(K, a)._trace_axi == want, a


def test_trace_axi_matches_field_multiply_vector_backend():
    K = finite_field(3, 7)
    rng = random.Random(37)
    for _ in range(2000):
        a = rng.randrange(K.q)
        want = tuple(K.trace(K.mul(a, 3**i)) for i in range(7))
        assert Character(K, a)._trace_axi == want, a


@pytest.mark.parametrize("x", [9, 100, -1, True, 1.0, "1", None])
def test_character_rejects_non_elements(x):
    psi = Character(finite_field(3, 2), 1)
    message = re.escape(f"{x!r} is not an element encoding of F_9(mod 1,0,1)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        psi(x)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_orthogonality_prime_fields(p):
    K = finite_field(p)
    tol = 1e-9 * p
    assert abs(orthogonality_sum(K, 0) - p) <= tol
    for a in range(1, p):
        assert abs(orthogonality_sum(K, a)) <= tol


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_orthogonality_extension_fields(p, n):
    K = finite_field(p, n)
    tol = 1e-9 * K.q
    assert abs(orthogonality_sum(K, 0) - K.q) <= tol
    for a in range(1, K.q):
        assert abs(orthogonality_sum(K, a)) <= tol


def orthogonality_by_characters(K, a):
    """sum_x psi_a(x) one public character call at a time, x ascending."""
    psi = Character(K, a)
    s = 0j
    for x in range(K.q):
        s += psi(x)
    return s


def winterhof_by_characters(K, basis):
    """sum_a |sum_{x in V} psi_a(x)|, one character call at a time."""
    V = AdditiveSubgroup(K, basis).elements()
    total = 0.0
    for a in range(K.q):
        psi = Character(K, a)
        s = 0j
        for x in V:
            s += psi(x)
        total += abs(s)
    return total


# prime, table and vector backends; F_3^7 on a seeded sample of a or bases
EXACT_FIELDS = [(7, 1), (3, 3), (5, 2)]


@pytest.mark.parametrize("p,n", EXACT_FIELDS)
def test_orthogonality_same_floats_as_characters(p, n):
    K = finite_field(p, n)
    for a in range(K.q):
        assert orthogonality_sum(K, a) == orthogonality_by_characters(K, a), a


def test_orthogonality_same_floats_as_characters_vector_backend():
    K = finite_field(3, 7)
    for a in [0, 1] + random.Random(7).sample(range(2, K.q), 12):
        assert orthogonality_sum(K, a) == orthogonality_by_characters(K, a), a


@pytest.mark.parametrize("p,n", EXACT_FIELDS)
def test_winterhof_same_floats_as_characters(p, n):
    K = finite_field(p, n)
    for mask in range(2**n):  # mask 0 is the empty basis, V = {0}
        basis = [i for i in range(n) if mask >> i & 1]
        rep = winterhof_sum(K, AdditiveSubgroup(K, basis))
        assert rep.magnitude == winterhof_by_characters(K, basis)


def test_winterhof_same_floats_as_characters_vector_backend():
    K = finite_field(3, 7)
    rng = random.Random(2187)
    for basis in [[], *(sorted(rng.sample(range(7), d)) for d in (1, 2, 3))]:
        rep = winterhof_sum(K, AdditiveSubgroup(K, basis))
        assert rep.magnitude == winterhof_by_characters(K, basis)


@pytest.mark.parametrize("basis", [[3], [0, 5], [1, 4, 6]])
def test_winterhof_one_inner_sum_per_trace_vector(basis, monkeypatch):
    """The inner sum of a depends on a only through (Tr(a x^i))_{i in b}:
    one _digit_dots call per distinct trace vector, p^|b| of them, besides
    one trace table per basis index."""
    K = finite_field(3, 7)
    calls = []
    digit_dots = charsum._digit_dots

    def counting_digit_dots(p, coeffs):
        calls.append(tuple(coeffs))
        return digit_dots(p, coeffs)

    monkeypatch.setattr(charsum, "_digit_dots", counting_digit_dots)
    rep = winterhof_sum(K, AdditiveSubgroup(K, basis))
    tables = [c for c in calls if len(c) == K.n]
    inner = [c for c in calls if len(c) == len(basis)]
    assert len(tables) == len(basis) and len(tables) + len(inner) == len(calls)
    assert len(inner) == len(set(inner)) == K.p ** len(basis)
    assert set(inner) == {
        tuple(Character(K, a)._trace_axi[i] for i in basis) for a in range(K.q)
    }
    assert abs(rep.magnitude - K.q) <= 1e-6 * K.q


def test_orthogonality_same_floats_alternating_fields():
    """The trace tables are kept for one field at a time; switching fields,
    including to one of the same q under another modulus, rebuilds them."""
    fields = [finite_field(3, 3), finite_field(3, 3, (2, 0, 1, 1)), finite_field(5, 2)]
    want = {K: [orthogonality_by_characters(K, a) for a in range(K.q)] for K in fields}
    for a in range(27):
        for K in fields:
            if a < K.q:
                assert orthogonality_sum(K, a) == want[K][a], (K, a)


class TestPolySums:
    def test_degree1_sums_vanish(self, F7):
        for c1 in range(1, 7):
            for c0 in range(7):
                P = Poly(F7, (c0, c1))
                for a in range(1, 7):
                    assert poly_char_sum(F7, P, a).magnitude <= 1e-9

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_degree2_gauss_magnitude_and_mordell(self, p):
        K = finite_field(p)
        root = math.sqrt(p)
        for c0 in range(p):
            for c1 in range(p):
                P = Poly(K, (c0, c1, 1))
                for a in range(1, p):
                    rep = poly_char_sum(K, P, a)
                    assert abs(rep.magnitude - root) <= 1e-6 * root
                    assert rep.magnitude <= rep.bound
                    assert rep.bound == pytest.approx(2 * p ** 0.75)

    def test_mordell_ratio_golden(self, F7):
        rep = poly_char_sum(F7, Poly(F7, (0, 0, 1)), 1)
        assert rep.magnitude == pytest.approx(math.sqrt(7), rel=1e-12)
        assert rep.ratio == pytest.approx(0.3073940764756322, rel=1e-12)

    def test_trivial_character_rejected(self, F7):
        with pytest.raises(ValueError, match="^a = 0 gives the trivial character$"):
            poly_char_sum(F7, Poly(F7, (0, 1)), 0)

    def test_degree_range_enforced(self, F7):
        outside = r" outside \[1, p\) = \[1, {}\) where the bound applies$"
        with pytest.raises(ValueError, match="^deg P = 0" + outside.format(7)):
            poly_char_sum(F7, Poly.one(F7), 1)          # degree 0
        with pytest.raises(ValueError, match="^deg P = 7" + outside.format(7)):
            poly_char_sum(F7, Poly(F7, (0,) * 7 + (1,)), 1)  # degree 7 = p
        K3 = finite_field(3)
        with pytest.raises(ValueError, match="^deg P = 3" + outside.format(3)):
            poly_char_sum(K3, Poly(K3, (0, 0, 0, 1)), 1)     # degree 3 = p

    def test_field_mismatch(self, F7, F11):
        with pytest.raises(ValueError, match="^P is over F_11, not F_7$"):
            poly_char_sum(F7, Poly(F11, (0, 1)), 1)

    @pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
    def test_value_matches_direct_evaluation(self, p, n):
        # polynomials interleaved, so no two consecutive calls share P
        K = finite_field(p, n)
        quads = [Poly(K, (c0, c1, 1)) for c0 in range(K.q) for c1 in range(K.q)]
        for a in range(K.q):
            psi = Character(K, a)
            for P in quads:
                want = 0j
                for x in range(K.q):
                    want += psi(raw_eval(K, P.coeffs, x))
                assert _poly_char_sum_raw(K, P.coeffs, a) == want, (P.coeffs, a)

    def test_value_rejects_bool_and_q_after_caching_a_1(self, F7):
        # the psi tables are kept per a, and True would index a = 1
        P = Poly(F7, (0, 0, 1))
        poly_char_sum(F7, P, 1)
        for a in (True, F7.q):
            with pytest.raises(ValueError, match=f"^{a!r} is not an element encoding of F_7$"):
                poly_char_sum(F7, P, a)

    def test_psi_tables_built_once_per_a(self, monkeypatch):
        """The mordell rows ask for a = 1, ..., q - 1 per polynomial, a
        cycle longer than any small LRU; each table is built once."""
        K = finite_field(67)
        builds = []
        digit_dots = charsum._digit_dots

        def counting_digit_dots(p, coeffs):
            builds.append(coeffs)
            return digit_dots(p, coeffs)

        monkeypatch.setattr(charsum, "_digit_dots", counting_digit_dots)
        charsum._psi_tables.cache_clear()
        for P in (Poly(K, (0, 0, 1)), Poly(K, (1, 2, 1))):
            for a in range(1, K.q):
                poly_char_sum(K, P, a)
        assert len(builds) == K.q - 1 == 66

    def test_value_allows_trivial_character(self, F7):
        v = _poly_char_sum_raw(F7, (0, 0, 1), 0)
        assert v == pytest.approx(7)  # trivial character sums to q
        v1 = _poly_char_sum_raw(F7, (0, 0, 1), 1)
        assert abs(v1) == pytest.approx(math.sqrt(7), rel=1e-9)


class TestSubgroups:
    def test_elements_golden(self, F9):
        assert AdditiveSubgroup(F9, [1]).elements() == (0, 3, 6)
        assert AdditiveSubgroup(F9, [0]).elements() == (0, 1, 2)
        assert AdditiveSubgroup(F9, [0, 1]).elements() == tuple(range(9))
        assert AdditiveSubgroup(F9, []).elements() == (0,)

    def test_dim(self, F27):
        assert AdditiveSubgroup(F27, [0, 2]).dim == 2
        assert AdditiveSubgroup(F27, []).dim == 0

    def test_bad_basis(self, F9):
        distinct = r"^basis must be distinct indices in \[0, 2\), got "
        with pytest.raises(ValueError, match=distinct + r"\[2\]$"):
            AdditiveSubgroup(F9, [2])        # index out of range
        with pytest.raises(ValueError, match=distinct + r"\[0, 0\]$"):
            AdditiveSubgroup(F9, [0, 0])     # repeated
        with pytest.raises(ValueError, match=distinct + r"\['x'\]$"):
            AdditiveSubgroup(F9, ["x"])
        with pytest.raises(ValueError, match=distinct + r"\[True\]$"):
            AdditiveSubgroup(F9, [True])     # bool, though True == 1

    def test_closed_under_addition(self, F27):
        K = F27
        V = set(AdditiveSubgroup(K, [0, 2]).elements())
        for x in V:
            for y in V:
                assert K.add(x, y) in V

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (5, 3)])
    def test_winterhof_equality_all_bases(self, p, n):
        K = finite_field(p, n)
        q = K.q
        for mask in range(2**n):
            basis = [i for i in range(n) if mask >> i & 1]
            rep = winterhof_sum(K, AdditiveSubgroup(K, basis))
            assert abs(rep.magnitude - q) <= 1e-6 * q

    def test_winterhof_annihilator_count(self, F9):
        # inner sum is |V| on the annihilator of V (size q/|V|), else 0;
        # counting nonzero inner sums gives the duality structure directly
        K = F9
        V = AdditiveSubgroup(K, [1]).elements()
        hits = 0
        for a in range(K.q):
            psi = Character(K, 1)
            s = sum(psi(K.mul(a, x)) for x in V)
            if abs(s) > 1e-9:
                hits += 1
                assert s == pytest.approx(len(V))
        assert hits == K.q // len(V)

    def test_winterhof_field_mismatch(self, F9, F27):
        with pytest.raises(ValueError, match="^subgroup belongs to a different field$"):
            winterhof_sum(F27, AdditiveSubgroup(F9, [0]))


class TestIntervalSums:
    @pytest.mark.parametrize("p", [7, 31, 101])
    def test_bound_holds_every_length(self, p):
        bound = p * math.log2(p)
        for L in range(1, p + 1):
            rep = interval_char_sum(p, L)
            assert rep.magnitude <= bound + 1e-9
            assert rep.bound == pytest.approx(bound)

    def test_goldens(self):
        # frozen from a direct complex-sum oracle
        assert interval_char_sum(7, 1).magnitude == pytest.approx(7.0, rel=1e-9)
        assert interval_char_sum(7, 7).magnitude == pytest.approx(7.0, rel=1e-9)
        assert interval_char_sum(7, 3).magnitude == pytest.approx(
            10.207750943219352, rel=1e-9
        )
        assert interval_char_sum(31, 16).magnitude == pytest.approx(
            64.30504179180816, rel=1e-9
        )
        assert interval_char_sum(101, 50).magnitude == pytest.approx(
            246.48050588370646, rel=1e-9
        )

    def test_same_floats_as_direct_loop_in_any_call_order(self):
        def direct(p, L):
            roots = [root_of_unity(p, t) for t in range(p)]
            total = 0.0
            for a in range(p):
                s = 0j
                for x in range(L):
                    s += roots[a * x % p]
                total += abs(s)
            return total

        primes = (3, 7, 13, 31, 127)
        want = {(p, L): direct(p, L) for p in primes for L in range(1, p + 1)}
        rng = random.Random(331)
        for p in primes:
            Ls = list(range(1, p + 1))
            shuffled = rng.sample(Ls, p)
            for order in (Ls, Ls[::-1], shuffled):
                _interval_sums.cache_clear()
                for L in order:
                    assert interval_char_sum(p, L).magnitude == want[p, L], (p, L)
        # two primes interleaved share no state
        _interval_sums.cache_clear()
        for L in rng.sample(range(1, 32), 31):
            for p in (31, 13):
                if L <= p:
                    assert interval_char_sum(p, L).magnitude == want[p, L], (p, L)

    def test_full_interval_is_exactly_p(self):
        # only a = 0 survives when the inner sum runs over all of F_p
        for p in (3, 5, 7, 11):
            assert interval_char_sum(p, p).magnitude == pytest.approx(p, abs=1e-9)

    def test_range_errors(self):
        with pytest.raises(ValueError, match=r"^L must be in \[1, 7\], got 0$"):
            interval_char_sum(7, 0)
        with pytest.raises(ValueError, match=r"^L must be in \[1, 7\], got 8$"):
            interval_char_sum(7, 8)
        with pytest.raises(ValueError, match="^p must be a prime >= 3, got 1$"):
            interval_char_sum(1, 1)

    @pytest.mark.parametrize("p", [1, 2, 4, 9, True])
    def test_p_must_be_an_odd_prime(self, p):
        with pytest.raises(ValueError, match=f"^p must be a prime >= 3, got {p!r}$"):
            interval_char_sum(p, 1)

    @pytest.mark.parametrize("p,L", [(7, True), (7, 1.0), (True, 1), (7.0, 1)])
    def test_arguments_must_be_ints(self, p, L):
        if type(p) is int:
            message = rf"^L must be in \[1, {p}\], got {L!r}$"
        else:
            message = f"^p must be a prime >= 3, got {p!r}$"
        with pytest.raises(ValueError, match=message):
            interval_char_sum(p, L)

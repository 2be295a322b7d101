"""Curve construction, point enumeration, divisor validity (the closed form
cross-checked against polynomial division), Cantor arithmetic (the
closed-form weight-2 add and double cross-checked against Cantor's
algorithm), scalar multiplication (the signed-digit ladder against a
binary one and repeated addition, on fresh and remembered doubling
chains, which stay bounded and per curve), Jacobian enumeration (cross-checked
against naive and O(q^3) scan oracles and the zeta-function identity for
#J), the counted runs of classes per u, the prime-field count on ints
against the per-u table, and the inputs both counts read against the
norm of f mod u and the points."""

import collections
import itertools

import pytest

from xjac.curve import (
    _DOUBLING_BASES,
    AffinePoint,
    HyperellipticCurve,
    MumfordDivisor,
    NotSquarefreeError,
    find_squarefree_quintic,
)
from xjac.field import finite_field
from xjac.poly import (
    Poly,
    raw_add,
    raw_divmod,
    raw_eval,
    raw_gcd,
    raw_mul,
    raw_neg,
    raw_strip,
    raw_sub,
)
from xjac.stats import RandomSource


def naive_enumeration(curve):
    """Oracle: scan every (u, v) shape and keep pairs with u | v^2 - f, in
    the canonical order (weight 1 by the root x = -u0, then y), as
    coefficient tuples.

    Independent of the production enumerator; only shares the raw_*
    polynomial kernels.
    """
    K = curve.field
    q = K.q
    f = curve.f.coeffs

    def divides(u, v):
        return not raw_divmod(K, raw_sub(K, raw_mul(K, v, v), f), u)[1]

    out = [((1,), ())]
    for x in range(q):
        u = (K.neg(x), 1)
        for v0 in range(q):
            v = tuple(raw_strip([v0]))
            if divides(u, v):
                out.append((u, v))
    for u0 in range(q):
        for u1 in range(q):
            u = (u0, u1, 1)
            for v0 in range(q):
                for v1 in range(q):
                    v = tuple(raw_strip([v0, v1]))
                    if divides(u, v):
                        out.append((u, v))
    return out


def scan_enumeration(curve):
    """Oracle: the O(q^3) enumeration that scans every c of v = c*x + d.

    Returns the canonical list of (u, v) coefficient tuples and the set of
    cases met on the way: "a^2 = 4b" and "r1 = 0" when such a u carries a
    divisor, "r1 = 0, c != 0" when one of those has c != 0, and
    "a^2 = 4b, 2a*r1 = 4r0" for any u of that kind (which never carries
    one)."""
    K = curve.field
    q = K.q
    add, sub, mul, neg, inv = K._add, K._sub, K._mul, K._neg, K._inv
    f = curve.f.coeffs
    four = add(add(1, 1), add(1, 1))
    out = [((1,), ())]
    for x in range(q):
        for y in range(q):
            if mul(y, y) == curve.f(x):
                out.append(((neg(x), 1), (y,) if y else ()))
    cases = set()
    for b in range(q):  # u0
        for a in range(q):  # u1
            # f mod (x^2 + a*x + b) via x^k == A_k*x + B_k
            r1, r0 = 0, f[0]
            Ak, Bk = 1, 0  # k = 1
            for k in range(1, 6):
                r1 = add(r1, mul(f[k], Ak))
                r0 = add(r0, mul(f[k], Bk))
                Ak, Bk = sub(Bk, mul(a, Ak)), neg(mul(b, Ak))
            # v = c*x + d with v^2 == f mod u:
            #   2cd - a c^2 = r1  and  d^2 - b c^2 = r0
            cand = []
            if r1 == 0:
                cand = [(d, 0) for d in range(q) if mul(d, d) == r0]
            for c in range(1, q):
                cc = mul(c, c)
                d = mul(add(r1, mul(a, cc)), inv(add(c, c)))
                if sub(mul(d, d), mul(b, cc)) == r0:
                    cand.append((d, c))
            cand.sort()
            square = mul(a, a) == mul(four, b)
            if square and add(mul(a, r1), mul(a, r1)) == mul(four, r0):
                cases.add("a^2 = 4b, 2a*r1 = 4r0")
            if cand and square:
                cases.add("a^2 = 4b")
            if cand and r1 == 0:
                cases.add("r1 = 0")
                if any(c for _, c in cand):
                    cases.add("r1 = 0, c != 0")
            for d, c in cand:
                out.append(((b, a, 1), (d, c) if c else ((d,) if d else ())))
    return out, cases


def seeded_quintic(K, seed):
    """A squarefree monic quintic over K with seeded random coefficients."""
    rng = RandomSource(seed)
    while True:
        f = (*rng.below(K.q, 5), 1)
        try:
            return HyperellipticCurve(K, f)
        except NotSquarefreeError:
            pass


def remainder_check(curve, u, v):
    """Oracle for is_valid_divisor: u | v^2 - f by polynomial division."""
    K = curve.field
    diff = raw_sub(K, raw_mul(K, v.coeffs, v.coeffs), curve.f.coeffs)
    return not raw_divmod(K, diff, u.coeffs)[1]


class TestConstruction:
    def test_rejects_bad_f(self, F7):
        with pytest.raises(ValueError, match="^deg f = 4, need exactly 5$"):
            HyperellipticCurve(F7, "1,0,0,0,1")       # degree 4
        with pytest.raises(ValueError, match="^f must be monic$"):
            HyperellipticCurve(F7, "1,0,0,0,0,2")
        with pytest.raises(NotSquarefreeError, match=r"^f = x\^5 has a repeated root$"):
            HyperellipticCurve(F7, "0,0,0,0,0,1")     # x^5
        with pytest.raises(ValueError, match="^f is over F_11, not F_7$"):
            HyperellipticCurve(F7, Poly(finite_field(11), (1, 0, 0, 0, 0, 1)))

    def test_accepts_poly_and_sequence(self, F7):
        a = HyperellipticCurve(F7, (1, 0, 0, 0, 0, 1))
        b = HyperellipticCurve(F7, Poly(F7, (1, 0, 0, 0, 0, 1)))
        assert a == b

    def test_find_squarefree_quintic(self, F7, F27):
        # every f with c0 = c1 = 0 is divisible by x^2, so the search
        # lands on x^5 + x, the first candidate after those
        assert find_squarefree_quintic(F7).to_string() == "0,1,0,0,0,1"
        assert find_squarefree_quintic(F27).to_string() == "0,1,0,0,0,1"


class TestPoints:
    def test_reference_curve_points(self, c7):
        assert c7.points() == (
            AffinePoint(0, 1), AffinePoint(0, 6),
            AffinePoint(1, 3), AffinePoint(1, 4),
            AffinePoint(5, 2), AffinePoint(5, 5),
            AffinePoint(6, 0),
        )

    def test_points_match_direct_scan(self, c9):
        K = c9.field
        expected = sorted(
            (x, y) for x in range(K.q) for y in range(K.q)
            if K.mul(y, y) == c9.f(x)
        )
        assert [tuple(P) for P in c9.points()] == expected

    def test_is_point(self, c7):
        assert c7.is_point(0, 1)
        assert not c7.is_point(0, 2)

    def test_divisor_from_point(self, c7):
        D = c7.divisor_from_point((0, 1))
        assert D.u.coeffs == (0, 1) and D.v.coeffs == (1,)
        with pytest.raises(ValueError, match=r"^\(0, 2\) does not satisfy y\^2 = f\(x\)$"):
            c7.divisor_from_point((0, 2))


class TestDivisorValidity:
    def test_neutral_is_valid(self, c7):
        assert c7.is_valid_divisor(c7.zero())

    def test_u_divides_rule(self, F7, c7):
        # v^2 - f = -x^5 and x^2 | x^5, so [x^2, 1] is a valid pair
        assert c7.is_valid_divisor(MumfordDivisor(Poly(F7, (0, 0, 1)), Poly.one(F7)))
        # x^2 + 1 does not divide x^5 + 1 over F_7
        assert not c7.is_valid_divisor(MumfordDivisor(Poly(F7, (1, 0, 1)), Poly.zero(F7)))

    def test_shape_violations_are_invalid(self, F7, c7):
        assert not c7.is_valid_divisor((Poly(F7, (0, 0, 2)), Poly.zero(F7)))
        assert not c7.is_valid_divisor("nonsense")
        assert not c7.is_valid_divisor((Poly(finite_field(11), (0, 1)), Poly.zero(finite_field(11))))

    def test_closed_form_matches_remainder_every_f7_shape(self, F7, c7):
        shapes = [(Poly.one(F7), Poly.zero(F7))]
        for u0 in range(7):
            for d in range(7):
                shapes.append((Poly(F7, (u0, 1)), Poly(F7, (d,))))
        for b in range(7):
            for a in range(7):
                for d in range(7):
                    for c in range(7):
                        shapes.append((Poly(F7, (b, a, 1)), Poly(F7, (d, c))))
        answers = set()
        for u, v in shapes:
            want = remainder_check(c7, u, v)
            assert c7.is_valid_divisor(MumfordDivisor(u, v)) == want, (u, v)
            answers.add(want)
        assert answers == {True, False}

    @staticmethod
    def near_misses(curve, divisors, rng):
        """Each divisor as is, with v shifted in one coefficient, and with
        a random v of the same shape, so both answers occur."""
        K = curve.field
        for i, D in enumerate(divisors):
            v = list(D.v.coeffs) + [0] * (D.weight - len(D.v.coeffs))
            if i % 3 == 1:
                j = rng.below(D.weight, 1)[0]
                v[j] = K.add(v[j], 1 + rng.below(K.q - 1, 1)[0])
            elif i % 3 == 2:
                v = rng.below(K.q, len(v))
            yield D.u, Poly(K, v)

    def check_random(self, curve, divisors, rng):
        answers = []
        for u, v in self.near_misses(curve, divisors, rng):
            want = remainder_check(curve, u, v)
            assert curve.is_valid_divisor(MumfordDivisor(u, v)) == want, (u, v)
            answers.append(want)
        assert answers.count(True) > 600 and answers.count(False) > 600

    def test_closed_form_matches_remainder_f81(self):
        curve = HyperellipticCurve(finite_field(3, 4), "2,40,13,7,29,1")
        J = [D for D in curve.enumerate_jacobian() if D.weight]
        rng = RandomSource(81)
        self.check_random(curve, [J[i] for i in rng.below(len(J), 2000)], rng)

    def test_closed_form_matches_remainder_large_prime(self):
        p = 1000003  # p == 3 mod 4, so r^((p+1)/4) is a square root
        curve = HyperellipticCurve(finite_field(p), "5,17,0,3,11,1")
        rng = RandomSource(p)

        def point():
            while True:
                x = rng.below(p, 1)[0]
                r = curve.f(x)
                if pow(r, (p - 1) // 2, p) == 1:
                    return curve.divisor_from_point((x, pow(r, (p + 1) // 4, p)))

        divisors = []
        for i in range(2000):
            D = point()
            if i % 4:
                u, v = curve._cantor_general_raw(*raw_args(D, point()))
                D = curve._wrap_divisor(u, v)
            divisors.append(D)
        self.check_random(curve, divisors, rng)

    def test_mumford_shape_enforced(self, F7):
        with pytest.raises(ValueError, match="^deg u = 3 > 2 is not reduced$"):
            MumfordDivisor(Poly(F7, (0, 0, 0, 1)), Poly.zero(F7))  # deg 3
        with pytest.raises(ValueError, match=r"^u = 2\*x is not monic$"):
            MumfordDivisor(Poly(F7, (0, 2)), Poly.zero(F7))        # not monic
        with pytest.raises(ValueError, match="^deg v = 1 must be below deg u = 1$"):
            MumfordDivisor(Poly(F7, (0, 1)), Poly(F7, (1, 1)))     # deg v too big


class TestCantor:
    def test_worked_addition(self, F7, c7):
        # [x, 1] + [x + 6, 3] on y^2 = x^5 + 1
        D1 = c7.divisor_from_point((0, 1))
        D2 = c7.divisor_from_point((1, 3))
        S = c7.cantor_add(D1, D2)
        assert S.u.coeffs == (0, 6, 1)   # x^2 + 6x
        assert S.v.coeffs == (1, 2)      # 2x + 1

    def test_worked_doubling(self, c7):
        D = c7.divisor_from_point((0, 1))
        S = c7.cantor_add(D, D)
        assert S.u.coeffs == (0, 0, 1)   # x^2
        assert S.v.coeffs == (1,)

    def test_point_plus_opposite_is_neutral(self, c7):
        D1 = c7.divisor_from_point((0, 1))
        D2 = c7.divisor_from_point((0, 6))
        assert c7.cantor_add(D1, D2).is_zero

    def test_neg(self, F7, c7):
        D = c7.cantor_add(
            c7.divisor_from_point((0, 1)), c7.divisor_from_point((1, 3))
        )
        N = c7.neg(D)
        assert N.u == D.u
        assert N.v.coeffs == (6, 5)      # -(2x + 1) = 5x + 6
        assert c7.cantor_add(D, N).is_zero

    def test_weight2_interpolation_semantics(self, c7):
        # adding two distinct non-opposite points gives u with those roots
        # and v through both points
        for P in [(0, 1), (1, 3)]:
            for Q in [(5, 2), (6, 0)]:
                D = c7.cantor_add(
                    c7.divisor_from_point(P), c7.divisor_from_point(Q)
                )
                K = c7.field
                assert D.u(P[0]) == 0 and D.u(Q[0]) == 0
                assert D.v(P[0]) == P[1] and D.v(Q[0]) == Q[1]

    def test_invalid_operand_rejected(self, F7, c7):
        ghost = MumfordDivisor(Poly(F7, (1, 0, 1)), Poly.zero(F7))
        on_c7 = r" is not a divisor on y\^2 = x\^5 \+ 1 over F_7$"
        with pytest.raises(ValueError, match=r"^\[x\^2 \+ 1, 0\]" + on_c7):
            c7.cantor_add(ghost, c7.zero())
        with pytest.raises(ValueError, match="^'no'" + on_c7):
            c7.cantor_add("no", c7.zero())


def raw_args(A, B):
    return list(A.u.coeffs), list(A.v.coeffs), list(B.u.coeffs), list(B.v.coeffs)


def rebuilt(D):
    """D through the checked constructors: equal to D only when its lists
    are canonical (reduced field elements, no trailing zeros)."""
    K = D.u.field
    return MumfordDivisor(Poly(K, D.u.coeffs), Poly(K, D.v.coeffs))


def cantor_only_scalar_mul(curve, D, m):
    """Oracle: m*D by right-to-left binary double-and-add, a route
    independent of scalar_mul's signed-digit ladder, with every step done
    by Cantor's algorithm."""
    ru, rv = [1], []
    au, av = list(D.u.coeffs), list(D.v.coeffs)
    while m:
        if m & 1:
            ru, rv = curve._cantor_general_raw(ru, rv, au, av)
        m >>= 1
        if m:
            au, av = curve._cantor_general_raw(au, av, au, av)
    return curve._wrap_divisor(ru, rv)


@pytest.fixture
def general_calls(monkeypatch):
    """Records every call that reaches Cantor's algorithm; returns the list
    and the unpatched method, which serves as the oracle."""
    calls = []
    original = HyperellipticCurve._cantor_general_raw

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(HyperellipticCurve, "_cantor_general_raw", counting)
    return calls, original


def weight2_class(curve):
    """The sum of the curve's two points with the smallest x, on a prime
    field with p = 3 mod 4 (so sqrt(r) = r^((p+1)/4))."""
    p = curve.field.p
    points = []
    x = 0
    while len(points) < 2:
        r = curve.f(x)
        if r and pow(r, (p - 1) // 2, p) == 1:
            points.append(curve.divisor_from_point((x, pow(r, (p + 1) // 4, p))))
        x += 1
    G = curve.cantor_add(*points)
    assert G.weight == 2
    return G


class TestClosedForm:
    """_cantor_raw against Cantor's algorithm (_cantor_general_raw), which
    stays the fallback and composes every extension-field class; on prime
    fields its closed-form weight-2 add and double."""

    def check_pairs(self, curve, pairs):
        """Every sum equal to Cantor's and canonical once wrapped; returns
        how many the closed form gave, 0 off prime fields."""
        closed = 0
        for A, B in pairs:
            args = raw_args(A, B)
            want = curve._cantor_general_raw(*args)
            got = curve._cantor_raw(*args)
            assert got == want, (A, B)
            D = curve._wrap_divisor(*got)
            assert D == rebuilt(D), (A, B)
            if curve._prime and A.weight == B.weight == 2:
                # the form _cantor_raw takes, the double on equal operands
                out = curve._weight2_prime_raw(*args)
                if out is not None:
                    assert out == want, (A, B)
                    closed += 1
        return closed

    def test_closed_form_on_prime_fields_only(self, c7, c9, general_calls):
        """A generic add and a generic double reach Cantor's algorithm
        never over F_7, where the closed form takes both, and once each
        over F_9."""
        calls, oracle = general_calls
        for curve, reach in ((c7, 0), (c9, 1)):
            K = curve.field
            w2 = [D for D in curve.enumerate_jacobian() if D.weight == 2]

            def generic(u1, v1, u2, v2):
                # u1 coprime to u2 (add) or to v1 (double), sum of weight 2
                other = v1 if (u1, v1) == (u2, v2) else u2
                return (
                    len(raw_gcd(K, u1, other)) == 1
                    and len(oracle(curve, u1, v1, u2, v2)[0]) == 3
                )

            add = next(
                args
                for args in (raw_args(A, B) for A in w2 for B in w2)
                if args[0] != args[2] and generic(*args)
            )
            double = next(args for args in (raw_args(D, D) for D in w2) if generic(*args))
            for args in (add, double):
                before = len(calls)
                assert curve._cantor_raw(*args) == oracle(curve, *args)
                assert len(calls) == before + reach, (curve, args)
            if curve._prime:
                assert curve._weight2_prime_raw(*add) == oracle(curve, *add)
                assert curve._weight2_prime_raw(*double) == oracle(curve, *double)

    @pytest.mark.parametrize("name", ["c7", "c9"])
    def test_every_pair_and_doubling(self, name, request):
        curve = request.getfixturevalue(name)
        J = curve.enumerate_jacobian()
        pairs = [(A, B) for A in J for B in J]
        closed = self.check_pairs(curve, pairs)
        if curve._prime:
            assert closed > len(J)

    @pytest.mark.parametrize(
        "p, n, f",
        [
            (7, 2, "3,5,11,20,7,1"),
            (3, 4, "2,40,13,7,29,1"),
            (1000003, 1, "5,17,0,3,11,1"),
        ],
    )
    def test_random_pairs_and_doublings(self, p, n, f):
        curve = HyperellipticCurve(finite_field(p, n), f)
        rng = RandomSource(p * n)
        if n == 1:  # |J| ~ 10^12: seeded multiples of one class
            G = weight2_class(curve)
            J = [curve.scalar_mul(G, m) for m in rng.below(p * p, 200)]
        else:
            J = curve.enumerate_jacobian()
        J = [D for D in J if D.weight == 2]

        def pick():
            return J[rng.below(len(J), 1)[0]]

        pairs = [(pick(), pick()) for _ in range(2000)]
        pairs += [(D, D) for D in (pick() for _ in range(2000))]
        closed = self.check_pairs(curve, pairs)
        if curve._prime:
            assert closed > 3500

    def test_scalar_mul_large_prime(self):
        p = 1000003
        curve = HyperellipticCurve(finite_field(p), "5,17,0,3,11,1")
        G = weight2_class(curve)
        scalars = RandomSource(1000003).below(p * p, 20)
        for m in scalars:
            assert curve.scalar_mul(G, m) == cantor_only_scalar_mul(curve, G, m)
        for a, b in zip(scalars[:4], scalars[4:8]):
            aG, bG = curve.scalar_mul(G, a), curve.scalar_mul(G, b)
            assert curve.scalar_mul(bG, a) == curve.scalar_mul(aG, b)

    def test_fallback_branches(self, c7, general_calls):
        calls, oracle = general_calls
        K = c7.field
        J = c7.enumerate_jacobian()
        w1 = [D for D in J if D.weight == 1]
        w2 = [D for D in J if D.weight == 2]

        def coprime(a, b):
            return len(raw_gcd(K, a, b)) == 1

        def first(pairs, pred):
            for A, B in pairs:
                if pred(*raw_args(A, B)):
                    return A, B
            raise AssertionError("no pair hits this branch")

        def light_sum(u1, v1, u2, v2):
            return len(oracle(c7, u1, v1, u2, v2)[0]) < 3

        pairs = [(A, B) for A in w2 for B in w2]
        cases = {
            "weight-1 operand": (w1[0], w2[0]),
            "D + (-D)": first(
                ((D, c7.neg(D)) for D in w2), lambda u1, v1, u2, v2: v1 != v2
            ),
            "shared root": first(
                pairs, lambda u1, v1, u2, v2: u1 != u2 and not coprime(u1, u2)
            ),
            "r = 0 in a doubling": first(
                ((D, D) for D in w2), lambda u1, v1, u2, v2: not coprime(u1, v1)
            ),
            # once Res != 0 the composition is [u1*u2, V] with V = v1 + s*u1,
            # and the sum has weight below 2 exactly when s1 = 0
            "s1 = 0 in an add": first(
                pairs,
                lambda u1, v1, u2, v2: coprime(u1, u2) and light_sum(u1, v1, u2, v2),
            ),
            "s1 = 0 in a doubling": first(
                ((D, D) for D in w2),
                lambda u1, v1, u2, v2: coprime(u1, v1) and light_sum(u1, v1, u2, v2),
            ),
        }
        for name, (A, B) in cases.items():
            args = raw_args(A, B)
            before = len(calls)
            assert c7._cantor_raw(*args) == oracle(c7, *args), name
            assert len(calls) == before + 1, name


def naf_shape(m):
    """(digits, nonzero digits) of the non-adjacent form of m > 0, by the
    textbook recoding: digit 2 - (m mod 4) wherever m is odd."""
    digits = weight = 0
    while m:
        if m & 1:
            m -= 2 - (m & 3)
            weight += 1
        m >>= 1
        digits += 1
    return digits, weight


@pytest.fixture
def raw_calls(monkeypatch):
    """Records the arguments of every _cantor_raw call."""
    calls = []
    original = HyperellipticCurve._cantor_raw

    def recording(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(HyperellipticCurve, "_cantor_raw", recording)
    return calls


class TestLadder:
    """scalar_mul's signed-digit ladder against independent routes: the
    binary ladder by Cantor's algorithm, repeated cantor_add, additivity in
    the scalar and the composition count of the non-adjacent form."""

    @pytest.fixture(scope="class")
    def dh(self):
        curve = HyperellipticCurve(finite_field(1000003), "5,17,0,3,11,1")
        return curve, weight2_class(curve)

    def test_edge_scalars_large_prime(self, dh):
        curve, G = dh
        p = curve.field.p
        scalars = [0, 1, 2, 3, 2**40 - 1, p * p - 1]
        scalars += [2**k + e for k in range(2, 42, 3) for e in (-1, 1)]
        for k in (1, 2, 7, 20):
            scalars += [int("10" * k, 2), int("1" + "01" * k, 2), int("110" * k, 2)]
        for m in scalars:
            assert curve.scalar_mul(G, m) == cantor_only_scalar_mul(curve, G, m), m

    @pytest.mark.parametrize("name", ["c7", "c9"])
    def test_every_small_multiple(self, name, request, raw_calls):
        """Every m < 3|J| for a few D against repeated cantor_add; the
        running sum meets -D inside the ladder, where the closed forms
        fall back."""
        curve = request.getfixturevalue(name)
        K = curve.field
        J = curve.enumerate_jacobian()
        for D in [J[1]] + [J[i] for i in RandomSource(len(J)).below(len(J), 3)]:
            acc = curve.zero()
            for m in range(3 * len(J)):
                assert curve.scalar_mul(D, m) == acc, (D, m)
                acc = curve.cantor_add(acc, D)
        assert any(
            u1 == u2 and len(u1) > 1 and v2 == raw_neg(K, v1) and v1 != v2
            for u1, v1, u2, v2 in raw_calls
        )

    def test_additive_in_the_scalar(self, dh):
        curve, G = dh
        p = curve.field.p
        rng = RandomSource(19)
        for _ in range(10):
            a, b = rng.below(p * p, 2)
            aG, bG = curve.scalar_mul(G, a), curve.scalar_mul(G, b)
            assert curve.scalar_mul(G, a + b) == curve.cantor_add(aG, bG), (a, b)

    def test_composition_count(self, dh, raw_calls):
        """On a fresh base, one doubling per digit below the top and one add
        per nonzero digit below it; 2^40 - 1, in signed digits 2^40 - 2^0,
        takes 41 compositions, against 79 for binary double-and-add."""
        curve, G = dh
        curve._doublings.clear()
        curve.scalar_mul(G, 2**40 - 1)
        assert len(raw_calls) == 41
        for m in (0, 1):
            curve._doublings.clear()
            raw_calls.clear()
            curve.scalar_mul(G, m)
            assert not raw_calls
        for r in RandomSource(40).below(2**64, 50):
            m = r + 2
            digits, weight = naf_shape(m)
            curve._doublings.clear()
            raw_calls.clear()
            curve.scalar_mul(G, m)
            assert len(raw_calls) == digits - 1 + weight - 1, m

    def test_repeated_base_makes_no_doublings(self, dh, raw_calls):
        """Once a base's chain is kept (from its second use) and reaches
        the top digit of m, m*D takes one add per nonzero digit but the
        lowest, and no doubling."""
        curve, G = dh
        curve._doublings.clear()
        for _ in range(2):
            curve.scalar_mul(G, 2**66)
        randoms = [r + 2 for r in RandomSource(41).below(2**64, 50)]
        for m in [1, 2, 2**40 - 1, 2**65 + 1] + randoms:
            digits, weight = naf_shape(m)
            raw_calls.clear()
            curve.scalar_mul(G, m)
            assert len(raw_calls) == weight - 1, m
            assert all((u1, v1) != (u2, v2) for u1, v1, u2, v2 in raw_calls), m


def key(D):
    return D.u.coeffs, D.v.coeffs


class TestDoublingChain:
    """The doubling chains scalar_mul remembers per base: every result is
    checked against the binary Cantor-only oracle with the base fresh (its
    chain forgotten) and repeated (its chain kept, and extended as m
    grows), on a large prime field and on F_7^2; the memo is bounded,
    least recently used, keyed by the whole class and per curve."""

    @pytest.fixture(scope="class", params=["p1000003", "F49"])
    def setting(self, request):
        if request.param == "p1000003":
            curve = HyperellipticCurve(finite_field(1000003), "5,17,0,3,11,1")
            G = weight2_class(curve)
            return curve, [G, curve.scalar_mul(G, 123456789)], None
        curve = HyperellipticCurve(finite_field(7, 2), "3,5,11,20,7,1")
        J = curve.enumerate_jacobian()
        bases = [J[1]] + [J[i] for i in RandomSource(49).below(len(J), 3)]
        return curve, bases, len(J)

    @staticmethod
    def scalars(order):
        """0, 1, powers of two, 2^k - 1 and signed-digit patterns, in
        ascending length so that a kept chain has to grow; with the group
        order, multiples of it and scalars above it."""
        out = [0, 1]
        for k in range(1, 48, 3):
            out += [2**k, 2**k - 1, 2**k + 1, 3 * 2**k]
            out += [int(("1011" * k)[:k + 1], 2), int(("110" * k)[:k + 1], 2)]
        if order is not None:
            out += [order - 1, order, order + 1, 2 * order, 3 * order + 7, order**2 + 5]
        return out

    def test_fresh_and_repeated_base(self, setting):
        curve, bases, order = setting
        zero = curve.zero()
        for D in bases:
            curve._doublings.clear()
            for _ in range(2):  # kept from the second use
                curve.scalar_mul(D, 1)
            for m in self.scalars(order):
                want = cantor_only_scalar_mul(curve, D, m)
                assert curve.scalar_mul(D, m) == want, ("repeated", D, m)
                kept = dict(curve._doublings)
                curve._doublings.clear()
                assert curve.scalar_mul(D, m) == want, ("fresh", D, m)
                curve._doublings.clear()
                curve._doublings.update(kept)
                if order is not None and m % order == 0:
                    assert want == zero
            assert len(curve._doublings[key(D)]) >= 48

    def test_chain_extends_lazily(self, setting):
        curve, bases, _ = setting
        D = bases[0]
        curve._doublings.clear()
        curve.scalar_mul(D, 2**10 + 5)
        assert curve._doublings == {key(D): None}  # seen once: no chain
        curve.scalar_mul(D, 2**10 + 5)
        chain = curve._doublings[key(D)]
        assert len(chain) == 11
        curve.scalar_mul(D, 7)
        assert len(chain) == 11
        curve.scalar_mul(D, 2**30 - 1)  # signed digits 2^30 - 2^0
        assert len(chain) == 31
        for i in (0, 1, 17, 30):
            u, v = chain[i]
            assert curve._wrap_divisor(u, v) == cantor_only_scalar_mul(curve, D, 2**i)

    def test_bounded_least_recently_used(self, dh_curve):
        curve, G = dh_curve
        curve._doublings.clear()
        others = [curve.scalar_mul(G, 1000 + i) for i in range(10)]
        curve._doublings.clear()
        for i, B in enumerate(others):
            curve.scalar_mul(G, 2**20 + i)
            curve.scalar_mul(B, 2**20 + i)
            assert len(curve._doublings) <= _DOUBLING_BASES
            assert (curve._doublings[key(G)] is None) == (i == 0)
            assert curve._doublings[key(B)] is None
        assert list(curve._doublings)[-1] == key(others[-1])
        for B in others:  # ten distinct bases, none repeated
            curve.scalar_mul(B, 2**20)
            assert len(curve._doublings) <= _DOUBLING_BASES
        assert key(G) not in curve._doublings

    def test_key_is_the_whole_class(self, dh_curve):
        """D and -D share u; each keeps its own chain."""
        curve, G = dh_curve
        m = 2**40 - 3
        want = cantor_only_scalar_mul(curve, G, m)
        curve._doublings.clear()
        for _ in range(3):
            assert curve.scalar_mul(G, m) == want
            assert curve.scalar_mul(curve.neg(G), m) == curve.neg(want)
        assert len(curve._doublings) == 2
        assert None not in curve._doublings.values()

    def test_remembered_per_curve(self, dh_curve):
        """D is on both y^2 = f1 and y^2 = f2 = f1 + u*g (u | v^2 - f2 as
        u | v^2 - f1); each curve keeps its own chain for the same key."""
        curve1, G = dh_curve
        K = curve1.field
        for g in ((1, 1), (2, 1), (1, 0, 1)):
            try:
                f2 = raw_add(K, curve1.f.coeffs, raw_mul(K, G.u.coeffs, g))
                curve2 = HyperellipticCurve(K, f2)
                break
            except NotSquarefreeError:
                continue
        assert curve2.is_valid_divisor(G)
        m = 2**40 - 3
        want1 = cantor_only_scalar_mul(curve1, G, m)
        want2 = cantor_only_scalar_mul(curve2, G, m)
        assert want1 != want2
        curve1._doublings.clear()
        for _ in range(3):
            assert curve1.scalar_mul(G, m) == want1
            assert curve2.scalar_mul(G, m) == want2
        assert curve1._doublings.keys() == curve2._doublings.keys() == {key(G)}

    @pytest.fixture
    def dh_curve(self):
        curve = HyperellipticCurve(finite_field(1000003), "5,17,0,3,11,1")
        return curve, weight2_class(curve)


class TestEnumeration:
    def test_matches_naive_oracle_f7(self, c7):
        got = [(D.u.coeffs, D.v.coeffs) for D in c7.enumerate_jacobian()]
        assert got == naive_enumeration(c7)

    def test_matches_naive_oracle_f9(self, c9):
        got = {(D.u.coeffs, D.v.coeffs) for D in c9.enumerate_jacobian()}
        want = set(naive_enumeration(c9))
        assert got == want

    def test_matches_scan_oracle_in_order(self):
        """The O(q^2) solve for c^2 against the O(q^3) scan over every c,
        tuple for tuple, on seeded curves; together the curves reach
        every case of the solve."""
        cases = set()
        for p, n in [(3, 1), (5, 1), (7, 1), (71, 1), (3, 2), (5, 2), (7, 2), (3, 4)]:
            for seed in range(3 if p ** n < 50 else 1):
                curve = seeded_quintic(finite_field(p, n), 100 * p + 10 * n + seed)
                J = curve.enumerate_jacobian()
                assert all(D == rebuilt(D) for D in J), (p, n, curve.f)
                got = [(D.u.coeffs, D.v.coeffs) for D in J]
                want, met = scan_enumeration(curve)
                assert got == want, (p, n, curve.f)
                cases |= met
        assert cases == {
            "a^2 = 4b", "r1 = 0", "r1 = 0, c != 0", "a^2 = 4b, 2a*r1 = 4r0"
        }

    @pytest.mark.parametrize("p", [7, 11, 13, 31, 41])
    def test_zeta_identity(self, p):
        """#J = (N1^2 + N2)/2 - q with N1, N2 the projective point counts
        over F_p and F_p^2: an order check that uses no enumeration."""
        curve = seeded_quintic(finite_field(p), p)
        # coefficients below p encode the same constants in F_p^2
        lifted = HyperellipticCurve(finite_field(p, 2), curve.f.coeffs)
        n1 = len(curve.points()) + 1
        n2 = len(lifted.points()) + 1
        assert curve.value_counts().order == (n1 * n1 + n2) // 2 - p
        assert len(curve.enumerate_jacobian()) == (n1 * n1 + n2) // 2 - p
        assert (n1 * n1 + n2) % 2 == 0

    @pytest.mark.parametrize(
        "p,n", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)]
    )
    def test_counted_order_and_values_match_enumeration(self, p, n):
        """value_counts against the enumerated classes read through u:
        |J|, and the classes per sum and per product of abscissas."""
        K = finite_field(p, n)
        for seed in range(3 if K.q < 50 else 1):
            curve = seeded_quintic(K, 1000 * p + 10 * n + seed)
            J = curve.enumerate_jacobian()
            sums, products = [0] * K.q, [0] * K.q
            for D in J[1:]:
                u0, u1 = D.u.coeff(0), D.u.coeff(1)
                if D.weight == 1:
                    sums[K.neg(u0)] += 1
                    products[K.neg(u0)] += 1
                else:
                    sums[K.neg(u1)] += 1
                    products[u0] += 1
            counted = curve.value_counts()
            assert counted.order == len(J) == curve.jacobian_order()
            assert list(counted.sums) == sums and list(counted.products) == products

    @pytest.mark.parametrize(
        "p,n", [(3, 1), (7, 1), (31, 1), (67, 1), (3, 2), (5, 2), (3, 3), (3, 4)]
    )
    def test_class_runs_match_enumeration_and_counts(self, p, n):
        """The runs of classes per u that _class_table records, its nonzero
        entries, against enumerate_jacobian grouped by u: x - x1 at x1,
        x^2 + a*x + b at q + b*q + a, in enumeration order; and
        value_counts as the per-value totals of the table."""
        K = finite_field(p, n)
        q = K.q
        for seed in range(3 if q < 50 else 1):
            curve = seeded_quintic(K, 500 * p + 10 * n + seed)
            table = curve._class_table()
            assert len(table) == q * q + q
            J = curve.enumerate_jacobian()
            by_u = itertools.groupby(J[1:], key=lambda D: D.u.coeffs)
            grouped = [(u, len(list(g))) for u, g in by_u]
            runs = [
                ((K.neg(i), 1) if i < q else ((i - q) // q, (i - q) % q, 1), m)
                for i, m in enumerate(table) if m
            ]
            assert runs == grouped, (p, n, curve.f)
            counted = curve.value_counts()
            assert 1 + sum(table) == counted.order == len(J)
            sums, products = list(table[:q]), list(table[:q])
            for i in range(q, len(table)):
                b, a = divmod(i - q, q)
                sums[K.neg(a)] += table[i]
                products[b] += table[i]
            assert list(counted.sums) == sums and list(counted.products) == products

    def test_counting_builds_no_divisor(self, F11):
        curve = HyperellipticCurve(F11, "1,1,0,0,0,1")
        assert curve.jacobian_order() == 88
        assert curve._jacobian is None

    def test_orders(self, c7, c9, c11, c13, c27):
        assert c7.jacobian_order() == 50
        assert c9.jacobian_order() == 100
        assert c11.jacobian_order() == 88
        assert c13.jacobian_order() == 234
        assert c27.jacobian_order() == 684

    def test_ordering_contract(self, c7):
        J = c7.enumerate_jacobian()
        assert J[0].is_zero
        npts = len(c7.points())
        for i, P in enumerate(c7.points()):
            D = J[1 + i]
            assert D.weight == 1 and D == c7.divisor_from_point(P)
        keys = [
            (D.u.coeff(0), D.u.coeff(1), D.v.coeff(0), D.v.coeff(1))
            for D in J[1 + npts:]
        ]
        assert keys == sorted(keys)
        assert all(D.weight == 2 for D in J[1 + npts:])

    def test_all_enumerated_are_valid(self, c7, c9):
        for curve in (c7, c9):
            for D in curve.enumerate_jacobian():
                assert curve.is_valid_divisor(D)

    def test_weil_interval(self, c7, c9, c11, c13, c27):
        for curve in (c7, c9, c11, c13, c27):
            lo, hi = curve.weil_interval()
            assert lo <= curve.jacobian_order() <= hi

    @pytest.mark.parametrize("p, n, lo, hi", [
        (7, 2, 6**4, 8**4),
        (1014817, 1, 1025770397855, 1033948866929),
        (3, 17, 16671312286781173, 16683052662233923),
    ])
    def test_weil_interval_is_exact(self, p, n, lo, hi):
        """floor((sqrt(q) - 1)^4) and ceil((sqrt(q) + 1)^4) exactly: rounded
        floats gave hi one short at p = 1014817 and lo one over at 3^17."""
        K = finite_field(p, n)
        assert HyperellipticCurve(K, find_squarefree_quintic(K)).weil_interval() == (lo, hi)


def with_factor(K, factor):
    """A squarefree monic quintic over K that factor (monic, low degree
    first) divides: factor * (x^k + c) for the smallest c that works."""
    k = 6 - len(factor)
    for c in range(K.q):
        try:
            return HyperellipticCurve(K, raw_mul(K, factor, [c] + [0] * (k - 1) + [1]))
        except NotSquarefreeError:
            pass
    raise AssertionError(f"no squarefree multiple of {factor} over {K!r}")


class TestPrimeCount:
    """value_counts over F_p counts on ints in O(p) memory.  Both walks,
    _count_prime and the per-u table (_count_table), read _count_inputs,
    so their agreement checks the walks only; enumeration
    (test_counted_order_and_values_match_enumeration) and
    test_count_inputs_match_independent_routes are the oracles."""

    @pytest.mark.parametrize("p, n, pairs", [
        (7, 1, None), (11, 1, None), (3, 2, None), (5, 2, None), (3, 3, None),
        (101, 1, 500), (3, 7, 200),
    ], ids=["F7", "F11", "F9", "F25", "F27", "F101-seeded", "F3^7-vector"])
    def test_count_inputs_match_independent_routes(self, p, n, pairs):
        """N_a(b) against r0*(r0 - a*r1) + b*r1^2 with (r1, r0) from
        _f_mod_quadratic, at every (a, b) or at seeded pairs; w1[x]
        against the points over x; and h = -a/2 by 2h + a = 0."""
        K = finite_field(p, n)
        add, sub, mul = K._add, K._sub, K._mul
        curve = seeded_quintic(K, 9000 + 10 * p + n)
        _, w1, hs, norms = curve._count_inputs()
        if pairs is None:
            ab = itertools.product(range(K.q), repeat=2)
        else:
            draws = RandomSource(p + n).below(K.q, 2 * pairs)
            ab = zip(draws[::2], draws[1::2])
        for a, b in ab:
            r1, r0 = curve._f_mod_quadratic(a, b)
            norm = add(mul(r0, sub(r0, mul(a, r1))), mul(b, mul(r1, r1)))
            assert raw_eval(K, [*norms[a], 1], b) == norm, (a, b, curve.f)
        over_x = collections.Counter(x for x, _ in curve.points())
        assert w1 == [over_x[x] for x in range(K.q)]
        assert all(add(add(h, h), a) == 0 for a, h in enumerate(hs))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 101])
    def test_equals_table_walk(self, p):
        K = finite_field(p)
        for seed in range(4 if p < 20 else 2):
            curve = seeded_quintic(K, 7000 + 10 * p + seed)
            assert curve._count_prime() == curve._count_table(), curve.f

    @pytest.mark.parametrize("p", [7, 11, 31])
    @pytest.mark.parametrize("factor, row", [
        ([0, 1], 0),  # x: w1[0] = 1
        ([1, 0, 1], 2),  # x^2 + 1, irreducible as p = 3 mod 4: norm 0
    ], ids=["linear", "irreducible-quadratic"])
    def test_factor_of_f_carries_one_class(self, p, factor, row):
        """u | f carries the one class [u, 0]; u sits at row * p in the
        table (x^2 + a*x + b at p + b*p + a)."""
        curve = with_factor(finite_field(p), factor)
        assert curve._class_table()[row * p] == 1
        assert curve._count_prime() == curve._count_table()

    def test_prime_counts_build_no_table(self, table_builds):
        curve = seeded_quintic(finite_field(67), 67)
        assert curve.jacobian_order() == curve.value_counts().order
        assert table_builds == [] and curve._table is None

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3)])
    def test_extension_fields_build_the_table_once(self, table_builds, p, n):
        curve = seeded_quintic(finite_field(p, n), 10 * p + n)
        curve.value_counts()
        curve.jacobian_order()
        curve._class_table()
        assert table_builds == [curve]


class TestGroupLaws:
    def test_closure_and_commutativity_exhaustive(self, c7):
        J = c7.enumerate_jacobian()
        table = {}
        for i, A in enumerate(J):
            for B in J[i:]:
                S = c7.cantor_add(A, B)
                assert c7.is_valid_divisor(S)
                table[(A, B)] = S
        for (A, B), S in table.items():
            assert c7.cantor_add(B, A) == S

    def test_identity_and_inverse_every_element(self, c7):
        zero = c7.zero()
        for D in c7.enumerate_jacobian():
            assert c7.cantor_add(D, zero) == D
            assert c7.cantor_add(D, c7.neg(D)) == zero

    def test_associativity_seeded_triples(self, c11):
        J = c11.enumerate_jacobian()
        draws = RandomSource(2024).below(len(J), 3000)
        for a, b, c in zip(draws[0::3], draws[1::3], draws[2::3]):
            A, B, C = J[a], J[b], J[c]
            assert c11.cantor_add(c11.cantor_add(A, B), C) == c11.cantor_add(
                A, c11.cantor_add(B, C)
            )

    @pytest.mark.parametrize(
        "p, f, samples",
        [
            pytest.param(7, "1,0,0,0,0,1", None, id="c7"),
            pytest.param(101, "1,3,0,0,0,1", 300, id="p101"),
        ],
    )
    def test_element_order_divides_group_order(self, p, f, samples):
        """Every class at F_7, where most sums hit the closed form's
        fallbacks, and seeded classes at p = 101, where most adds and
        doublings inside scalar_mul are in generic position."""
        curve = HyperellipticCurve(finite_field(p), f)
        J = curve.enumerate_jacobian()
        n = len(J)
        if samples:
            J = [J[i] for i in RandomSource(p).below(n, samples)]
        for D in J:
            assert curve.scalar_mul(D, n).is_zero

    def test_scalar_mul_small_multiples(self, c7):
        D = c7.divisor_from_point((0, 1))
        acc = c7.zero()
        for k in range(12):
            assert c7.scalar_mul(D, k) == acc
            acc = c7.cantor_add(acc, D)

    def test_scalar_mul_rejects_negative(self, c7):
        with pytest.raises(ValueError, match="^scalar must be >= 0, got -1$"):
            c7.scalar_mul(c7.zero(), -1)

    @pytest.mark.parametrize("m", [True, False, 2.0])
    def test_scalar_mul_rejects_non_int(self, c7, m):
        with pytest.raises(ValueError, match=f"^scalar must be an int, got {m!r}$"):
            c7.scalar_mul(c7.zero(), m)

"""Genus-2 imaginary hyperelliptic curves y^2 = f(x) and their Jacobians.

f is monic of degree 5 and squarefree over F_q, q odd, so there is a
single point at infinity and every divisor class has a unique reduced
Mumford representative [u, v] with u monic, deg u <= 2, deg v < deg u
and u | v^2 - f.  The neutral class is [1, 0].

Group operations run on raw coefficient lists (poly.raw_*) and only wrap
results, which keeps the exhaustive group-law sweeps in the test-suite
fast enough to be routine.  The generic case, adding two weight-2 classes
whose u are coprime or doubling one whose u and v are coprime, uses
closed-form formulas with one field inversion (Cantor, Math. Comp. 48,
1987; Lange, AAECC 15, 2005); every other case, and a generic one whose
sum has weight below 2, goes through Cantor's composition and reduction,
which is also the oracle the tests check the formulas against.

Validity and enumeration work from f mod u: with u = x^2 + a*x + b,
f == r1*x + r0 and v = c*x + d, u | v^2 - f reads 2cd - a*c^2 = r1 and
d^2 - b*c^2 = r0, so checking a divisor costs O(1) field operations and
enumerating the Jacobian solves a quadratic for c^2 per u, O(q^2) in all.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    InvalidDivisorError,
    NegativeScalarError,
    NotMonicError,
    NotSquarefreeError,
    PointNotOnCurveError,
    WrongDegreeError,
)
from .field import FiniteField
from .poly import (
    Poly,
    raw_add,
    raw_divmod,
    raw_eval,
    raw_monic,
    raw_mul,
    raw_neg,
    raw_sub,
    raw_xgcd,
)

DEFAULT_BUDGET = 10**6


def find_squarefree_quintic(field: FiniteField) -> Poly:
    """Smallest monic squarefree quintic over the field: x^5 + x.

    Candidates x^5 + c4*x^4 + ... + c0 are ordered lexicographically on
    the encoding tuple (c0, ..., c4), constant coefficient first, the
    same convention find_irreducible uses.  Every candidate below
    (0, 1, 0, 0, 0) has c0 = c1 = 0, so x^2 divides it.  x^5 + x =
    x(x^4 + 1) is squarefree in odd characteristic: x does not divide
    x^4 + 1, and gcd(x^4 + 1, 4x^3) = 1 because 4 != 0 and 0 is not a
    root of x^4 + 1."""
    return Poly(field, (0, 1, 0, 0, 0, 1))


class AffinePoint(NamedTuple):
    """Affine curve point; coordinates are element encodings, so tuple
    order doubles as the canonical point order."""

    x: int
    y: int


class MumfordDivisor:
    """Reduced Mumford pair [u, v].

    Construction enforces the shape constraints (u monic, deg u <= 2,
    deg v < deg u, neutral is exactly [1, 0]); whether u | v^2 - f holds
    is curve-specific and checked by HyperellipticCurve.is_valid_divisor.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: Poly, v: Poly):
        if not isinstance(u, Poly) or not isinstance(v, Poly):
            raise InvalidDivisorError("u and v must be Poly instances")
        if u.field != v.field:
            raise FieldMismatchError("u and v over different fields")
        if not u.is_monic:
            raise InvalidDivisorError(f"u = {u} is not monic")
        if u.degree > 2:
            raise InvalidDivisorError(f"deg u = {u.degree} > 2 is not reduced")
        if v.degree >= u.degree:
            raise InvalidDivisorError(
                f"deg v = {v.degree} must be below deg u = {u.degree}"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):
        raise AttributeError("MumfordDivisor is immutable")

    @property
    def weight(self) -> int:
        return self.u.degree

    @property
    def is_zero(self) -> bool:
        return self.u.degree == 0

    def __eq__(self, other):
        if isinstance(other, MumfordDivisor):
            return self.u == other.u and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"[{self.u}, {self.v}]"


class HyperellipticCurve:
    """y^2 = f(x) with monic squarefree f of degree 5 over an odd-
    characteristic field."""

    __slots__ = ("field", "f", "_fraw", "_sqrt", "_points", "_jacobian")

    def __init__(self, field: FiniteField, f):
        if isinstance(f, str):
            f = Poly.from_string(field, f)
        elif not isinstance(f, Poly):
            f = Poly(field, f)
        if f.field != field:
            raise FieldMismatchError(f"f is over {f.field!r}, not {field!r}")
        if f.degree != 5:
            raise WrongDegreeError(f"deg f = {f.degree}, need exactly 5")
        if not f.is_monic:
            raise NotMonicError("f must be monic")
        if not f.is_squarefree():
            raise NotSquarefreeError(f"f = {f} has a repeated root")
        self.field = field
        self.f = f
        self._fraw = list(f.coeffs)
        self._sqrt = None
        self._points = None
        self._jacobian = None

    # -- points ---------------------------------------------------------------

    def _sqrt_table(self) -> list[list[int]]:
        """sqrt[r] = ascending list of y with y*y == r."""
        if self._sqrt is None:
            K = self.field
            table: list[list[int]] = [[] for _ in range(K.q)]
            mul = K._mul
            for y in range(K.q):
                table[mul(y, y)].append(y)
            self._sqrt = table
        return self._sqrt

    def points(self, budget: int | None = None) -> tuple[AffinePoint, ...]:
        """All affine points, ordered by (x, y) encodings."""
        # budget is judged on the work estimate, not on cache warmth, so
        # the outcome of a call does not depend on what ran before it
        if budget is not None and self.field.q > budget:
            raise BudgetExceededError(
                f"point enumeration needs q = {self.field.q} evaluations, "
                f"budget is {budget}"
            )
        if self._points is None:
            K = self.field
            sqrt = self._sqrt_table()
            fraw = self._fraw
            out = []
            for x in range(K.q):
                for y in sqrt[raw_eval(K, fraw, x)]:
                    out.append(AffinePoint(x, y))
            self._points = tuple(out)
        return self._points

    def is_point(self, x: int, y: int) -> bool:
        K = self.field
        K._check(x)
        K._check(y)
        return K._mul(y, y) == self.f(x)

    # -- divisor construction --------------------------------------------------

    def zero(self) -> MumfordDivisor:
        return MumfordDivisor(Poly.one(self.field), Poly.zero(self.field))

    def divisor_from_point(self, point) -> MumfordDivisor:
        x, y = point
        if not self.is_point(x, y):
            raise PointNotOnCurveError(f"({x}, {y}) does not satisfy y^2 = f(x)")
        K = self.field
        return MumfordDivisor(Poly(K, (K._neg(x), 1)), Poly(K, (y,)))

    def is_valid_divisor(self, D) -> bool:
        """True when D is a reduced Mumford representative on this curve."""
        if isinstance(D, MumfordDivisor):
            u, v = D.u, D.v
        else:
            try:
                u, v = D
            except (TypeError, ValueError):
                return False
            if not isinstance(u, Poly) or not isinstance(v, Poly):
                return False
            if u.field != v.field or not u.is_monic or u.degree > 2:
                return False
            if v.degree >= u.degree:
                return False
        if u.field != self.field:
            return False
        K = self.field
        uc, vc = u.coeffs, v.coeffs
        d = vc[0] if vc else 0
        if len(uc) == 1:  # [1, 0]
            return True
        if len(uc) == 2:  # u = x + u0: v^2 == f at the root -u0
            return K._mul(d, d) == raw_eval(K, self._fraw, K._neg(uc[0]))
        # u = x^2 + a*x + b, v = c*x + d: v^2 == (2cd - a*c^2)*x + d^2 - b*c^2
        b, a = uc[0], uc[1]
        c = vc[1] if len(vc) > 1 else 0
        mul, sub = K._mul, K._sub
        cc = mul(c, c)
        return (
            sub(mul(K._add(c, c), d), mul(a, cc)),
            sub(mul(d, d), mul(b, cc)),
        ) == self._f_mod_quadratic(a, b)

    def _f_mod_quadratic(self, a: int, b: int) -> tuple[int, int]:
        """(r1, r0) with f == r1*x + r0 mod x^2 + a*x + b (Horner, using
        x^2 == -a*x - b)."""
        K = self.field
        mul, sub = K._mul, K._sub
        r1, r0 = 0, 1  # f is monic of degree 5
        for fk in self._fraw[4::-1]:
            r1, r0 = sub(r0, mul(a, r1)), sub(fk, mul(b, r1))
        return r1, r0

    def _require_valid(self, D) -> None:
        if not isinstance(D, MumfordDivisor):
            raise InvalidDivisorError(f"{D!r} is not a MumfordDivisor")
        if not self.is_valid_divisor(D):
            raise InvalidDivisorError(f"{D!r} is not a divisor on {self!r}")

    # -- group law ------------------------------------------------------------

    def _cantor_raw(self, u1, v1, u2, v2) -> tuple[list, list]:
        """One group operation on raw lists: the closed-form weight-2 add
        or double when it applies, Cantor's algorithm otherwise."""
        if len(u1) == 3 and len(u2) == 3:
            out = self._weight2_raw(u1, v1, u2, v2)
            if out is not None:
                return out
        return self._cantor_general_raw(u1, v1, u2, v2)

    def _weight2_raw(self, u1, v1, u2, v2) -> tuple[list, list] | None:
        """Closed-form sum of two weight-2 classes, or None when the
        generic formulas do not apply (Cantor 1987; Lange, AAECC 15, 2005).

        With s = s1*x + s0 the linear polynomial that makes V = v1 + s*u1
        agree with v2 mod u2 (add) or satisfy V^2 == f mod u1^2 (double),
        [u1*u2, V] is Cantor's composition and one reduction step gives
        u' = (f - V^2)/(u1*u2) made monic and v' = -V mod u'.  Applies when
        s1 != 0 and Res(u1, u2) != 0 (add) or Res(u1, 2*v1) != 0 (double);
        costs one field inversion."""
        K = self.field
        add, sub, mul = K._add, K._sub, K._mul
        a0, a1, _ = u1
        b0 = v1[0] if v1 else 0
        b1 = v1[1] if len(v1) > 1 else 0
        double = u1 == u2 and v1 == v2
        if double:
            # s = ((f - v^2)/u) * (2v)^-1 mod u; k = (f - v^2)/u, then k mod u
            f = self._fraw
            k2 = sub(f[4], a1)
            k1 = sub(sub(f[3], a0), mul(a1, k2))
            k0 = sub(sub(sub(f[2], mul(b1, b1)), mul(a1, k1)), mul(a0, k2))
            t = sub(k2, a1)
            w1 = sub(sub(k1, a0), mul(t, a1))
            w0 = sub(k0, mul(t, a0))
            # invert v mod u below; the factor 2 goes into r
            c1, c0, z1, z0 = a1, a0, b1, b0
            m3 = add(a1, a1)
            m2 = add(mul(a1, a1), add(a0, a0))
        else:
            # s = (v2 - v1) * u1^-1 mod u2
            c0, c1 = u2[0], u2[1]
            z1, z0 = sub(a1, c1), sub(a0, c0)
            d0 = v2[0] if v2 else 0
            d1 = v2[1] if len(v2) > 1 else 0
            w1, w0 = sub(d1, b1), sub(d0, b0)
            m3 = add(a1, c1)
            m2 = add(add(a0, c0), mul(a1, c1))
        # (z1*x + z0)^-1 == (-z1*x + z0 - c1*z1)/r mod x^2 + c1*x + c0
        c1z1 = mul(c1, z1)
        r = add(sub(mul(z0, z0), mul(c1z1, z0)), mul(mul(c0, z1), z1))
        if not r:
            return None
        if double:
            r = add(r, r)
        y1, y0 = K._neg(z1), sub(z0, c1z1)
        # s * r = w * y mod u2
        w1y1 = mul(w1, y1)
        s1 = sub(add(mul(w1, y0), mul(w0, y1)), mul(c1, w1y1))
        if not s1:
            return None
        s0 = sub(mul(w0, y0), mul(c0, w1y1))
        inv = K._inv(mul(r, s1))  # 1/(r*s1)
        ir = mul(inv, s1)  # 1/r
        s1, s0 = mul(s1, ir), mul(s0, ir)
        is1 = mul(r, mul(r, inv))  # 1/s1
        is1sq = mul(is1, is1)
        V3 = s1
        V2 = add(s0, mul(s1, a1))
        V1 = add(add(mul(s0, a1), mul(s1, a0)), b1)
        V0 = add(mul(s0, a0), b0)
        # top coefficients of V^2 - f (f is monic); its quotient by u1*u2
        # is s1^2 * u'
        n5 = sub(mul(add(V3, V3), V2), 1)
        n4 = sub(add(mul(V2, V2), mul(add(V3, V3), V1)), self._fraw[4])
        e1 = sub(mul(n5, is1sq), m3)
        e0 = sub(sub(mul(n4, is1sq), m2), mul(e1, m3))
        # v' = -(V mod x^2 + e1*x + e0)
        t2 = sub(V2, mul(V3, e1))
        R1 = sub(sub(V1, mul(V3, e0)), mul(t2, e1))
        R0 = sub(V0, mul(t2, e0))
        neg = K._neg
        if R1:
            return [e0, e1, 1], [neg(R0), neg(R1)]
        return [e0, e1, 1], [neg(R0)] if R0 else []

    def _cantor_general_raw(self, u1, v1, u2, v2) -> tuple[list, list]:
        """Cantor's composition + reduction on raw lists, for any inputs."""
        K = self.field
        if len(u1) == 1:  # u1 == 1: neutral
            return list(u2), list(v2)
        if len(u2) == 1:
            return list(u1), list(v1)
        f = self._fraw

        d1, e1, e2 = raw_xgcd(K, u1, u2)
        vsum = raw_add(K, v1, v2)
        d, c1, c2 = raw_xgcd(K, d1, vsum)
        s1 = raw_mul(K, c1, e1)
        s2 = raw_mul(K, c1, e2)

        u, rem = raw_divmod(K, raw_mul(K, u1, u2), raw_mul(K, d, d))
        assert not rem, "composition: d^2 must divide u1*u2"

        t = raw_add(
            K,
            raw_mul(K, raw_mul(K, s1, u1), v2),
            raw_mul(K, raw_mul(K, s2, u2), v1),
        )
        t = raw_add(K, t, raw_mul(K, c2, raw_add(K, raw_mul(K, v1, v2), f)))
        t, rem = raw_divmod(K, t, d)
        assert not rem, "composition: d must divide the v numerator"
        _, v = raw_divmod(K, t, u)

        while len(u) - 1 > 2:
            unew, rem = raw_divmod(K, raw_sub(K, f, raw_mul(K, v, v)), u)
            assert not rem, "reduction: u must divide f - v^2"
            unew = raw_monic(K, unew)
            _, v = raw_divmod(K, raw_neg(K, v), unew)
            u = unew
        if u[-1] != 1:
            u = raw_monic(K, u)
        return u, v

    def _wrap_divisor(self, u: list, v: list) -> MumfordDivisor:
        return MumfordDivisor(Poly(self.field, u), Poly(self.field, v))

    def cantor_add(self, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
        self._require_valid(D1)
        self._require_valid(D2)
        u, v = self._cantor_raw(
            list(D1.u.coeffs), list(D1.v.coeffs), list(D2.u.coeffs), list(D2.v.coeffs)
        )
        return self._wrap_divisor(u, v)

    def neg(self, D: MumfordDivisor) -> MumfordDivisor:
        self._require_valid(D)
        return MumfordDivisor(D.u, -D.v)

    def scalar_mul(self, D: MumfordDivisor, m: int) -> MumfordDivisor:
        if not isinstance(m, int):
            raise NegativeScalarError(f"scalar must be an int, got {m!r}")
        if m < 0:
            raise NegativeScalarError(f"scalar must be >= 0, got {m}")
        self._require_valid(D)
        ru, rv = [1], []
        au, av = list(D.u.coeffs), list(D.v.coeffs)
        while m:
            if m & 1:
                ru, rv = self._cantor_raw(ru, rv, au, av)
            m >>= 1
            if m:
                au, av = self._cantor_raw(au, av, au, av)
        return self._wrap_divisor(ru, rv)

    # -- enumeration ----------------------------------------------------------

    def weil_interval(self) -> tuple[int, int]:
        """Closed integer interval certainly containing the group order."""
        s = math.sqrt(self.field.q)
        return (math.floor((s - 1) ** 4), math.ceil((s + 1) ** 4))

    def require_jacobian_budget(self, budget: int) -> None:
        """Raise BudgetExceededError when the Weil upper bound on the class
        count exceeds budget; judged on the estimate alone, never on cache
        warmth, so outcomes do not depend on what ran before."""
        upper = (math.sqrt(self.field.q) + 1) ** 4
        if upper > budget:
            raise BudgetExceededError(
                f"Jacobian may hold up to {math.ceil(upper)} classes, "
                f"budget is {budget}"
            )

    def enumerate_jacobian(
        self, budget: int = DEFAULT_BUDGET
    ) -> tuple[MumfordDivisor, ...]:
        """Every reduced divisor, in canonical order: [1,0] first, then
        weight 1 following the point order, then weight 2 ordered by the
        coefficient vectors (u0, u1, v0, v1).

        Each of the q^2 monic quadratics u gets its v from a quadratic
        equation in c^2 solved with the square-root table, so the whole
        enumeration costs O(q^2) field operations."""
        K = self.field
        q = K.q
        self.require_jacobian_budget(budget)
        if self._jacobian is not None:
            return self._jacobian

        out: list[MumfordDivisor] = [self.zero()]
        for P in self.points(budget):
            out.append(self.divisor_from_point(P))

        sqrt = self._sqrt_table()
        add, sub, mul, neg, inv = K._add, K._sub, K._mul, K._neg, K._inv
        two = add(1, 1)
        four = add(two, two)
        fmod = self._f_mod_quadratic
        wrap = self._wrap_divisor
        for b in range(q):  # u0
            for a in range(q):  # u1
                r1, r0 = fmod(a, b)
                # v = c*x + d with v^2 == f mod u:
                #   2cd - a*c^2 = r1  and  d^2 - b*c^2 = r0
                cand = []
                if r1 == 0:
                    for d in sqrt[r0]:
                        cand.append((d, 0))
                # c != 0: d = (r1 + a*C)/(2c) with C = c^2 a root of
                #   A*C^2 + B*C + r1^2 = 0,  A = a^2 - 4b,  B = 2a*r1 - 4r0,
                # and every such root C != 0 gives back a solution
                A = sub(mul(a, a), mul(four, b))
                B = sub(mul(two, mul(a, r1)), mul(four, r0))
                rr = mul(r1, r1)
                if A:
                    # C = (-B +- sqrt(B^2 - 4*A*r1^2)) / 2A
                    ia = inv(add(A, A))
                    disc = sub(mul(B, B), mul(four, mul(A, rr)))
                    roots = [mul(sub(s, B), ia) for s in sqrt[disc]]
                elif B:
                    roots = [neg(mul(rr, inv(B)))]
                else:
                    # u = (x + a/2)^2 and f == r1*(x + a/2) mod u, so the
                    # equation reads r1^2 = 0; r1 = 0 would make u divide
                    # the squarefree f, hence there is no root
                    roots = []
                for C in roots:
                    for c in sqrt[C] if C else ():
                        cand.append((mul(add(r1, mul(a, C)), inv(add(c, c))), c))
                cand.sort()
                for d, c in cand:
                    out.append(wrap([b, a, 1], [d, c] if c else ([d] if d else [])))
        self._jacobian = tuple(out)
        return self._jacobian

    def jacobian_order(self, budget: int = DEFAULT_BUDGET) -> int:
        return len(self.enumerate_jacobian(budget))

    def preload_enumeration(self, divisors: Sequence[MumfordDivisor]) -> None:
        """Install a previously computed enumeration (cache loads); points()
        stays lazy.  Callers are expected to have validated the data; see
        cache.py.
        """
        self._jacobian = tuple(divisors)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, HyperellipticCurve):
            return self.field == other.field and self.f == other.f
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.f))

    def __repr__(self):
        return f"y^2 = {self.f} over {self.field!r}"

"""Genus-2 imaginary hyperelliptic curves y^2 = f(x) and their Jacobians.

f is monic of degree 5 and squarefree over F_q, q odd, so there is a
single point at infinity and every divisor class has a unique reduced
Mumford representative [u, v] with u monic, deg u <= 2, deg v < deg u
and u | v^2 - f.  The neutral class is [1, 0].

Group operations run on raw coefficient lists (poly.raw_*) and wrap
results without checking again what the curve computed itself, which
keeps the exhaustive group-law sweeps in the test-suite fast enough to be
routine.

There is one closed form, for prime fields only: it composes two
weight-2 classes with one field inversion on plain ints, and its add
(u1, u2 coprime) and double (u, v coprime) differ only in how they find
the linear s that one reduction step turns into [u', v'] (Cantor, Math.
Comp. 48, 1987; Lange, AAECC 15, 2005).  It serves large-q scalar
multiplication, where at p = 1000003 every composition takes it.
Scalar multiplication runs right to left over the non-adjacent form of
the scalar, adding +-2^i*D from a doubling chain that each curve keeps
for a base from its second use, for its last four bases: a fresh base
costs the doublings and adds of a left-to-right ladder, a repeated one
(a fixed generator) no doublings from its third use on.  Every other
case, a generic one whose sum has weight below 2, and every composition
over an extension field go through Cantor's composition and reduction,
which is also the oracle the tests check the closed form against.
Extension fields compose by Cantor's algorithm because no workload
composes over them at scale.

Validity and enumeration work from f mod u: with u = x^2 + a*x + b,
f == r1*x + r0 and v = c*x + d, u | v^2 - f reads 2cd - a*c^2 = r1 and
d^2 - b*c^2 = r0, so checking a divisor costs O(1) field operations and
enumerating the Jacobian solves a quadratic for c^2 per u, O(q^2) in all.

The extractors read a class only through u, so value_counts counts
#v(u), the number of reduced [u, v], for every monic u of degree 1 or 2
and adds it up by sum and by product of abscissas, without building any
class.  #v(u) is (Cantor, Math. Comp. 48, 1987)

    deg u = 0:                 1 (the neutral class)
    u = x - x1:                w1[x1] = #sqrt(f(x1))
    u = (x - x1)(x - x2):      w1[x1] * w1[x2] for x1 != x2 (v by CRT)
    u = (x - x1)^2:            2 if f(x1) is a nonzero square, else 0
    u irreducible:             #sqrt(r0^2 - a*r0*r1 + b*r1^2)

where u = x^2 + a*x + b is irreducible when a^2 - 4b is a nonsquare (q
odd), and r0^2 - a*r0*r1 + b*r1^2 is the norm to F_q of f(theta) for a
root theta of u in F_q^2: v(theta) is a square root of f(theta) there,
and an element of F_q^2 is a square exactly when its norm is a square in
F_q.  For fixed a, r1 and r0 are quadratics in b and the norm a monic
quintic N_a(b).  _count_inputs derives its coefficients in closed form
once per a, with #sqrt, w1 and h = -a/2, and both counts read them, so
counting costs O(q^2) field operations once per curve.  Over F_p it runs
on plain ints with % p and keeps O(q) memory: a loop over the pairs of
roots x1 < x2 and Horner on N_a at b = h^2 - d for each nonsquare d
(_count_prime).  _class_table keeps #v(u) for every u in enumeration
order, q^2 + q bytes: it counts over extension fields and places
Monte-Carlo draws by class index.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

# Bases a curve remembers for scalar_mul (_doubling_chain).  A Diffie-
# Hellman exchange multiplies its fixed generator, then the two public
# keys it received, before it uses the generator again: three keep the
# generator resident, and the fourth leaves room for a second fixed base.
_DOUBLING_BASES = 4


class NotSquarefreeError(ValueError):
    """f has a repeated root; the sweep's template search skips such c."""


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


class ValueCounts(NamedTuple):
    """The Jacobian as the extractors see it: |J| and, for each t in F_q,
    the number of classes other than [1, 0] whose support's x-coordinates
    sum to t (sums[t]) or multiply to t (products[t])."""

    order: int
    sums: tuple[int, ...]
    products: tuple[int, ...]


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
            raise ValueError("u and v must be Poly instances")
        if u.field != v.field:
            raise ValueError("u and v over different fields")
        if not u.is_monic:
            raise ValueError(f"u = {u} is not monic")
        if u.degree > 2:
            raise ValueError(f"deg u = {u.degree} > 2 is not reduced")
        if v.degree >= u.degree:
            raise ValueError(
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

    __slots__ = (
        "field", "f", "_fraw", "_prime", "_sqrt", "_points", "_jacobian",
        "_table", "_counts", "_doublings",
    )

    def __init__(self, field: FiniteField, f):
        if isinstance(f, str):
            f = Poly.from_string(field, f)
        elif not isinstance(f, Poly):
            f = Poly(field, f)
        if f.field != field:
            raise ValueError(f"f is over {f.field!r}, not {field!r}")
        if f.degree != 5:
            raise ValueError(f"deg f = {f.degree}, need exactly 5")
        if not f.is_monic:
            raise ValueError("f must be monic")
        if not f.is_squarefree():
            raise NotSquarefreeError(f"f = {f} has a repeated root")
        self.field = field
        self.f = f
        self._fraw = list(f.coeffs)
        self._prime = field.n == 1  # the closed form works on plain ints
        self._sqrt = None
        self._points = None
        self._jacobian = None
        self._table = None
        self._counts = None
        self._doublings: dict[tuple, list | None] = {}  # _doubling_chain

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

    def points(self) -> tuple[AffinePoint, ...]:
        """All affine points, ordered by (x, y) encodings."""
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
            raise ValueError(f"({x}, {y}) does not satisfy y^2 = f(x)")
        K = self.field
        return MumfordDivisor(Poly(K, (K._neg(x), 1)), Poly(K, (y,)))

    def is_valid_divisor(self, D) -> bool:
        """True when D is a MumfordDivisor over this curve's field with
        u | v^2 - f; anything else, tuples included, is False.  The
        reduced shape is enforced by MumfordDivisor's constructor, or by
        construction for divisors the curve builds (_wrap_divisor)."""
        if not isinstance(D, MumfordDivisor) or D.u.field != self.field:
            return False
        u = D.u.coeffs
        return self._v_squared_mod(u, D.v.coeffs) == self._f_mod(u)

    def _f_mod(self, u) -> tuple:
        """f mod the monic u, deg u <= 2, in _v_squared_mod's form: (), (f(-u0),)
        or (r1, r0) with f == r1*x + r0; cache.load takes it once per u."""
        if len(u) == 3:
            return self._f_mod_quadratic(u[1], u[0])
        return (raw_eval(self.field, self._fraw, self.field._neg(u[0])),) if len(u) == 2 else ()

    def _v_squared_mod(self, u, v) -> tuple:
        """v^2 mod the monic u, deg v < deg u <= 2, in _f_mod's form, so
        u | v^2 - f exactly when the two are equal."""
        K = self.field
        d = v[0] if v else 0
        if len(u) < 3:
            return (K._mul(d, d),) if len(u) == 2 else ()
        # u = x^2 + a*x + b, v = c*x + d: v^2 == (2cd - a*c^2)*x + d^2 - b*c^2
        c = v[1] if len(v) > 1 else 0
        mul, sub = K._mul, K._sub
        cc = mul(c, c)
        return sub(mul(K._add(c, c), d), mul(u[1], cc)), sub(mul(d, d), mul(u[0], cc))

    def _f_mod_quadratic(self, a: int, b: int) -> tuple[int, int]:
        """(r1, r0) with f == r1*x + r0 mod x^2 + a*x + b (Horner, using
        x^2 == -a*x - b)."""
        K = self.field
        mul, sub = K._mul, K._sub
        r1, r0 = 1, self._fraw[4]  # f is monic of degree 5: x + f4 after one step
        for fk in self._fraw[3::-1]:
            r1, r0 = sub(r0, mul(a, r1)), sub(fk, mul(b, r1))
        return r1, r0

    def _require_valid(self, D) -> None:
        if not self.is_valid_divisor(D):
            raise ValueError(f"{D!r} is not a divisor on {self!r}")

    # -- group law ------------------------------------------------------------

    def _cantor_raw(self, u1, v1, u2, v2) -> tuple[list, list]:
        """One group operation on raw lists: over a prime field the
        closed form for two weight-2 classes when it applies, Cantor's
        algorithm otherwise."""
        if self._prime and len(u1) == 3 and len(u2) == 3:
            out = self._weight2_prime_raw(u1, v1, u2, v2)
            if out is not None:
                return out
        return self._cantor_general_raw(u1, v1, u2, v2)

    def _weight2_prime_raw(self, u1, v1, u2, v2) -> tuple[list, list] | None:
        """Closed-form sum of two weight-2 classes over F_p, their double
        when (u1, v1) == (u2, v2), or None when the generic formulas do
        not apply (Cantor 1987; Lange, AAECC 15, 2005).

        s = s1*x + s0 is w*z^-1 mod u2, the linear polynomial that makes
        V = v1 + s*u1 agree with v2 mod u2 (add: w = v2 - v1, z = u1) or
        satisfy V^2 == f mod u1^2 (double: w = (f - v1^2)/u1, z = 2*v1).
        [u1*u2, V] is Cantor's composition, and one reduction step gives
        u' = (V^2 - f)/(s1^2*u1*u2) and v' = -V mod u'.  Applies when
        Res(u2, z) != 0 and s1 != 0; costs one field inversion.  In
        sigma = s0/s1 and lam = 1/s1, the top two coefficients of
        (V^2 - f)/s1^2 give u' = x^2 + e1*x + e0, and v' = -(v1 + s1*(x +
        sigma)*(u1 - u')) mod u' with u1 - u' linear, so V is never
        formed.  Plain ints with + - * inline, which cost less than a
        K._add/_sub/_mul call each; % p is taken where a value must be
        canonical (before a zero test, before the inversion, on the
        outputs) and on sigma, lam and s1, which keeps the products that
        follow from growing."""
        p = self.field.p
        f4 = self._fraw[4]
        a0, a1, _ = u1
        # v1 = b1*x + b0: an unpack costs less than a len test, and deg v1 < 1 is rare
        try:
            b0, b1 = v1
        except ValueError:
            b0, b1 = (v1[0] if v1 else 0), 0
        double = u1 == u2 and v1 == v2
        if double:  # v1^-1 == (-b1*x + y0)/r mod u1; z's factor 2 goes into r
            _, _, f2, f3, _, _ = self._fraw
            k2 = f4 - a1
            k1 = f3 - a0 - a1 * k2
            t = k2 - a1
            w1 = (k1 - a0 - t * a1) % p
            w0 = (f2 - b1 * b1 - a1 * k1 - a0 * k2 - t * a0) % p
            y0 = b0 - a1 * b1
            r = (b0 * y0 + a0 * b1 * b1) % p * 2
            w1b1 = w1 * b1
            rs1 = (w1 * y0 - w0 * b1 + a1 * w1b1) % p
            rs0 = (w0 * y0 + a0 * w1b1) % p
        else:  # z = u1 mod u2 = z1*x + z0, z^-1 == (-z1*x + y0)/r mod u2
            c0, c1, _ = u2
            w0 = (v2[0] if v2 else 0) - b0
            w1 = (v2[1] if len(v2) > 1 else 0) - b1
            z1, z0 = a1 - c1, a0 - c0
            y0 = z0 - c1 * z1
            r = (z0 * y0 + c0 * z1 * z1) % p
            w1z1 = w1 * z1
            rs1 = (w1 * y0 - w0 * z1 + c1 * w1z1) % p
            rs0 = (w0 * y0 + c0 * w1z1) % p
        if not (r and rs1):
            return None
        inv = pow(r * rs1 % p, -1, p)
        irs1 = r * inv % p
        sigma = rs0 * irs1 % p
        lam = r * irs1 % p
        s1 = rs1 * rs1 * inv % p
        if double:  # the add's terms in u1 - u2 vanish
            e1 = (sigma + sigma - lam * lam) % p
            e0 = (sigma * sigma + lam * (b1 + b1 + lam * (a1 + a1 - f4))) % p
        else:
            e1 = (sigma + sigma + z1 - lam * lam) % p
            e0 = sigma * (sigma + z1 + z1) + y0
            e0 = (e0 + lam * (b1 + b1 + lam * (a1 + c1 - f4))) % p
        g1, g0 = a1 - e1, a0 - e0
        n1 = (s1 * (g1 * (e1 - sigma) - g0) - b1) % p
        n0 = (s1 * (g1 * e0 - sigma * g0) - b0) % p
        if n1:
            return [e0, e1, 1], [n0, n1]
        return [e0, e1, 1], [n0] if n0 else []

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
        """[u, v] without the constructors' checks.  Precondition: u and v
        are canonical lists that this class computed (element encodings,
        no trailing zeros, u monic of degree <= 2, deg v < deg u, and
        u | v^2 - f)."""
        D = object.__new__(MumfordDivisor)
        object.__setattr__(D, "u", self.f._wrap(u))
        object.__setattr__(D, "v", self.f._wrap(v))
        return D

    def cantor_add(self, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
        self._require_valid(D1)
        self._require_valid(D2)
        u, v = self._cantor_raw(
            list(D1.u.coeffs), list(D1.v.coeffs), list(D2.u.coeffs), list(D2.v.coeffs)
        )
        return self._wrap_divisor(u, v)

    def neg(self, D: MumfordDivisor) -> MumfordDivisor:
        self._require_valid(D)
        return self._wrap_divisor(list(D.u.coeffs), raw_neg(self.field, D.v.coeffs))

    def scalar_mul(self, D: MumfordDivisor, m: int) -> MumfordDivisor:
        """m*D, right to left over the non-adjacent form (NAF) of m: signed
        digits 0 and +-1, no two nonzero digits adjacent, so a b-bit m
        takes one add of +-2^i*D per nonzero digit but the lowest, about
        b/3, against b/2 in binary: the sum P of the +1 terms, the sum N
        of the -1 terms, then P + (-N), which negates once.  Digit i is
        bit i + 1 of 3m minus bit i + 1 of m (3m - m = 2m digit by digit;
        the recoding of IEEE Std 1363-2000).

        The doublings 2^i*D come from a chain remembered per base
        (_doubling_chain), so a fresh base costs the same doublings and
        adds as a left-to-right ladder, and a repeated one, such as the
        fixed generator of a Diffie-Hellman exchange, no doublings from
        its third use on (Brickell, Gordon, McCurley and Wilson,
        EUROCRYPT '92; Menezes et al., Handbook of Applied Cryptography
        14.6.3).  D and m are checked here, once; every composition runs
        through _cantor_raw, which falls back to Cantor's algorithm where
        the closed form does not apply, such as a running sum equal to
        minus the next term."""
        if type(m) is not int:
            raise ValueError(f"scalar must be an int, got {m!r}")
        if m < 0:
            raise ValueError(f"scalar must be >= 0, got {m}")
        self._require_valid(D)
        if not m:
            return self._wrap_divisor([1], [])
        h = 3 * m
        plus, minus = (h & ~m) >> 1, (m & ~h) >> 1
        chain = self._doubling_chain(D, plus.bit_length())
        ru, rv = self._chain_sum(chain, plus)
        if minus:  # P - N, negating once
            nu, nv = self._chain_sum(chain, minus)
            neg = self.field._neg
            ru, rv = self._cantor_raw(ru, rv, nu, [neg(c) for c in nv])
        return self._wrap_divisor(ru, rv)

    def _chain_sum(self, chain: list, digits: int) -> tuple[list, list]:
        """Sum of chain[i] over the set bits i of digits > 0, lowest first."""
        cantor = self._cantor_raw
        low = digits & -digits
        u, v = chain[low.bit_length() - 1]
        digits ^= low
        while digits:
            low = digits & -digits
            tu, tv = chain[low.bit_length() - 1]
            u, v = cantor(u, v, tu, tv)
            digits ^= low
        return u, v

    def _doubling_chain(self, D: MumfordDivisor, length: int) -> list:
        """[(u, v) of 2^i*D for i < n], n >= length, as raw lists, extended
        by doubling as far as length.

        _doublings maps the canonical (u, v) of the last _DOUBLING_BASES
        bases, least recently used first, to their chains.  A base seen
        once maps to None: its chain is kept from its second use on,
        since most bases (the public keys of an exchange) are used once,
        and keeping each of their chains made those calls slower (dh-
        extract's 99th-percentile call rose about 4% at p = 1000003 on a
        2-CPU x86 host, Python 3.11).  The lists are never handed out:
        _cantor_raw builds new ones and _wrap_divisor copies."""
        memo = self._doublings
        key = (D.u.coeffs, D.v.coeffs)
        seen = key in memo
        chain = memo.pop(key, None)
        if chain is None:
            chain = [(list(key[0]), list(key[1]))]
            if len(memo) >= _DOUBLING_BASES:
                del memo[next(iter(memo))]
        memo[key] = chain if seen else None
        if len(chain) < length:
            cantor = self._cantor_raw
            u, v = chain[-1]
            for _ in range(length - len(chain)):
                T = cantor(u, v, u, v)
                chain.append(T)
                u, v = T
        return chain

    # -- enumeration ----------------------------------------------------------

    def weil_interval(self) -> tuple[int, int]:
        """Closed integer interval certainly containing the group order:
        (sqrt(q) -+ 1)^4 = q^2 + 6q + 1 -+ sqrt((4q + 4)^2 * q), rounded
        out in integers."""
        q = self.field.q
        r = math.isqrt((4 * q + 4) ** 2 * q - 1) + 1  # ceil(sqrt((4q + 4)^2 * q))
        return (q * q + 6 * q + 1 - r, q * q + 6 * q + 1 + r)

    def enumerate_jacobian(self) -> tuple[MumfordDivisor, ...]:
        """Every reduced divisor, in canonical order: [1,0] first, then
        weight 1 following the point order, then weight 2 ordered by the
        coefficient vectors (u0, u1, v0, v1).

        Each of the q^2 monic quadratics u gets its v from a quadratic
        equation in c^2 solved with the square-root table, so the whole
        enumeration costs O(q^2) field operations."""
        if self._jacobian is not None:
            return self._jacobian
        K = self.field
        q = K.q

        add, sub, mul, neg, inv = K._add, K._sub, K._mul, K._neg, K._inv
        wrap = self._wrap_divisor
        out: list[MumfordDivisor] = [self.zero()]
        for x, y in self.points():
            out.append(wrap([neg(x), 1], [y] if y else []))

        sqrt = self._sqrt_table()
        two = add(1, 1)
        four = add(two, two)
        fmod = self._f_mod_quadratic
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

    def value_counts(self) -> ValueCounts:
        """|J| and the classes per sum and per product of abscissas: on
        plain ints in O(q) memory over F_p (_count_prime), added up over
        the per-u _class_table, which also serves Monte-Carlo, over an
        extension field; no divisor is built."""
        if self._counts is None:
            self._counts = self._count_prime() if self._prime else self._count_table()
        return self._counts

    def _count_table(self) -> ValueCounts:
        q, neg = self.field.q, self.field._neg
        T = self._class_table()
        # x - x1 sits at x1, and x1 is its sum and its product; x^2 + a*x + b
        # sits at q + b*q + a, a row per b and a column per sum -a
        sums = tuple(T[x] + sum(T[q + neg(x) :: q]) for x in range(q))
        products = tuple(T[b] + sum(T[q + b * q : 2 * q + b * q]) for b in range(q))
        return ValueCounts(1 + sum(T), sums, products)

    def _count_inputs(self) -> tuple[bytes, list, list, list]:
        """What both class counts read, derived afresh per call: nsqrt[r] =
        #sqrt(r), w1[x] = #sqrt(f(x)), hs[a] = -a/2 and norms[a] = (n0, ...,
        n4), the low coefficients of the monic quintic N_a(b) = r0*(r0 -
        a*r1) + b*r1^2.  _f_mod_quadratic's steps on polynomials in b give
        r1 = b^2 + s1*b + s0 and r0 = t2*b^2 + t1*b + f0, so each N_a costs
        O(1) field operations."""
        K = self.field
        add, sub, mul, neg = K._add, K._sub, K._mul, K._neg
        nsqrt = bytes(map(len, self._sqrt_table()))
        w1 = [nsqrt[raw_eval(K, self._fraw, x)] for x in range(K.q)]
        half = K._inv(add(1, 1))
        hs = [neg(mul(a, half)) for a in range(K.q)]
        f0, f1, f2, f3, f4, _ = self._fraw
        norms = []
        for a in range(K.q):
            k2 = sub(f4, a)
            k3 = sub(f3, mul(a, k2))
            t1 = neg(sub(f2, mul(a, k3)))
            t2 = sub(k2, a)
            s0 = add(f1, mul(a, t1))
            s1 = sub(mul(a, t2), k3)
            g0, g1, g2 = sub(f0, mul(a, s0)), sub(t1, mul(a, s1)), sub(t2, a)  # r0 - a*r1
            s0s1 = mul(s0, s1)
            norms.append((
                mul(f0, g0),
                add(add(mul(f0, g1), mul(t1, g0)), mul(s0, s0)),
                add(add(mul(f0, g2), mul(t1, g1)), add(mul(t2, g0), add(s0s1, s0s1))),
                add(add(mul(t1, g2), mul(t2, g1)), add(mul(s1, s1), add(s0, s0))),
                add(mul(t2, g2), add(s1, s1)),
            ))
        return nsqrt, w1, hs, norms

    def _count_prime(self) -> ValueCounts:
        """value_counts over F_p in O(p) memory: #v(u) from the module
        docstring's table, added at u's sum and product of roots as each
        u is met, on plain ints with % p."""
        p = self.field.p
        nsqrt, w1, hs, norms = self._count_inputs()
        # x - x1: sum and product x1
        sums, products = w1[:], w1[:]
        # (x - x1)(x - x2) for x1 < x2, and (x - x1)^2
        roots = [x for x in range(p) if w1[x]]
        for i, x1 in enumerate(roots):
            w = w1[x1]
            for x2 in roots[i + 1 :]:
                n = w * w1[x2]
                sums[(x1 + x2) % p] += n
                products[x1 * x2 % p] += n
            if w == 2:
                sums[2 * x1 % p] += 2
                products[x1 * x1 % p] += 2
        # irreducible x^2 + a*x + b = (x - h)^2 - d, h = -a/2 and d a
        # nonsquare, so b = h^2 - d: its sum is -a, its product b
        nonsquares = [d for d in range(1, p) if not nsqrt[d]]
        for a, h, (n0, n1, n2, n3, n4) in zip(range(p), hs, norms):
            hh, total = h * h, 0
            for d in nonsquares:
                b = (hh - d) % p
                n = nsqrt[(((((b + n4) * b + n3) * b + n2) * b + n1) * b + n0) % p]
                products[b] += n
                total += n
            sums[-a % p] += total
        return ValueCounts(1 + sum(sums), tuple(sums), tuple(products))

    def _class_table(self) -> bytes:
        """#v(u) for every monic u of degree 1 or 2 in enumerate_jacobian's
        order (the classes of one u are contiguous there): x - x1 at x1,
        x^2 + a*x + b at q + b*q + a.  #v(u) from the table in the module
        docstring, an irreducible u's norm from the quintic N_a(b); built
        once per curve, for extension-field counts and Monte-Carlo draws."""
        if self._table is not None:
            return self._table
        K = self.field
        add, sub, mul = K._add, K._sub, K._mul
        sqrt = self._sqrt_table()
        nsqrt, w1, hs, norms = self._count_inputs()
        table = bytearray(w1)
        # x^2 + a*x + b = (x - h)^2 - (h^2 - b) with h = -a/2
        hh = [mul(h, h) for h in hs]
        for b in range(K.q):
            for a in range(K.q):
                h = hs[a]
                disc = sub(hh[a], b)
                if not disc:  # (x - h)^2
                    n = 2 if w1[h] == 2 else 0
                elif sqrt[disc]:  # (x - h - s)(x - h + s)
                    s = sqrt[disc][0]
                    n = w1[add(h, s)] * w1[sub(h, s)]
                else:  # irreducible: N_a(b) by Horner
                    n0, n1, n2, n3, n4 = norms[a]
                    t = mul(add(mul(add(mul(add(mul(add(b, n4), b), n3), b), n2), b), n1), b)
                    n = nsqrt[add(t, n0)]
                table.append(n)
        self._table = bytes(table)
        return self._table

    def jacobian_order(self) -> int:
        """|J|, counted, not enumerated: 1 + sum(_class_table) once a
        Monte-Carlo tally has built the table, so that a prime curve is
        not counted twice; value_counts().order otherwise."""
        if self._counts is None and self._table is not None:
            return 1 + sum(self._table)
        return self.value_counts().order

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, HyperellipticCurve):
            return self.field == other.field and self.f == other.f
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.f))

    def __repr__(self):
        return f"y^2 = {self.f} over {self.field!r}"

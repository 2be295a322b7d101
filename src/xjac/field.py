"""Finite fields F_{p^n} of odd characteristic with integer-encoded elements.

Elements are plain Python ints.  For F_{p^n} = F_p[x]/(modulus) the element
with coordinates (c_0, ..., c_{n-1}) in the power basis 1, x, ..., x^{n-1}
is encoded as the integer sum_i c_i * p**i, so the encodings are exactly
0 .. q-1 with q = p**n.  For n = 1 an element is simply its residue.

For n > 1 there is one arithmetic: F_p[x]/(modulus) on base-p digit
lists through the shared poly.raw_* kernels over finite_field(p), products
reduced by raw_divmod and inverses from raw_xgcd.  Fields with q <= 1024
memoize it in full operation tables, so the observable behaviour is the
same on both sides of the cap.  Each row is one C-level gather
(operator.itemgetter) of a row built before it: the addition row of a
from that of a less its top digit, and the multiplication row of g e
from that of e, for a primitive element g whose multiples come from the
digit-vector products x^i g.  Negatives and inverses are read off them.

The kernels are imported inside the functions that use them because poly
imports this module.  The modulus search builds no p-sized table, and the
traces Tr(x^k) come from the modulus alone, by Newton's identities.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

# Largest supported field size: keeps every encoding inside a machine word
# on 64-bit builds and bounds table/cache memory.
MAX_FIELD_SIZE = 1 << 63

# Fields with n > 1 and q <= this limit get full add/mul lookup tables.
_TABLE_LIMIT = 1024

# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic primality test for the supported integer range."""
    if m < 2:
        return False
    for small in _MR_BASES:
        if m % small == 0:
            return m == small
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pis_irreducible(f: Sequence[int], p: int) -> bool:
    """Irreducibility of monic f over F_p (Ben-Or): gcd(f, x^(p^d) - x) = 1
    for every d up to deg(f)/2."""
    from .poly import raw_divmod, raw_gcd, raw_mul, raw_sub

    n = len(f) - 1
    if n < 1:
        return False
    Fp = finite_field(p)
    xpd = [0, 1]
    for _ in range(n // 2):
        # xpd = xpd**p mod f by square-and-multiply on the exponent p
        base, acc, e = xpd, [1], p
        while e:
            if e & 1:
                acc = raw_divmod(Fp, raw_mul(Fp, acc, base), f)[1]
            e >>= 1
            if e:
                base = raw_divmod(Fp, raw_mul(Fp, base, base), f)[1]
        xpd = acc
        if len(raw_gcd(Fp, f, raw_sub(Fp, xpd, [0, 1]))) > 1:
            return False
    return True


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree n over F_p.

    Candidates are ordered lexicographically on (c_0, c_1, ..., c_{n-1}),
    i.e. the constant coefficient is the most significant key, so the
    result is reproducible across runs and implementations.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    if n == 1:
        return (0, 1)  # every monic linear is irreducible; x is the smallest
    # m is the base-p numeral c_0 c_1 ... c_{n-1}, c_0 most significant and
    # nonzero (c_0 = 0 means x | f); nothing p-sized is built
    for m in range(p ** (n - 1), p**n):
        f = [m // p ** (n - 1 - i) % p for i in range(n)] + [1]
        if _pis_irreducible(f, p):
            return tuple(f)
    raise AssertionError("unreachable: irreducibles exist for every degree")


class FiniteField:
    """F_{p^n}, p an odd prime, as F_p[x]/(modulus).

    The default modulus is find_irreducible(p, n), so two fields built
    from the same (p, n) agree element-for-element.  Operations take and
    return int encodings; there is no element wrapper type.
    """

    __slots__ = (
        "p",
        "n",
        "q",
        "modulus",
        "_add",
        "_sub",
        "_mul",
        "_neg",
        "_inv",
        "_trace_xk",
        "_hash",
    )

    def __init__(self, p: int, n: int = 1, modulus: Sequence[int] | None = None):
        if type(p) is not int or p < 2:
            raise ValueError(f"p={p!r} is not a prime >= 3")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if type(n) is not int or n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n!r}")
        q = p**n
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"p**n = {q} exceeds the supported range 2**63")

        if modulus is None:
            mod = list(find_irreducible(p, n))
        else:
            from .poly import raw_strip

            mod = list(modulus)
            for c in mod:
                if type(c) is not int or not 0 <= c < p:
                    raise ValueError(
                        f"modulus coefficient {c!r} is not in [0, {p})"
                    )
            raw_strip(mod)
            if len(mod) - 1 != n:
                raise ValueError(
                    f"modulus degree {len(mod) - 1} does not match n={n}"
                )
            if mod[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _pis_irreducible(mod, p):
                raise ValueError(
                    f"modulus {tuple(mod)} is reducible over F_{p}"
                )

        self.p = p
        self.n = n
        self.q = q
        self.modulus = tuple(mod)
        self._trace_xk = None
        # every lru_cache keyed on a field hashes it per lookup
        self._hash = hash((p, n, self.modulus))
        if n == 1:
            self._bind_prime_ops()
        elif q <= _TABLE_LIMIT:
            self._bind_table_ops()
        else:
            self._bind_vector_ops()

    # -- operation backends -------------------------------------------------

    def _bind_prime_ops(self):
        p = self.p
        self._add = lambda a, b: (a + b) % p
        self._sub = lambda a, b: (a - b) % p
        self._mul = lambda a, b: a * b % p
        self._neg = lambda a: -a % p

        def inv(a: int, _p=p) -> int:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, _p)

        self._inv = inv

    def _vec_decode(self, a: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.n):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _vec_encode(self, digits: Sequence[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _bind_table_ops(self):
        p, n, q = self.p, self.n, self.q
        # the tables memoize the digit-vector arithmetic, so the products
        # they hold come from its bound mul before the lookups replace it
        self._bind_vector_ops()
        mul = self._mul

        # base-p addition has no carries: adding x^k steps digit k of b
        # round [0, p), and for a with top digit at x^k, a + b = (a - x^k)
        # + (x^k + b), so the row of a gathers the row of a - x^k < a
        add_t = [tuple(range(q))]
        for k in range(n):
            top = p**k
            shift = itemgetter(
                *[b + top if b // top % p < p - 1 else b - (p - 1) * top for b in range(q)]
            )
            for a in range(top, top * p):
                add_t.append(shift(add_t[a - top]))
        neg_t = [row.index(0) for row in add_t]

        # a primitive element g, found by walking the powers of each
        # candidate outside F_p (whose orders divide p - 1) until one has
        # order q - 1.  e -> e g is F_p-linear, so the images of the x^i
        # (one product each) give e g for every e, summed digit by digit
        # in add_t, the last digit slowest
        for g in range(p, q):
            times_g = [0]
            for i in reversed(range(n)):
                multiples, xg = [0], mul(p**i, g)
                for _ in range(p - 1):
                    multiples.append(add_t[multiples[-1]][xg])
                times_g = [add_t[t][m] for t in times_g for m in multiples]
            exp, e = [1], g
            while e != 1:
                exp.append(e)
                e = times_g[e]
            if len(exp) == q - 1:
                break

        # e (g b) = (g e) b, so the row of g e gathers the row of e at the
        # entries of times_g, starting from the row of 1; (g^i)^-1 = g^-i
        shift = itemgetter(*times_g)
        mul_t = [(0,) * q] * q
        inv_t: list[int | None] = [None] * q
        row = tuple(range(q))
        for i, e in enumerate(exp):
            mul_t[e], inv_t[e] = row, exp[-i]
            row = shift(row)

        self._add = lambda a, b: add_t[a][b]
        self._mul = lambda a, b: mul_t[a][b]
        self._neg = lambda a: neg_t[a]
        self._sub = lambda a, b: add_t[a][neg_t[b]]

        def inv(a: int) -> int:
            v = inv_t[a]
            if v is None:
                raise ZeroDivisionError("inverse of zero")
            return v

        self._inv = inv

    def _bind_vector_ops(self):
        """F_p[x]/(modulus) on base-p digit lists through the poly.raw_*
        kernels over F_p."""
        from .poly import raw_add, raw_divmod, raw_mul, raw_neg, raw_strip, raw_sub, raw_xgcd

        Fp = finite_field(self.p)
        mod = self.modulus
        dec, enc = self._vec_decode, self._vec_encode

        def inv(a: int) -> int:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            # s*modulus + t*a = 1 because the modulus is irreducible
            return enc(raw_xgcd(Fp, mod, raw_strip(dec(a)))[2])

        self._add = lambda a, b: enc(raw_add(Fp, dec(a), dec(b)))
        self._sub = lambda a, b: enc(raw_sub(Fp, dec(a), dec(b)))
        self._neg = lambda a: enc(raw_neg(Fp, dec(a)))
        self._mul = lambda a, b: enc(raw_divmod(Fp, raw_mul(Fp, dec(a), dec(b)), mod)[1])
        self._inv = inv

    # -- public operations ----------------------------------------------------

    def _check(self, a) -> None:
        # type(), not isinstance(): a bool is an int but not an encoding
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of {self!r}")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._add(a, b)

    def sub(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._sub(a, b)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._mul(a, b)

    def neg(self, a: int) -> int:
        self._check(a)
        return self._neg(a)

    def inv(self, a: int) -> int:
        self._check(a)
        return self._inv(a)

    def div(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._mul(a, self._inv(b))

    def _pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self._inv(a)
            e = -e
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self._mul(acc, base)
            e >>= 1
            if e:
                base = self._mul(base, base)
        return acc

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if type(e) is not int:
            raise TypeError(f"exponent must be an int, got {e!r}")
        return self._pow(a, e)

    def frobenius(self, a: int) -> int:
        self._check(a)
        return self._pow(a, self.p)

    def _trace_powers(self) -> tuple[int, ...]:
        """Tr(x^k) for k in [0, 2n - 1), computed on first use from the
        modulus c_0 + c_1 x + ... + c_n x^n alone.  Tr(x^k) is the power
        sum P_k of its roots, so by Newton's identities P_0 = n and
        P_k = -(k c_(n-k) [k <= n] + sum_(j=1..min(k-1, n)) c_(n-j) P_(k-j)),
        all mod p; no field operation runs.  trace() reads the first n
        values and charsum's characters all of them."""
        if self._trace_xk is None:
            p, n, c = self.p, self.n, self.modulus
            txk = [n % p]
            for k in range(1, 2 * n - 1):
                s = k * c[n - k] if k <= n else 0
                s += sum(c[n - j] * txk[k - j] for j in range(1, min(k - 1, n) + 1))
                txk.append(-s % p)
            self._trace_xk = tuple(txk)
        return self._trace_xk

    def trace(self, a: int) -> int:
        """Trace to the prime field, returned as a residue in [0, p).

        Tr is F_p-linear, so Tr(a) = sum of a_i * Tr(x^i) over the base-p
        digits a_i of a."""
        self._check(a)
        if self.n == 1:
            return a
        p = self.p
        t = 0
        for ti in self._trace_powers()[: self.n]:
            t += a % p * ti
            a //= p
        return t % p

    def coords(self, a: int) -> tuple[int, ...]:
        self._check(a)
        return tuple(self._vec_decode(a)) if self.n > 1 else (a,)

    def from_coords(self, digits: Iterable[int]) -> int:
        ds = list(digits)
        if len(ds) > self.n:
            raise ValueError(
                f"got {len(ds)} coordinates for an extension of degree {self.n}"
            )
        for d in ds:
            if type(d) is not int or not 0 <= d < self.p:
                raise ValueError(f"coordinate {d!r} is not in [0, {self.p})")
        return self._vec_encode(ds)

    def elements(self) -> range:
        """All element encodings in ascending order."""
        return range(self.q)

    def __eq__(self, other):
        if isinstance(other, FiniteField):
            return (self.p, self.n, self.modulus) == (
                other.p,
                other.n,
                other.modulus,
            )
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.n == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(mod {','.join(map(str, self.modulus))})"


# typed: finite_field(7, True) must not return the cached F_7
@lru_cache(maxsize=None, typed=True)
def _cached_field(p: int, n: int, modulus: tuple[int, ...] | None) -> FiniteField:
    return FiniteField(p, n, modulus)


def finite_field(
    p: int, n: int = 1, modulus: Sequence[int] | None = None
) -> FiniteField:
    """Shared-instance constructor; repeated calls reuse built tables."""
    key = tuple(modulus) if modulus is not None else None
    # typed=True types only the arguments, and (True, 0, 1) == (1, 0, 1)
    if key is not None and any(type(c) is not int for c in key):
        raise ValueError(f"modulus coefficients must be ints, got {key!r}")
    return _cached_field(p, n, key)

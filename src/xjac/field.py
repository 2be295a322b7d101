"""Finite fields F_{p^n} of odd characteristic with integer-encoded elements.

Elements are plain Python ints.  For F_{p^n} = F_p[x]/(modulus) the element
with coordinates (c_0, ..., c_{n-1}) in the power basis 1, x, ..., x^{n-1}
is encoded as the integer sum_i c_i * p**i, so the encodings are exactly
0 .. q-1 with q = p**n.  For n = 1 an element is simply its residue.

Fields with n > 1 and q small enough precompute full operation tables,
multiplication and inverse from exp/log tables of a primitive element and
addition digit by digit; larger fields fall back to digit-vector
arithmetic.  Either way the observable behaviour is identical.

All F_p polynomial arithmetic (modulus search and check, digit-vector
inverse) goes through the shared poly.raw_* kernels over finite_field(p),
imported inside the functions that use them because poly imports this
module.  The modulus search builds no p-sized table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    EvenCharacteristicError,
    NonElementError,
    NotIrreducibleError,
    NotMonicError,
    NotPrimeError,
    WrongDegreeError,
)

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
        raise NotPrimeError(f"p={p} is not prime")
    if n < 1:
        raise WrongDegreeError(f"extension degree must be >= 1, got {n}")
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
        "_xk",
        "_trace_xi",
    )

    def __init__(self, p: int, n: int = 1, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or p < 2:
            raise NotPrimeError(f"p={p!r} is not a prime >= 3")
        if p == 2:
            raise EvenCharacteristicError("characteristic 2 is not supported")
        if not is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        if not isinstance(n, int) or n < 1:
            raise WrongDegreeError(f"extension degree must be >= 1, got {n!r}")
        q = p**n
        if q > MAX_FIELD_SIZE:
            raise WrongDegreeError(f"p**n = {q} exceeds the supported range 2**63")

        if modulus is None:
            mod = list(find_irreducible(p, n))
        else:
            from .poly import raw_strip

            mod = list(modulus)
            for c in mod:
                if type(c) is not int or not 0 <= c < p:
                    raise NonElementError(
                        f"modulus coefficient {c!r} is not in [0, {p})"
                    )
            raw_strip(mod)
            if len(mod) - 1 != n:
                raise WrongDegreeError(
                    f"modulus degree {len(mod) - 1} does not match n={n}"
                )
            if mod[-1] != 1:
                raise NotMonicError("modulus must be monic")
            if not _pis_irreducible(mod, p):
                raise NotIrreducibleError(
                    f"modulus {tuple(mod)} is reducible over F_{p}"
                )

        self.p = p
        self.n = n
        self.q = q
        self.modulus = tuple(mod)
        self._trace_xi = None
        self._xk = None
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

    def _reduction_rows(self) -> list[list[int]]:
        """Digit vectors of x^k mod modulus for k = 0 .. 2n-2."""
        p, n, mod = self.p, self.n, self.modulus
        rows = [[1 if i == k else 0 for i in range(n)] for k in range(n)]
        for _ in range(n - 1):
            prev = rows[-1]
            nxt = [0] * n
            lead = prev[n - 1]
            for i in range(n):
                nxt[i] = (prev[i - 1] if i else 0) - lead * mod[i]
            rows.append([c % p for c in nxt])
        return rows

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

    def _vec_mul_digits(self, da: Sequence[int], db: Sequence[int]) -> list[int]:
        p, n = self.p, self.n
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] += ai * bj
        xk = self._xk
        out = conv[:n]
        for k in range(n, 2 * n - 1):
            ck = conv[k]
            if ck:
                row = xk[k]
                for i in range(n):
                    out[i] += ck * row[i]
        return [c % p for c in out]

    def _bind_table_ops(self):
        p, q = self.p, self.q
        self._xk = self._reduction_rows()

        # exp/log tables of a primitive element g, found by walking the
        # powers of each candidate with the digit multiply until one has
        # order q - 1; exp2 repeats exp so log a + log b needs no modulo
        for g in range(2, q):
            dg = self._vec_decode(g)
            exp, d = [1], dg
            while (e := self._vec_encode(d)) != 1:
                exp.append(e)
                d = self._vec_mul_digits(d, dg)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        exp2 = exp + exp
        logs = log[1:]
        mul_t = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        inv_t: list[int | None] = [None] + [exp[-la] for la in logs]

        # base-p addition has no carries: for b = p*d + m (d-major order)
        # add(a, b) = p * add(a // p, d) + add_p[a % p][m], and the row of
        # a // p < a is already built
        add_p = [[(x + y) % p for y in range(p)] for x in range(p)]
        add_t = [list(range(q))]
        for a in range(1, q):
            high, low = add_t[a // p][: q // p], add_p[a % p]
            add_t.append([p * h + lo for h in high for lo in low])
        neg_t = [self._vec_encode([-d % p for d in self._vec_decode(a)]) for a in range(q)]

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
        from .poly import raw_strip, raw_xgcd

        self._xk = self._reduction_rows()
        p = self.p
        Fp = finite_field(p)

        def add(a: int, b: int) -> int:
            da, db = self._vec_decode(a), self._vec_decode(b)
            return self._vec_encode([(x + y) % p for x, y in zip(da, db)])

        def sub(a: int, b: int) -> int:
            da, db = self._vec_decode(a), self._vec_decode(b)
            return self._vec_encode([(x - y) % p for x, y in zip(da, db)])

        def neg(a: int) -> int:
            return self._vec_encode([-d % p for d in self._vec_decode(a)])

        def mul(a: int, b: int) -> int:
            return self._vec_encode(
                self._vec_mul_digits(self._vec_decode(a), self._vec_decode(b))
            )

        def inv(a: int) -> int:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            # s*modulus + t*a = 1 because the modulus is irreducible
            _, _, t = raw_xgcd(Fp, self.modulus, raw_strip(self._vec_decode(a)))
            return self._vec_encode(t)

        self._add = add
        self._sub = sub
        self._mul = mul
        self._neg = neg
        self._inv = inv

    # -- public operations ----------------------------------------------------

    def _check(self, a) -> None:
        # type(), not isinstance(): a bool is an int but not an encoding
        if type(a) is not int or not 0 <= a < self.q:
            raise NonElementError(f"{a!r} is not an element encoding of {self!r}")

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
        if not isinstance(e, int):
            raise TypeError(f"exponent must be an int, got {e!r}")
        return self._pow(a, e)

    def frobenius(self, a: int) -> int:
        self._check(a)
        return self._pow(a, self.p)

    def trace(self, a: int) -> int:
        """Trace to the prime field, returned as a residue in [0, p).

        Tr is F_p-linear, so Tr(a) = sum of a_i * Tr(x^i) over the base-p
        digits a_i of a; the n values Tr(x^i) are Frobenius sums, computed
        on first use."""
        self._check(a)
        if self.n == 1:
            return a
        p = self.p
        if self._trace_xi is None:
            txi = []
            for i in range(self.n):
                s = x = p**i  # the encoding of x^i
                for _ in range(self.n - 1):
                    x = self._pow(x, p)
                    s = self._add(s, x)
                # trace lands in the prime subfield, whose encodings are 0..p-1
                assert s < p
                txi.append(s)
            self._trace_xi = txi
        t = 0
        for ti in self._trace_xi:
            t += a % p * ti
            a //= p
        return t % p

    def coords(self, a: int) -> tuple[int, ...]:
        self._check(a)
        return tuple(self._vec_decode(a)) if self.n > 1 else (a,)

    def from_coords(self, digits: Iterable[int]) -> int:
        ds = list(digits)
        if len(ds) > self.n:
            raise NonElementError(
                f"got {len(ds)} coordinates for an extension of degree {self.n}"
            )
        for d in ds:
            if type(d) is not int or not 0 <= d < self.p:
                raise NonElementError(f"coordinate {d!r} is not in [0, {self.p})")
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
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(mod {','.join(map(str, self.modulus))})"


@lru_cache(maxsize=None)
def _cached_field(p: int, n: int, modulus: tuple[int, ...] | None) -> FiniteField:
    return FiniteField(p, n, modulus)


def finite_field(
    p: int, n: int = 1, modulus: Sequence[int] | None = None
) -> FiniteField:
    """Shared-instance constructor; repeated calls reuse built tables."""
    key = tuple(modulus) if modulus is not None else None
    return _cached_field(p, n, key)

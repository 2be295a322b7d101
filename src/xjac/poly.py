"""Univariate polynomials over a FiniteField.

Coefficients are stored low-degree-first; "1,0,0,0,0,1" is x^5 + 1.  All
arithmetic is in the raw_* kernels, which work on plain lists of element
encodings (no allocation beyond the lists themselves).  Poly is only the
immutable value type that curves, divisors and reports hold: it parses,
prints, compares, evaluates and tests squarefreeness, and a caller that
computes with one passes its coeffs to the kernels and wraps the result.
"""

from __future__ import annotations

from typing import Sequence

from .field import FiniteField

Raw = list  # low-degree-first list of element encodings, no trailing zeros


def raw_strip(c: Raw) -> Raw:
    while c and c[-1] == 0:
        c.pop()
    return c


def raw_add(K: FiniteField, a: Sequence[int], b: Sequence[int]) -> Raw:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = K._add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return raw_strip(out)


def raw_sub(K: FiniteField, a: Sequence[int], b: Sequence[int]) -> Raw:
    sub = K._sub
    if len(a) >= len(b):
        out = list(a)
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
    else:
        neg = K._neg
        out = [neg(c) for c in b]
        add = K._add
        for i, c in enumerate(a):
            out[i] = add(out[i], c)
    return raw_strip(out)


def raw_neg(K: FiniteField, a: Sequence[int]) -> Raw:
    neg = K._neg
    return [neg(c) for c in a]


def raw_mul(K: FiniteField, a: Sequence[int], b: Sequence[int]) -> Raw:
    if not a or not b:
        return []
    mul, add = K._mul, K._add
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return raw_strip(out)


def raw_scale(K: FiniteField, a: Sequence[int], s: int) -> Raw:
    if s == 0:
        return []
    mul = K._mul
    return raw_strip([mul(c, s) for c in a])


def raw_divmod(K: FiniteField, a: Sequence[int], b: Sequence[int]) -> tuple[Raw, Raw]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], raw_strip(r)
    inv_lead = K._inv(b[-1])
    mul, sub = K._mul, K._sub
    quo = [0] * (len(r) - db)
    while len(r) - 1 >= db:
        lead = r[-1]
        if lead:
            qc = mul(lead, inv_lead)
            shift = len(r) - 1 - db
            quo[shift] = qc
            for i in range(db):
                if b[i]:
                    r[shift + i] = sub(r[shift + i], mul(qc, b[i]))
        r.pop()
        raw_strip(r)
    return raw_strip(quo), r


def raw_monic(K: FiniteField, a: Sequence[int]) -> Raw:
    if not a:
        return []
    if a[-1] == 1:
        return list(a)
    return raw_scale(K, a, K._inv(a[-1]))


def raw_xgcd(
    K: FiniteField, a: Sequence[int], b: Sequence[int]
) -> tuple[Raw, Raw, Raw]:
    """Monic g plus Bezout coefficients: s*a + t*b = g."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    r0, s0, t0 = list(a), [1], []
    r1, s1, t1 = list(b), [], [1]
    while r1:
        q, r2 = raw_divmod(K, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, raw_sub(K, s0, raw_mul(K, q, s1))
        t0, t1 = t1, raw_sub(K, t0, raw_mul(K, q, t1))
    lead = r0[-1]
    if lead != 1:
        li = K._inv(lead)
        r0 = raw_scale(K, r0, li)
        s0 = raw_scale(K, s0, li)
        t0 = raw_scale(K, t0, li)
    return r0, s0, t0


def raw_gcd(K: FiniteField, a: Sequence[int], b: Sequence[int]) -> Raw:
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = list(a), list(b)
    while r1:
        _, r2 = raw_divmod(K, r0, r1)
        r0, r1 = r1, r2
    return raw_monic(K, r0)


def raw_eval(K: FiniteField, a: Sequence[int], x: int) -> int:
    acc = 0
    mul, add = K._mul, K._add
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def raw_derivative(K: FiniteField, a: Sequence[int]) -> Raw:
    p = K.p
    mul = K._mul
    out = [mul(c, i % p) for i, c in enumerate(a) if i > 0]
    return raw_strip(out)


class Poly:
    """Immutable polynomial over a fixed FiniteField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Sequence[int] = ()):
        if not isinstance(field, FiniteField):
            raise TypeError(f"expected a FiniteField, got {field!r}")
        cs = list(coeffs)
        for c in cs:
            field._check(c)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FiniteField) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def from_string(cls, field: FiniteField, text: str) -> "Poly":
        """Parse the comma form, e.g. "1,0,0,0,0,1" -> x^5 + 1."""
        toks = [t.strip() for t in text.split(",")]
        try:
            cs = [int(t) for t in toks]
        except ValueError as exc:
            raise ValueError(f"bad polynomial text {text!r}") from exc
        return cls(field, cs)

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _wrap(self, raw: Sequence[int]) -> "Poly":
        out = object.__new__(Poly)
        object.__setattr__(out, "field", self.field)
        object.__setattr__(out, "coeffs", tuple(raw))
        return out

    def __call__(self, x: int) -> int:
        """Evaluate at the element encoding x."""
        self.field._check(x)
        return raw_eval(self.field, self.coeffs, x)

    def is_squarefree(self) -> bool:
        """True when gcd(f, f') is constant; the zero polynomial is not
        squarefree, and neither is anything with vanishing derivative of
        positive degree (a p-th power in characteristic p)."""
        if self.is_zero:
            return False
        if self.degree == 0:
            return True
        g = raw_gcd(self.field, self.coeffs, raw_derivative(self.field, self.coeffs))
        return len(g) == 1

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            if other == 0:
                return self.is_zero
            return self.degree == 0 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __repr__(self):
        return f"Poly[{self.to_string()}]"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                parts.append(xi if c == 1 else f"{c}*{xi}")
        return " + ".join(parts)

"""On-disk cache for Jacobian enumerations.

One JSON file per curve, keyed by a content hash of (p, n, modulus, f)
so edited curves never reuse stale data.  Layout (version 2):

    {"divisors": [[u, v], ...], "f": "c0,...,c5", "modulus": "c0,c1,...",
     "n": ..., "order": ..., "p": ..., "version": 2}

u and v are coefficient lists in ascending degree, each coefficient an
element encoding in [0, q).  Points are not stored: curve.points()
recomputes them in O(q).  A version-1 file (coordinate vectors and a
"points" section) fails the version check, so ensure_jacobian warns,
recomputes and rewrites it.

Loads are never trusted blindly: the header must match the curve, the
recorded order must equal the divisor count and |J| as counted
(jacobian_order), and one pass over the raw [u, v] lists checks each
entry's shape, u | v^2 - f (f mod u once per u, as the classes of one u
are contiguous) and that the entries rise strictly in enumerate_jacobian's
order: [1, 0], weight 1 by the point (x, y), weight 2 by (u0, u1, v0, v1).
|J| distinct valid classes in that order are the enumeration itself, so
a file that misses, repeats or permutes classes is stale.  Anything else
raises CacheError.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Sequence

from .curve import HyperellipticCurve, MumfordDivisor
from .field import FiniteField

CACHE_VERSION = 2


class CacheError(ValueError):
    """A cache file exists but fails schema or consistency validation."""


def modulus_string(field: FiniteField) -> str:
    """The modulus as "c0,c1,...", or "" for a prime field."""
    if field.n == 1:
        return ""
    return ",".join(str(c) for c in field.modulus)


def cache_key(curve: HyperellipticCurve) -> str:
    """Content hash identifying (p, n, modulus, f)."""
    K = curve.field
    tag = f"p={K.p};n={K.n};modulus={modulus_string(K)};f={curve.f.to_string()}"
    return hashlib.sha256(tag.encode("ascii")).hexdigest()


def cache_path(cache_dir: str, curve: HyperellipticCurve) -> str:
    return os.path.join(cache_dir, f"jacobian-{cache_key(curve)[:32]}.json")


def _header(curve: HyperellipticCurve, order: int) -> dict:
    """Every key of the cache file but "divisors"."""
    K = curve.field
    return {
        "version": CACHE_VERSION,
        "p": K.p,
        "n": K.n,
        "modulus": modulus_string(K),
        "f": curve.f.to_string(),
        "order": order,
    }


def serialize(curve: HyperellipticCurve, divisors: Sequence[MumfordDivisor]) -> dict:
    payload = _header(curve, len(divisors))
    # coefficient tuples encode as JSON arrays
    payload["divisors"] = [(D.u.coeffs, D.v.coeffs) for D in divisors]
    return payload


# divisors per json.dumps call in save(): large enough to amortise the
# call, small enough that no whole-file string is ever built
_SAVE_CHUNK = 512


def save(cache_dir: str, curve: HyperellipticCurve, divisors: Sequence[MumfordDivisor]) -> str:
    """Write the enumeration for this curve; returns the file path.

    The bytes are those of json.dumps(serialize(...), sort_keys=True,
    separators=(",", ":")) plus a newline.  "divisors" sorts first, so it
    is streamed in chunks through the C encoder, and the other keys follow
    from one dumps call."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, curve)
    header = _header(curve, len(divisors))
    tmp = f"{path}.{os.getpid()}.tmp"  # one per process; removed if the write fails
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write('{"divisors":[')
            for start in range(0, len(divisors), _SAVE_CHUNK):
                chunk = [(D.u.coeffs, D.v.coeffs) for D in divisors[start : start + _SAVE_CHUNK]]
                if start:
                    fh.write(",")
                fh.write(json.dumps(chunk, separators=(",", ":"))[1:-1])
            fh.write("],")
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":"))[1:])
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def load(cache_dir: str, curve: HyperellipticCurve) -> tuple[MumfordDivisor, ...] | None:
    """Validated reload; None when no file exists, CacheError when stale."""
    path = cache_path(cache_dir, curve)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    if type(data) is not dict:
        raise CacheError(f"cache {path}: the top level is not a JSON object")

    expected = _header(curve, None)
    del expected["order"]  # checked against the divisor count below
    for key, want in expected.items():
        got = data.get(key)
        if type(got) is not type(want) or got != want:  # 7.0 == 7, but save writes no float
            raise CacheError(f"cache {path}: field {key!r} is {got!r}, expected {want!r}")

    raw_divisors = data.get("divisors")
    order = data.get("order")
    if not isinstance(raw_divisors, list):
        raise CacheError(f"cache {path}: divisors must be a list")
    if type(order) is not int or order != len(raw_divisors):
        raise CacheError(
            f"cache {path}: recorded order {order!r} != {len(raw_divisors)} stored divisors"
        )
    counted = curve.jacobian_order()
    if order != counted:
        raise CacheError(f"cache {path}: recorded order {order} != |J| = {counted}, counted")

    # per u: its shape, place, f mod u and Poly; per class: the rest
    q, neg = curve.field.q, curve.field._neg
    f_mod, v_squared_mod, wrap_poly = curve._f_mod, curve._v_squared_mod, curve.f._wrap

    def stale(i: int, why: str) -> CacheError:
        return CacheError(f"cache {path}: divisors[{i}] = {raw_divisors[i]!r} {why}")

    divisors, key_last = [], []
    u_last = v_last = f_u = U = None
    for i, item in enumerate(raw_divisors):
        if not (type(item) is list and len(item) == 2 and type(item[0]) is type(item[1]) is list):
            raise stale(i, "is not a [u, v] pair of lists")
        u, v = item
        for c in u + v:
            if type(c) is not int or not 0 <= c < q:
                raise stale(i, f"holds {c!r}, not an element encoding")
        if u != u_last:
            if not (0 < len(u) <= 3 and u[-1] == 1):
                raise stale(i, "is not reduced: u is not monic of degree <= 2")
            # u's place: [1] for [1, 0], [2, x] at the point x = -u0, [3, u0, u1]
            key = [2, neg(u[0])] if len(u) == 2 else [len(u), *u[:-1]]
            rises = key > key_last
            u_last, key_last, f_u, U = u, key, f_mod(u), wrap_poly(u)
        else:  # canonical lists compare as if padded with zeros
            rises = v > v_last
        if len(v) >= len(u) or (v and not v[-1]):
            raise stale(i, "is not reduced: v is not canonical of degree below deg u")
        if not rises:
            raise stale(i, "is a duplicate or out of canonical order, [1, 0] first")
        v_last = v
        if v_squared_mod(u, v) != f_u:
            raise stale(i, "is invalid: u does not divide v^2 - f")
        D = object.__new__(MumfordDivisor)  # as _wrap_divisor, with u's Poly shared
        object.__setattr__(D, "u", U)
        object.__setattr__(D, "v", wrap_poly(v))
        divisors.append(D)
    return tuple(divisors)


def ensure_jacobian(
    curve: HyperellipticCurve, cache_dir: str | None
) -> tuple[tuple[MumfordDivisor, ...], str]:
    """Enumeration via cache when possible; returns (divisors, source).

    source is "cache" or "computed".  A corrupt or stale cache file is
    recomputed and rewritten, with a warning line on stderr.
    """
    if cache_dir:
        try:
            cached = load(cache_dir, curve)
        except CacheError as exc:
            print(f"warning: ignoring corrupt cache ({exc})", file=sys.stderr)
            cached = None
        if cached is not None:
            return cached, "cache"
    divisors = curve.enumerate_jacobian()
    if cache_dir:
        save(cache_dir, curve, divisors)
    return divisors, "computed"

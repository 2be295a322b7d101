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

Loads are never trusted blindly: a reload must match the curve
parameters, the recorded order must equal both the divisor count and
|J| as the curve counts it (jacobian_order), every divisor must be
canonical, reduced and pass is_valid_divisor, and [1, 0] must come first
with no duplicates, so a file missing some classes is stale too.
Anything else raises CacheError.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Sequence

from .curve import HyperellipticCurve, MumfordDivisor
from .field import FiniteField
from .poly import Poly

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


def _decode_poly(curve: HyperellipticCurve, coeffs, where: str) -> Poly:
    """coeffs as a Poly over the curve's field, wrapped without Poly's
    own checks, which the ones here already make."""
    q = curve.field.q
    if not (isinstance(coeffs, list) and all(type(c) is int and 0 <= c < q for c in coeffs)):
        raise CacheError(f"{where}: {coeffs!r} is not a list of element encodings")
    if coeffs and coeffs[-1] == 0:
        raise CacheError(f"{where}: coefficient list not in canonical form")
    return curve.f._wrap(coeffs)


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
    tmp = path + ".tmp"
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

    divisors = []
    for i, item in enumerate(raw_divisors):
        if not (isinstance(item, list) and len(item) == 2):
            raise CacheError(f"cache {path}: divisors[{i}] is not a [u, v] pair")
        u = _decode_poly(curve, item[0], f"divisors[{i}].u")
        v = _decode_poly(curve, item[1], f"divisors[{i}].v")
        try:
            D = MumfordDivisor(u, v)
        except ValueError as exc:
            raise CacheError(f"cache {path}: divisors[{i}] is not reduced: {exc}") from exc
        if not curve.is_valid_divisor(D):
            raise CacheError(f"cache {path}: divisors[{i}] = {D} is invalid")
        divisors.append(D)
    if not divisors or not divisors[0].is_zero:
        raise CacheError(f"cache {path}: enumeration must start with [1, 0]")
    if len(set(divisors)) != len(divisors):
        raise CacheError(f"cache {path}: duplicate divisors")
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

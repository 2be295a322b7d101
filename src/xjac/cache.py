"""On-disk cache for Jacobian enumerations.

One JSON file per curve, keyed by a content hash of (p, n, modulus, f)
so edited curves never reuse stale data.  Layout:

    {"version": 1, "p": ..., "n": ..., "modulus": "c0,c1,...",
     "f": "c0,...,c5", "order": ...,
     "points": [[x, y], ...], "divisors": [[u, v], ...]}

where every field-element coordinate is serialized as its coordinate
vector over F_p (a list of n integers), points are [x, y] pairs of such
vectors and u, v are lists of coefficient vectors in ascending degree.

Loads are never trusted blindly: a reload must match the curve
parameters, every point must lie on the curve, every divisor must pass
is_valid_divisor and the recorded order must equal the divisor count.
Anything else raises CacheError.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Sequence

from .curve import AffinePoint, HyperellipticCurve, MumfordDivisor
from .errors import CacheError
from .poly import Poly

CACHE_VERSION = 1


def _modulus_string(curve: HyperellipticCurve) -> str:
    K = curve.field
    if K.n == 1:
        return ""
    return ",".join(str(c) for c in K.modulus)


def cache_key(curve: HyperellipticCurve) -> str:
    """Content hash identifying (p, n, modulus, f)."""
    K = curve.field
    tag = f"p={K.p};n={K.n};modulus={_modulus_string(curve)};f={curve.f.to_string()}"
    return hashlib.sha256(tag.encode("ascii")).hexdigest()


def cache_path(cache_dir: str, curve: HyperellipticCurve) -> str:
    return os.path.join(cache_dir, f"jacobian-{cache_key(curve)[:32]}.json")


def _coords(curve: HyperellipticCurve, e: int) -> list[int]:
    return list(curve.field.coords(e))


def _poly_vectors(curve: HyperellipticCurve, P: Poly) -> list[list[int]]:
    return [_coords(curve, c) for c in P.coeffs]


def _decode_element(curve: HyperellipticCurve, vec, where: str) -> int:
    K = curve.field
    if not (
        isinstance(vec, list)
        and len(vec) == K.n
        and all(isinstance(c, int) and 0 <= c < K.p for c in vec)
    ):
        raise CacheError(f"{where}: bad coordinate vector {vec!r}")
    return K.from_coords(vec)


def _decode_poly(curve: HyperellipticCurve, vecs, where: str) -> Poly:
    if not isinstance(vecs, list):
        raise CacheError(f"{where}: expected a list of coefficient vectors")
    coeffs = [_decode_element(curve, v, where) for v in vecs]
    if coeffs and coeffs[-1] == 0:
        raise CacheError(f"{where}: coefficient list not in canonical form")
    return Poly(curve.field, coeffs)


def _divisor_entry(curve: HyperellipticCurve, D: MumfordDivisor) -> list:
    return [_poly_vectors(curve, D.u), _poly_vectors(curve, D.v)]


def _header(curve: HyperellipticCurve, order: int) -> dict:
    """Every key of the cache file but "divisors"."""
    K = curve.field
    return {
        "version": CACHE_VERSION,
        "p": K.p,
        "n": K.n,
        "modulus": _modulus_string(curve),
        "f": curve.f.to_string(),
        "order": order,
        "points": [[_coords(curve, P.x), _coords(curve, P.y)] for P in curve.points()],
    }


def serialize(curve: HyperellipticCurve, divisors: Sequence[MumfordDivisor]) -> dict:
    payload = _header(curve, len(divisors))
    payload["divisors"] = [_divisor_entry(curve, D) for D in divisors]
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
            chunk = [_divisor_entry(curve, D) for D in divisors[start : start + _SAVE_CHUNK]]
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

    K = curve.field
    expected = {
        "version": CACHE_VERSION,
        "p": K.p,
        "n": K.n,
        "modulus": _modulus_string(curve),
        "f": curve.f.to_string(),
    }
    for key, want in expected.items():
        if data.get(key) != want:
            raise CacheError(f"cache {path}: field {key!r} is {data.get(key)!r}, expected {want!r}")

    raw_points = data.get("points")
    raw_divisors = data.get("divisors")
    order = data.get("order")
    if not isinstance(raw_points, list) or not isinstance(raw_divisors, list):
        raise CacheError(f"cache {path}: points/divisors must be lists")
    if order != len(raw_divisors):
        raise CacheError(
            f"cache {path}: recorded order {order!r} != {len(raw_divisors)} stored divisors"
        )

    points = []
    for i, item in enumerate(raw_points):
        if not (isinstance(item, list) and len(item) == 2):
            raise CacheError(f"cache {path}: points[{i}] is not an [x, y] pair")
        P = AffinePoint(
            _decode_element(curve, item[0], f"points[{i}].x"),
            _decode_element(curve, item[1], f"points[{i}].y"),
        )
        if not curve.is_point(P.x, P.y):
            raise CacheError(f"cache {path}: points[{i}] = {P} is not on the curve")
        points.append(P)

    divisors = []
    for i, item in enumerate(raw_divisors):
        if not (isinstance(item, list) and len(item) == 2):
            raise CacheError(f"cache {path}: divisors[{i}] is not a [u, v] pair")
        u = _decode_poly(curve, item[0], f"divisors[{i}].u")
        v = _decode_poly(curve, item[1], f"divisors[{i}].v")
        if not curve.is_valid_divisor((u, v)):
            raise CacheError(f"cache {path}: divisors[{i}] = [{u}, {v}] is invalid")
        divisors.append(MumfordDivisor(u, v))
    if not divisors or not divisors[0].is_zero:
        raise CacheError(f"cache {path}: enumeration must start with [1, 0]")
    if len(set(divisors)) != len(divisors):
        raise CacheError(f"cache {path}: duplicate divisors")

    curve.preload_enumeration(points, divisors)
    return tuple(divisors)


def ensure_jacobian(
    curve: HyperellipticCurve,
    cache_dir: str | None,
    budget: int,
) -> tuple[tuple[MumfordDivisor, ...], str]:
    """Enumeration via cache when possible; returns (divisors, source).

    source is "cache" or "computed".  The budget is judged on the work
    estimate before any cache lookup, so outcomes do not depend on cache
    warmth.  A corrupt cache file is recomputed and rewritten, with a
    warning line on stderr.
    """
    curve.require_jacobian_budget(budget)
    if cache_dir:
        try:
            cached = load(cache_dir, curve)
        except CacheError as exc:
            print(f"warning: ignoring corrupt cache ({exc})", file=sys.stderr)
            cached = None
        if cached is not None:
            return cached, "cache"
    divisors = curve.enumerate_jacobian(budget)
    if cache_dir:
        save(cache_dir, curve, divisors)
    return divisors, "computed"

"""Kernel microbenchmarks for what the span wrappers cannot see: field
operations per backend, the raw polynomial kernels at Cantor operand sizes,
and Cantor add and double.  Each figure is the median over batches of the
mean time per call, in microseconds unless the name says otherwise."""

from __future__ import annotations

import statistics
import time

BATCHES = 7


def per_call_us(fn, argsets, batches: int = BATCHES) -> float:
    times = []
    for _ in range(batches):
        t = time.perf_counter()
        for args in argsets:
            fn(*args)
        times.append((time.perf_counter() - t) / len(argsets))
    return statistics.median(times) * 1e6


def dh_kernels(curve, G, shared, rng) -> dict[str, float]:
    """Prime-field, raw-poly and Cantor kernels on the dh-extract curve."""
    from xjac.poly import raw_divmod, raw_mul, raw_xgcd

    K = curve.field
    pairs = [(rng.randrange(K.q), rng.randrange(K.q)) for _ in range(2000)]
    # weight-2 classes, as inside scalar_mul; G keeps the list non-empty
    divs = [D for D in shared if D.weight == 2] or [G]
    us = [list(D.u.coeffs) for D in divs]
    nxt = us[1:] + us[:1]
    prods = [raw_mul(K, a, b) for a, b in zip(us, nxt)]
    dpairs = [(D, E) for D, E in zip(divs, divs[1:] + divs[:1])]
    return {
        "field.mul_us.prime": per_call_us(K.mul, pairs),
        "poly.raw_mul_us": per_call_us(raw_mul, [(K, a, b) for a, b in zip(us, nxt)]),
        "poly.raw_divmod_us": per_call_us(raw_divmod, [(K, pr, b) for pr, b in zip(prods, us)]),
        "poly.raw_xgcd_us": per_call_us(raw_xgcd, [(K, a, b) for a, b in zip(us, nxt)]),
        "curve.cantor_add_us.add": per_call_us(curve.cantor_add, dpairs),
        "curve.cantor_add_us.double": per_call_us(curve.cantor_add, [(D, D) for D in divs]),
    }


def field_kernels(table: tuple[int, int], vector: tuple[int, int], rng) -> dict[str, float]:
    """mul on the table and vector backends; inv and trace on the vector one.

    The table field comes from finite_field, so the instance the workload
    already built is reused; the vector field is built fresh so that its
    first trace call still fills the trace table."""
    from xjac.field import FiniteField, finite_field

    Kt = finite_field(*table)
    Kv = FiniteField(*vector)
    tpairs = [(rng.randrange(Kt.q), rng.randrange(Kt.q)) for _ in range(2000)]
    vpairs = [(rng.randrange(Kv.q), rng.randrange(Kv.q)) for _ in range(500)]
    nonzero = [(rng.randrange(1, Kv.q),) for _ in range(200)]
    t = time.perf_counter()
    Kv.trace(1)
    trace_first = time.perf_counter() - t
    return {
        "field.mul_us.table": per_call_us(Kt.mul, tpairs),
        "field.mul_us.vector": per_call_us(Kv.mul, vpairs),
        "field.inv_us.vector": per_call_us(Kv.inv, nonzero),
        "field.trace_first_s.vector": trace_first,
        "field.trace_us.vector": per_call_us(Kv.trace, [(a,) for a, _ in vpairs]),
    }

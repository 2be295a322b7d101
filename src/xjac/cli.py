"""Command-line front end: deterministic experiment reports as CSV/JSON.

Four subcommands:

    xjac jacobian    enumerate a Jacobian, verify Weil bounds, spot-check laws
    xjac extract-sd  exact or Monte-Carlo extractor output distribution
    xjac charsum     character-sum law checks (orthogonality/mordell/winterhof/interval)
    xjac sweep       extract-sd over a (p, extractor, k) grid, plus summary row

Report bytes depend only on the configuration (including seeds), never on
cache warmth or wall time, so reruns are byte-identical and diffable.
Timing and cache-hit information goes to stderr only.  Exit codes:
0 success (warnings allowed), 2 configuration/validation error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from . import cache
from .charsum import (
    AdditiveSubgroup,
    interval_char_sum,
    orthogonality_sum,
    poly_char_sum,
    winterhof_sum,
)
from .curve import DEFAULT_BUDGET, HyperellipticCurve
from .errors import BudgetExceededError, ConfigError, NotSquarefreeError
from .extractors import ExtractorKind
from .field import FiniteField, finite_field, is_prime
from .poly import Poly
from .stats import (
    RandomSource,
    exact_output_distribution,
    monte_carlo_distribution,
    sd_report,
)

SCHEMA_VERSION = 1

JACOBIAN_COLUMNS = [
    "schema", "command", "experiment_id", "p", "n", "q", "modulus", "f",
    "affine_points", "jacobian_order", "weil_low", "weil_high", "weil_ok",
    "q2_plus_q", "q2_plus_q_plus_1", "spot_checks", "spot_failures", "status",
]

EXTRACT_COLUMNS = [
    "schema", "command", "experiment_id", "p", "n", "q", "modulus", "f",
    "jacobian_order", "extractor", "k", "m", "mode", "samples", "seed",
    "sd", "col", "sd_sqrt_q", "bound_coords", "bound_bits", "envelope",
    "ratio_coords", "ratio_bits", "status",
]

CHARSUM_COLUMNS = [
    "schema", "command", "experiment_id", "mode", "p", "n", "q", "a",
    "poly", "basis", "L", "magnitude", "expected", "bound", "ratio", "status",
]

CHARSUM_MODES = ("orthogonality", "mordell", "winterhof", "interval")


# -- config plumbing -----------------------------------------------------------


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def merged_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """File values first, explicit flags override, env fills cache_dir."""
    cfg: dict = {}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        for key, val in file_cfg.items():
            if key not in keys:
                raise ConfigError(f"config file key {key!r} is not a known option")
            cfg[key] = val
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg.get("cache_dir") is None:
        cfg["cache_dir"] = os.environ.get("XJAC_CACHE_DIR") or None
    return cfg


def _require(cfg: dict, key: str):
    val = cfg.get(key)
    if val is None:
        flag = key.replace("_", "-")
        raise ConfigError(f"missing required option --{flag}")
    return val


def _as_int(cfg: dict, key: str, default: int | None = None) -> int | None:
    val = cfg.get(key, default)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, int):
        try:
            val = int(str(val), 10)
        except ValueError:
            raise ConfigError(f"option {key!r} must be an integer, got {val!r}")
    return val


def _int_list(cfg: dict, key: str) -> list[int]:
    """Comma-separated string (or JSON list) of integers."""
    val = _require(cfg, key)
    if isinstance(val, str):
        items = [s for s in val.split(",") if s.strip()]
    elif isinstance(val, list):
        items = val
    else:
        raise ConfigError(f"option {key!r} must be a comma list, got {val!r}")
    try:
        return [int(str(s).strip(), 10) for s in items]
    except ValueError:
        raise ConfigError(f"option {key!r} has non-integer entries: {val!r}")


def build_field(cfg: dict) -> FiniteField:
    p = _as_int(cfg, "p")
    if p is None:
        raise ConfigError("missing required option --p")
    n = _as_int(cfg, "n", 1)
    modulus = cfg.get("modulus")
    if modulus is not None:
        if isinstance(modulus, str):
            try:
                modulus = tuple(int(s.strip(), 10) for s in modulus.split(","))
            except ValueError:
                raise ConfigError(f"modulus {modulus!r} is not a comma list of integers")
        return FiniteField(p, n, tuple(modulus))
    return finite_field(p, n)


def _extractor_kind(name) -> ExtractorKind:
    try:
        return ExtractorKind.from_name(str(name))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_extractor_fits(kind: ExtractorKind, field: FiniteField, k: int) -> None:
    if kind.is_bitwise:
        if field.n != 1:
            raise ConfigError(
                f"extractor {kind.value} needs a prime field, got n = {field.n}"
            )
        if k < 1 or 2**k > field.p:
            raise ConfigError(
                f"k = {k} out of range for {kind.value}: need 1 <= k, 2**k <= p"
            )
    elif k < 1 or k > field.n:
        raise ConfigError(
            f"k = {k} out of range for {kind.value}: need 1 <= k <= n = {field.n}"
        )


# -- report rendering ----------------------------------------------------------


def _csv_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return format(val, ".12g")
    return str(val)


def _json_value(val):
    if isinstance(val, float):
        return float(format(val, ".12g"))
    return val


def render_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def render_json(command: str, columns: list[str], rows: list[dict]) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "rows": [{col: _json_value(row.get(col)) for col in columns} for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(cfg: dict, command: str, columns: list[str], rows: list[dict]) -> None:
    fmt = cfg.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    text = (
        render_csv(columns, rows)
        if fmt == "csv"
        else render_json(command, columns, rows)
    )
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_jacobian(args: argparse.Namespace) -> int:
    cfg = merged_config(
        args, ["p", "n", "modulus", "f", "out", "format", "cache_dir", "budget"]
    )
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    field = build_field(cfg)
    curve = HyperellipticCurve(field, str(_require(cfg, "f")))

    t0 = time.perf_counter()
    divisors, source = cache.ensure_jacobian(curve, cfg.get("cache_dir"), budget)
    order = len(divisors)
    points = curve.points()
    lo, hi = curve.weil_interval()

    # seeded group-law spot checks: commutativity, closure, identity, inverse
    rng = RandomSource(0)
    checks = failures = 0
    for _ in range(32):
        A = divisors[rng.next_below(order)]
        B = divisors[rng.next_below(order)]
        AB = curve.cantor_add(A, B)
        for ok in (
            AB == curve.cantor_add(B, A),
            curve.is_valid_divisor(AB),
            curve.cantor_add(A, curve.zero()) == A,
            curve.cantor_add(A, curve.neg(A)) == curve.zero(),
        ):
            checks += 1
            failures += 0 if ok else 1

    q = field.q
    weil_ok = lo <= order <= hi
    fstr = curve.f.to_string()
    row = {
        "schema": SCHEMA_VERSION,
        "command": "jacobian",
        "experiment_id": f"jacobian-p{field.p}-n{field.n}-f{fstr.replace(',', '.')}",
        "p": field.p,
        "n": field.n,
        "q": q,
        "modulus": cache.modulus_string(field),
        "f": fstr,
        "affine_points": len(points),
        "jacobian_order": order,
        "weil_low": lo,
        "weil_high": hi,
        "weil_ok": weil_ok,
        "q2_plus_q": q * q + q,
        "q2_plus_q_plus_1": q * q + q + 1,
        "spot_checks": checks,
        "spot_failures": failures,
        "status": "ok" if (weil_ok and failures == 0) else "fail",
    }
    emit_report(cfg, "jacobian", JACOBIAN_COLUMNS, [row])
    ms = (time.perf_counter() - t0) * 1000.0
    _note(f"jacobian: |J| = {order}, enumeration = {source}, runtime_ms = {ms:.1f}")
    return 0


def _extract_row(
    curve: HyperellipticCurve,
    kind: ExtractorKind,
    k: int,
    mode: str,
    samples: int | None,
    seed: int | None,
    budget: int,
    command: str,
) -> dict:
    """Shared by extract-sd and sweep; assumes the enumeration is loaded."""
    field = curve.field
    if mode == "exact":
        tally = exact_output_distribution(curve, kind, k, budget)
    else:
        tally = monte_carlo_distribution(curve, kind, k, samples, seed, budget)
    rep = sd_report(curve, kind, k, tally, mode=mode, samples=samples, seed=seed)
    fstr = curve.f.to_string()
    ident = (
        f"extract-sd-p{field.p}-n{field.n}-f{fstr.replace(',', '.')}"
        f"-{kind.value}-k{k}-{mode}"
    )
    if mode == "montecarlo":
        ident += f"-N{samples}-s{seed}"
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "experiment_id": ident,
        "p": field.p,
        "n": field.n,
        "q": field.q,
        "modulus": cache.modulus_string(field),
        "f": fstr,
        "jacobian_order": curve.jacobian_order(budget),
        "extractor": kind.value,
        "k": k,
        "m": rep.m,
        "mode": mode,
        "samples": samples,
        "seed": seed,
        "sd": rep.sd,
        "col": rep.col,
        "sd_sqrt_q": rep.sd_sqrt_q,
        "bound_coords": rep.bound_coords,
        "bound_bits": rep.bound_bits,
        "envelope": rep.envelope,
        "ratio_coords": rep.ratio_coords,
        "ratio_bits": rep.ratio_bits,
        "status": "ok",
    }


def cmd_extract_sd(args: argparse.Namespace) -> int:
    cfg = merged_config(
        args,
        [
            "p", "n", "modulus", "f", "extractor", "k", "mode", "samples",
            "seed", "out", "format", "cache_dir", "budget",
        ],
    )
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    field = build_field(cfg)
    curve = HyperellipticCurve(field, str(_require(cfg, "f")))
    kind = _extractor_kind(_require(cfg, "extractor"))
    k = _as_int(cfg, "k")
    if k is None:
        raise ConfigError("missing required option --k")
    _check_extractor_fits(kind, field, k)
    mode = cfg.get("mode") or "exact"
    if mode not in ("exact", "montecarlo"):
        raise ConfigError(f"mode must be exact or montecarlo, got {mode!r}")
    samples = _as_int(cfg, "samples")
    seed = _as_int(cfg, "seed")
    if mode == "montecarlo" and (samples is None or seed is None):
        raise ConfigError("montecarlo mode requires --samples and --seed")
    if mode == "exact":
        samples = seed = None

    t0 = time.perf_counter()
    _, source = cache.ensure_jacobian(curve, cfg.get("cache_dir"), budget)
    row = _extract_row(curve, kind, k, mode, samples, seed, budget, "extract-sd")
    emit_report(cfg, "extract-sd", EXTRACT_COLUMNS, [row])
    ms = (time.perf_counter() - t0) * 1000.0
    _note(
        f"extract-sd: sd = {row['sd']:.6g}, enumeration = {source}, "
        f"runtime_ms = {ms:.1f}"
    )
    return 0


def _charsum_budget_check(mode: str, est: int, budget: int) -> None:
    if est > budget:
        raise BudgetExceededError(
            f"charsum mode {mode} needs about {est} character evaluations, "
            f"budget is {budget}"
        )


def cmd_charsum(args: argparse.Namespace) -> int:
    cfg = merged_config(
        args,
        ["p", "n", "modulus", "mode", "basis", "L", "out", "format", "cache_dir", "budget"],
    )
    mode = _require(cfg, "mode")
    if mode not in CHARSUM_MODES:
        raise ConfigError(
            f"charsum mode must be one of {', '.join(CHARSUM_MODES)}, got {mode!r}"
        )
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    p = _as_int(cfg, "p")
    if p is None:
        raise ConfigError("missing required option --p")

    rows: list[dict] = []
    base = {
        "schema": SCHEMA_VERSION,
        "command": "charsum",
        "mode": mode,
        "p": p,
        "a": None,
        "poly": None,
        "basis": None,
        "L": None,
        "expected": None,
    }
    t0 = time.perf_counter()

    if mode == "interval":
        if _as_int(cfg, "n", 1) != 1:
            raise ConfigError("interval sums are defined over prime fields (n = 1)")
        if not is_prime(p):
            raise ConfigError(f"p = {p} is not prime")
        L_single = _as_int(cfg, "L")
        Ls = [L_single] if L_single is not None else list(range(1, p + 1))
        _charsum_budget_check(mode, p * sum(Ls), budget)
        for L in Ls:
            rep = interval_char_sum(p, L)
            rows.append(
                base | {
                    "experiment_id": f"charsum-interval-p{p}-L{L}",
                    "n": 1,
                    "q": p,
                    "L": L,
                    "magnitude": rep.magnitude,
                    "bound": rep.bound,
                    "ratio": rep.ratio,
                    "status": "pass" if rep.magnitude <= rep.bound + 1e-9 else "fail",
                }
            )
    else:
        field = build_field(cfg)
        q = field.q
        if mode == "orthogonality":
            est = q * q
        elif mode == "mordell":
            est = q**3 * (q - 1)
        else:  # winterhof: one --basis, or every subset of 0..n-1
            if cfg.get("basis") is not None:
                bases = [tuple(sorted(_int_list(cfg, "basis")))]
            else:
                bases = [
                    tuple(i for i in range(field.n) if mask >> i & 1)
                    for mask in range(2**field.n)
                ]
            est = sum(q * field.p ** len(b) for b in bases)
        _charsum_budget_check(mode, est, budget)
        base |= {"n": field.n, "q": q}
        if mode == "orthogonality":
            tol = 1e-9 * q
            for a in range(q):
                mag = abs(orthogonality_sum(field, a))
                expected = float(q) if a == 0 else 0.0
                dev = abs(mag - expected)
                rows.append(
                    base | {
                        "experiment_id": f"charsum-orthogonality-p{field.p}-n{field.n}-a{a}",
                        "a": a,
                        "magnitude": mag,
                        "expected": expected,
                        "bound": tol,
                        "ratio": dev / tol,
                        "status": "pass" if dev <= tol else "fail",
                    }
                )
        elif mode == "mordell":
            root_q = math.sqrt(q)
            for c0 in range(q):
                for c1 in range(q):
                    P = Poly(field, (c0, c1, 1))
                    pstr = P.to_string()
                    for a in range(1, q):
                        rep = poly_char_sum(field, P, a)
                        gauss_ok = abs(rep.magnitude - root_q) <= 1e-6 * root_q
                        rows.append(
                            base | {
                                "experiment_id": (
                                    f"charsum-mordell-p{field.p}-n{field.n}"
                                    f"-u{pstr.replace(',', '.')}-a{a}"
                                ),
                                "a": a,
                                "poly": pstr,
                                "magnitude": rep.magnitude,
                                "expected": root_q,
                                "bound": rep.bound,
                                "ratio": rep.ratio,
                                "status": "pass"
                                if (gauss_ok and rep.magnitude <= rep.bound)
                                else "fail",
                            }
                        )
        else:  # winterhof
            for basis in bases:
                rep = winterhof_sum(field, AdditiveSubgroup(field, basis), budget)
                dev = abs(rep.magnitude - q)
                bstr = ";".join(map(str, basis))
                rows.append(
                    base | {
                        "experiment_id": (
                            f"charsum-winterhof-p{field.p}-n{field.n}-basis{bstr or 'none'}"
                        ),
                        "basis": bstr,
                        "magnitude": rep.magnitude,
                        "expected": float(q),
                        "bound": rep.bound,
                        "ratio": rep.ratio,
                        "status": "pass" if dev <= 1e-6 * q else "fail",
                    }
                )

    emit_report(cfg, "charsum", CHARSUM_COLUMNS, rows)
    ms = (time.perf_counter() - t0) * 1000.0
    fails = sum(1 for r in rows if r["status"] != "pass")
    _note(f"charsum: {len(rows)} rows, {fails} failures, runtime_ms = {ms:.1f}")
    return 0


def _resolve_template(field: FiniteField, template: str, c: int | None) -> HyperellipticCurve:
    """Instantiate an f template over the field; a bare `c` token is the
    swept coefficient, advanced to the next value that gives a squarefree f."""
    tokens = [t.strip() for t in template.split(",")]
    if "c" not in tokens:
        return HyperellipticCurve(field, template)
    if c is None:
        raise ConfigError("f template uses 'c' but no --c values were given")
    cur = c % field.q
    for _ in range(field.q):
        fstr = ",".join(str(cur) if t == "c" else t for t in tokens)
        try:
            return HyperellipticCurve(field, fstr)
        except NotSquarefreeError:
            cur = (cur + 1) % field.q
    raise ConfigError(
        f"no squarefree instance of template {template!r} over F_{field.q}"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = merged_config(
        args,
        ["p", "n", "f", "extractor", "k", "c", "out", "format", "cache_dir", "budget"],
    )
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    n = _as_int(cfg, "n", 1)
    ps = _int_list(cfg, "p")
    template = str(_require(cfg, "f"))

    ext_cfg = _require(cfg, "extractor")
    ext_items = (
        [s for s in ext_cfg.split(",") if s.strip()]
        if isinstance(ext_cfg, str)
        else list(ext_cfg)
    )
    kinds = [_extractor_kind(s) for s in ext_items]
    ks = _int_list(cfg, "k") if cfg.get("k") is not None else [1]

    cs: list[int | None]
    if cfg.get("c") is not None:
        cs = list(_int_list(cfg, "c"))
        if len(cs) != len(ps):
            raise ConfigError(
                f"--c needs one value per p: got {len(cs)} for {len(ps)} primes"
            )
    else:
        cs = [None] * len(ps)

    if not ps or not kinds or not ks:
        raise ConfigError("sweep grid is empty")

    # validate the whole grid before doing any work
    fields = [build_field({"p": p, "n": n}) for p in ps]
    for field in fields:
        for kind in kinds:
            for k in ks:
                _check_extractor_fits(kind, field, k)

    t0 = time.perf_counter()
    rows: list[dict] = []
    warnings = 0
    for field, c in zip(fields, cs):
        curve = _resolve_template(field, template, c)
        try:
            cache.ensure_jacobian(curve, cfg.get("cache_dir"), budget)
        except BudgetExceededError:
            fstr = curve.f.to_string()
            for kind in kinds:
                for k in ks:
                    warnings += 1
                    rows.append(
                        {
                            "schema": SCHEMA_VERSION,
                            "command": "sweep",
                            "experiment_id": (
                                f"extract-sd-p{field.p}-n{field.n}"
                                f"-f{fstr.replace(',', '.')}-{kind.value}-k{k}-exact"
                            ),
                            "p": field.p,
                            "n": field.n,
                            "q": field.q,
                            "modulus": cache.modulus_string(field),
                            "f": fstr,
                            "extractor": kind.value,
                            "k": k,
                            "mode": "exact",
                            "status": "budget_exceeded",
                        }
                    )
            continue
        for kind in kinds:
            for k in ks:
                rows.append(
                    _extract_row(curve, kind, k, "exact", None, None, budget, "sweep")
                )

    ok_rows = [r for r in rows if r["status"] == "ok"]

    def _max(key):
        vals = [r[key] for r in ok_rows if r.get(key) is not None]
        return max(vals) if vals else None

    rows.append(
        {
            "schema": SCHEMA_VERSION,
            "command": "sweep",
            "experiment_id": "summary",
            "sd_sqrt_q": _max("sd_sqrt_q"),
            "ratio_coords": _max("ratio_coords"),
            "ratio_bits": _max("ratio_bits"),
            "status": "ok",
        }
    )
    emit_report(cfg, "sweep", EXTRACT_COLUMNS, rows)
    ms = (time.perf_counter() - t0) * 1000.0
    _note(
        f"sweep: {len(rows) - 1} cells, {warnings} budget warning(s), "
        f"runtime_ms = {ms:.1f}"
    )
    return 0


# -- argument parsing ------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with defaults for any option")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
    sub.add_argument("--cache-dir", dest="cache_dir", help="Jacobian cache directory (default $XJAC_CACHE_DIR)")
    sub.add_argument("--budget", type=int, help="work cap before BudgetExceeded (default 10^6)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xjac",
        description="Genus-2 Jacobian arithmetic, extractors and character-sum checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pj = sub.add_parser("jacobian", help="enumerate a Jacobian and check its size")
    pj.add_argument("--p", type=int, help="field characteristic (prime)")
    pj.add_argument("--n", type=int, help="extension degree (default 1)")
    pj.add_argument("--modulus", help="extension modulus c0,c1,...,1 over F_p")
    pj.add_argument("--f", help="curve polynomial c0,...,c5 (monic quintic)")
    _add_common(pj)
    pj.set_defaults(func=cmd_jacobian)

    pe = sub.add_parser("extract-sd", help="extractor output distribution and SD")
    pe.add_argument("--p", type=int)
    pe.add_argument("--n", type=int)
    pe.add_argument("--modulus")
    pe.add_argument("--f")
    pe.add_argument("--extractor", help="sum, prod, sk or pk")
    pe.add_argument("--k", type=int, help="output length")
    pe.add_argument("--mode", choices=["exact", "montecarlo"])
    pe.add_argument("--samples", type=int, help="montecarlo sample count")
    pe.add_argument("--seed", type=int, help="montecarlo RNG seed")
    _add_common(pe)
    pe.set_defaults(func=cmd_extract_sd)

    pc = sub.add_parser("charsum", help="character-sum law checks")
    pc.add_argument("--p", type=int)
    pc.add_argument("--n", type=int)
    pc.add_argument("--modulus")
    pc.add_argument("--mode", choices=list(CHARSUM_MODES))
    pc.add_argument("--basis", help="winterhof: basis indices i,j,... (default all)")
    pc.add_argument("--L", type=int, help="interval: single length (default all)")
    _add_common(pc)
    pc.set_defaults(func=cmd_charsum)

    ps = sub.add_parser("sweep", help="extract-sd over a (p, extractor, k) grid")
    ps.add_argument("--p", help="comma list of primes")
    ps.add_argument("--n", type=int)
    ps.add_argument("--f", help="curve template; a bare c token is swept per prime")
    ps.add_argument("--extractor", help="comma list of extractors")
    ps.add_argument("--k", help="comma list of output lengths (default 1)")
    ps.add_argument("--c", help="template coefficient per prime, comma list")
    _add_common(ps)
    ps.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

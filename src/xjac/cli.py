"""Command-line front end: deterministic experiment reports as CSV/JSON.

Four subcommands:

    xjac jacobian    enumerate a Jacobian, verify Weil bounds, spot-check laws
    xjac extract-sd  exact (counted per u) or Monte-Carlo (sampled over the
                     counted classes per u) extractor output distribution
    xjac charsum     character-sum law checks (orthogonality/mordell/winterhof/interval)
    xjac sweep       exact extract-sd over a (p, extractor, k) grid, plus summary row

Report bytes depend only on the configuration (including seeds), never on
cache warmth or wall time, so reruns are byte-identical and diffable.
Timing and cache-hit information goes to stderr only; the enumeration
cache serves jacobian alone, and extract-sd and sweep never touch it.
Options are validated before any work or cache lookup, and so is the
work cap --budget, judged here alone on each command's estimate:
(sqrt(q) + 1)^4 classes for jacobian, extract-sd and each sweep curve,
and also the sample count for a Monte-Carlo extract-sd, the character
evaluations for charsum.
Exit codes:
0 success (warnings allowed), 1 a jacobian row whose status is fail or a
charsum row whose status is not pass (the rows are still written),
2 configuration/validation error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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
from .curve import HyperellipticCurve
from .errors import BudgetExceededError, ConfigError, NotSquarefreeError
from .extractors import ExtractorKind, outcome_count
from .field import FiniteField, finite_field, is_prime
from .poly import Poly
from .stats import (
    RandomSource,
    exact_output_distribution,
    monte_carlo_distribution,
    sd_report,
)

SCHEMA_VERSION = 1

DEFAULT_BUDGET = 10**6

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


def merged_config(args: argparse.Namespace) -> dict:
    """File values first, explicit flags override.

    The known keys are the subcommand's own option dests; a null value
    counts as not given."""
    flags = {
        key: val for key, val in vars(args).items()
        if key not in ("command", "func", "config")
    }
    file_cfg = _load_config_file(args.config) if args.config else {}
    for key in file_cfg:
        if key not in flags:
            raise ConfigError(f"config file key {key!r} is not a known option")
    cfg = {key: val for key, val in file_cfg.items() if val is not None}
    cfg.update((key, val) for key, val in flags.items() if val is not None)
    for key in ("out", "cache_dir"):
        if not isinstance(cfg.get(key, ""), str):
            raise ConfigError(f"option {key!r} must be a path string, got {cfg[key]!r}")
    fmt = cfg.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return cfg


def _require(cfg: dict, key: str):
    val = cfg.get(key)
    if val is None:
        flag = key.replace("_", "-")
        raise ConfigError(f"missing required option --{flag}")
    return val


def _as_int(
    cfg: dict, key: str, default: int | None = None, required: bool = False
) -> int | None:
    val = _require(cfg, key) if required else cfg.get(key, default)
    if val is None or (isinstance(val, int) and not isinstance(val, bool)):
        return val
    try:
        return int(str(val), 10)
    except ValueError:
        raise ConfigError(f"option {key!r} must be an integer, got {val!r}")


def _list(cfg: dict, key: str) -> list:
    """The items of a comma-separated string or of a JSON list."""
    val = _require(cfg, key)
    if isinstance(val, str):
        return [s for s in val.split(",") if s.strip()]
    if isinstance(val, list):
        return val
    raise ConfigError(f"option {key!r} must be a comma list, got {val!r}")


def _int_list(cfg: dict, key: str) -> list[int]:
    items = _list(cfg, key)
    try:
        return [int(str(s), 10) for s in items]
    except ValueError:
        raise ConfigError(f"option {key!r} has non-integer entries: {cfg[key]!r}")


def build_field(cfg: dict) -> FiniteField:
    p = _as_int(cfg, "p", required=True)
    n = _as_int(cfg, "n", 1)
    if "modulus" in cfg:
        return FiniteField(p, n, tuple(_int_list(cfg, "modulus")))
    return finite_field(p, n)


def _extractor_kind(name) -> ExtractorKind:
    try:
        return ExtractorKind.from_name(str(name))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require_budget(what: str, est: int, budget: int) -> None:
    """BudgetExceededError when the work estimate est exceeds budget; what
    names the work, with {} where est goes."""
    if est > budget:
        raise BudgetExceededError(f"{what.format(est)}, budget is {budget}")


# _require_budget's text for the class-count gate, est = weil_interval()[1]
_CLASSES = "Jacobian may hold up to {} classes"


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


def _json_scalar(val) -> str:
    """The JSON text of one report cell, at reporting precision."""
    return json.dumps(_json_value(val))


def _float_text(val: float, texts: dict, fmt) -> str:
    """fmt(val) memoised per report in texts.  Zeros are not memoised:
    0.0 and -0.0 are equal keys with different texts."""
    if not val:
        return fmt(val)
    text = texts.get(val)
    if text is None:
        text = texts[val] = fmt(val)
    return text


def render_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    texts: dict = {}
    writer.writerows(
        [
            _float_text(v, texts, _csv_cell) if type(v) is float else _csv_cell(v)
            for v in map(row.get, columns)
        ]
        for row in rows
    )
    return buf.getvalue()


# the encoder json.dumps uses for a str, ensure_ascii included
_encode_str = json.encoder.encode_basestring_ascii


def _json_row(heads: list, row: dict, texts: dict) -> str:
    """One row as indent=2 lays it out inside "rows"; heads pairs each
    sorted column with the text that comes before its value."""
    cells = []
    for head, col in heads:
        val = row.get(col)
        kind = type(val)
        if kind is float:
            cells.append(head + _float_text(val, texts, _json_scalar))
        elif kind is str:
            cells.append(head + _encode_str(val))
        elif kind is int:
            cells.append(head + repr(val))
        elif val is None:
            cells.append(head + "null")
        else:
            cells.append(head + _json_scalar(val))
    cells.append("\n    }")
    return "".join(cells)


def render_json(command: str, columns: list[str], rows: list[dict]) -> str:
    """json.dumps({"schema", "command", "rows"}, sort_keys=True, indent=2)
    plus a newline, byte for byte; columns is non-empty and every cell a
    JSON scalar.  indent=2 makes json.dumps fall back to the pure-Python
    encoder, so the layout is written here, each key encoded once per
    report and each distinct float formatted once."""
    heads = [
        (("{" if i == 0 else ",") + "\n      " + _encode_str(col) + ": ", col)
        for i, col in enumerate(sorted(set(columns)))
    ]
    texts: dict = {}
    body = ",\n    ".join(_json_row(heads, row, texts) for row in rows)
    rows_text = f"[\n    {body}\n  ]" if rows else "[]"
    return (
        f'{{\n  "command": {json.dumps(command)},\n  "rows": {rows_text},\n'
        f'  "schema": {json.dumps(SCHEMA_VERSION)}\n}}\n'
    )


def emit_report(cfg: dict, command: str, columns: list[str], rows: list[dict]) -> None:
    text = (
        render_json(command, columns, rows)
        if cfg.get("format") == "json"
        else render_csv(columns, rows)
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


def _curve_row(command: str, curve: HyperellipticCurve, prefix: str, suffix: str = "") -> dict:
    """The columns that name one curve's experiment: schema, command,
    experiment_id (prefix, field and f, suffix), p, n, q, modulus, f."""
    field = curve.field
    fstr = curve.f.to_string()
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "experiment_id": f"{prefix}-p{field.p}-n{field.n}-f{fstr.replace(',', '.')}{suffix}",
        "p": field.p,
        "n": field.n,
        "q": field.q,
        "modulus": cache.modulus_string(field),
        "f": fstr,
    }


def _extract_cell(
    command: str,
    curve: HyperellipticCurve,
    kind: ExtractorKind,
    k: int,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> dict:
    """Identity columns of one extract-sd cell, computed or budget_exceeded."""
    suffix = f"-{kind.value}-k{k}-{mode}"
    if mode == "montecarlo":
        suffix += f"-N{samples}-s{seed}"
    return _curve_row(command, curve, "extract-sd", suffix) | {
        "extractor": kind.value,
        "k": k,
        "mode": mode,
        "samples": samples,
        "seed": seed,
    }


def cmd_jacobian(args: argparse.Namespace) -> int:
    cfg = merged_config(args)
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    field = build_field(cfg)
    curve = HyperellipticCurve(field, str(_require(cfg, "f")))
    lo, hi = curve.weil_interval()
    _require_budget(_CLASSES, hi, budget)  # before the cache: warmth cannot pass it

    t0 = time.perf_counter()
    divisors, source = cache.ensure_jacobian(curve, cfg.get("cache_dir"))
    order = len(divisors)

    # seeded group-law spot checks: commutativity, closure, identity, inverse
    picks = RandomSource(0).below(order, 64)
    checks = failures = 0
    for a, b in zip(picks[0::2], picks[1::2]):
        A, B = divisors[a], divisors[b]
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
    row = _curve_row("jacobian", curve, "jacobian") | {
        "affine_points": len(curve.points()),
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
    return 0 if row["status"] == "ok" else 1


def _extract_row(
    curve: HyperellipticCurve,
    kind: ExtractorKind,
    k: int,
    mode: str,
    samples: int | None,
    seed: int | None,
    command: str,
) -> dict:
    """Shared by extract-sd and sweep, which have judged the budget.
    Neither mode enumerates: an exact row counts classes per u, a
    Monte-Carlo row places its draws on the counted runs of classes per
    u."""
    if mode == "exact":
        tally = exact_output_distribution(curve, kind, k)
    else:
        tally = monte_carlo_distribution(curve, kind, k, samples, seed)
    order = curve.jacobian_order()
    rep = sd_report(curve, kind, k, tally)
    return (
        _extract_cell(command, curve, kind, k, mode, samples, seed)
        | {"jacobian_order": order}
        | vars(rep)
        | {"status": "ok"}
    )


def cmd_extract_sd(args: argparse.Namespace) -> int:
    cfg = merged_config(args)
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    field = build_field(cfg)
    curve = HyperellipticCurve(field, str(_require(cfg, "f")))
    kind = _extractor_kind(_require(cfg, "extractor"))
    k = _as_int(cfg, "k", required=True)
    outcome_count(kind, field, k)  # raises when (kind, k) does not fit the field
    mode = cfg.get("mode") or "exact"
    if mode not in ("exact", "montecarlo"):
        raise ConfigError(f"mode must be exact or montecarlo, got {mode!r}")
    samples = _as_int(cfg, "samples")
    seed = _as_int(cfg, "seed")
    if mode == "montecarlo" and (samples is None or seed is None):
        raise ConfigError("montecarlo mode requires --samples and --seed")
    if mode == "exact":
        samples = seed = None
    _require_budget(_CLASSES, curve.weil_interval()[1], budget)
    if mode == "montecarlo":
        # one Python int per draw is held until the tally
        _require_budget("montecarlo mode draws {} samples", samples, budget)

    t0 = time.perf_counter()
    how = "tally = counted" if mode == "exact" else "tally = sampled"
    row = _extract_row(curve, kind, k, mode, samples, seed, "extract-sd")
    emit_report(cfg, "extract-sd", EXTRACT_COLUMNS, [row])
    ms = (time.perf_counter() - t0) * 1000.0
    _note(f"extract-sd: sd = {row['sd']:.6g}, {how}, runtime_ms = {ms:.1f}")
    return 0


def cmd_charsum(args: argparse.Namespace) -> int:
    cfg = merged_config(args)
    mode = _require(cfg, "mode")
    if mode not in CHARSUM_MODES:
        raise ConfigError(
            f"charsum mode must be one of {', '.join(CHARSUM_MODES)}, got {mode!r}"
        )
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    evals = f"charsum mode {mode} needs about {{}} character evaluations"
    p = _as_int(cfg, "p", required=True)

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
        if L_single is not None and not 1 <= L_single <= p:
            raise ConfigError(f"L must be in [1, {p}], got {L_single}")
        Ls = [L_single] if L_single is not None else list(range(1, p + 1))
        # the running sums cost p terms per L up to the largest L
        _require_budget(evals, p * max(Ls), budget)
        for L in Ls:
            rep = interval_char_sum(p, L)
            rows.append(
                base | vars(rep) | {
                    "experiment_id": f"charsum-interval-p{p}-L{L}",
                    "n": 1,
                    "q": p,
                    "L": L,
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
            if "basis" in cfg:
                bases = [tuple(sorted(_int_list(cfg, "basis")))]
            else:
                bases = [
                    tuple(i for i in range(field.n) if mask >> i & 1)
                    for mask in range(2**field.n)
                ]
            est = sum(q * field.p ** len(b) for b in bases)
        _require_budget(evals, est, budget)
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
                    # everything but a and the sum is fixed per P
                    P = Poly(field, (c0, c1, 1))
                    pstr = P.to_string()
                    prefix = (
                        f"charsum-mordell-p{field.p}-n{field.n}"
                        f"-u{pstr.replace(',', '.')}-a"
                    )
                    fixed = base | {"poly": pstr, "expected": root_q}
                    for a in range(1, q):
                        rep = poly_char_sum(field, P, a)
                        gauss_ok = abs(rep.magnitude - root_q) <= 1e-6 * root_q
                        rows.append({
                            **fixed,
                            **vars(rep),
                            "experiment_id": f"{prefix}{a}",
                            "a": a,
                            "status": "pass"
                            if (gauss_ok and rep.magnitude <= rep.bound)
                            else "fail",
                        })
        else:  # winterhof
            for basis in bases:
                rep = winterhof_sum(field, AdditiveSubgroup(field, basis))
                dev = abs(rep.magnitude - q)
                bstr = ";".join(map(str, basis))
                rows.append(
                    base | vars(rep) | {
                        "experiment_id": (
                            f"charsum-winterhof-p{field.p}-n{field.n}-basis{bstr or 'none'}"
                        ),
                        "basis": bstr,
                        "expected": float(q),
                        "status": "pass" if dev <= 1e-6 * q else "fail",
                    }
                )

    emit_report(cfg, "charsum", CHARSUM_COLUMNS, rows)
    ms = (time.perf_counter() - t0) * 1000.0
    fails = sum(1 for r in rows if r["status"] != "pass")
    _note(f"charsum: {len(rows)} rows, {fails} failures, runtime_ms = {ms:.1f}")
    return 1 if fails else 0


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
    cfg = merged_config(args)
    budget = _as_int(cfg, "budget", DEFAULT_BUDGET)
    n = _as_int(cfg, "n", 1)
    ps = _int_list(cfg, "p")
    template = str(_require(cfg, "f"))
    kinds = [_extractor_kind(s) for s in _list(cfg, "extractor")]
    ks = _int_list(cfg, "k") if "k" in cfg else [1]

    cs: list[int | None]
    if "c" in cfg:
        cs = _int_list(cfg, "c")
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
                outcome_count(kind, field, k)

    t0 = time.perf_counter()
    rows: list[dict] = []
    warnings = 0
    for field, c in zip(fields, cs):
        curve = _resolve_template(field, template, c)
        try:
            _require_budget(_CLASSES, curve.weil_interval()[1], budget)
        except BudgetExceededError:
            for kind in kinds:
                for k in ks:
                    warnings += 1
                    rows.append(
                        _extract_cell("sweep", curve, kind, k)
                        | {"status": "budget_exceeded"}
                    )
            continue
        for kind in kinds:
            for k in ks:
                rows.append(
                    _extract_row(curve, kind, k, "exact", None, None, "sweep")
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
    sub.add_argument("--cache-dir", dest="cache_dir", help="Jacobian cache directory for jacobian (default none)")
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

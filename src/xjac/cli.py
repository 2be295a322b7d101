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
One argparse parser, built once per process, types, defaults and checks
every option.  A --config file is read as the flags it stands for,
placed before the command line's own, so flags win.  Options, --out's directory included, are
checked before any work or cache lookup, and so is the work cap
--budget, judged here alone on each command's estimate, a closed form
of its options, before anything it prices is built:
(sqrt(q) + 1)^4 classes for jacobian, extract-sd and each sweep curve,
and also the sample count for a Monte-Carlo extract-sd, the character
evaluations for charsum.  Reports are rendered and written CHUNK_ROWS
rows at a time; an --out file is written under a temporary name and
moved into place once complete.
Exit codes:
0 success (warnings allowed), 1 a jacobian row whose status is fail or a
charsum row whose status is not pass (the rows are still written),
2 configuration/validation error, 3 budget exceeded.
main maps each exception to one of these: BudgetExceededError, raised
here alone and no ValueError, to 3; any ValueError (every option and
library check raises one, its message naming the check) or OSError to
2.  Either way stderr gets "error: " and the message, no class name.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
import time
from itertools import islice
from typing import Iterable, Iterator

from . import cache
from .charsum import (
    AdditiveSubgroup,
    basis_indices,
    interval_char_sum,
    orthogonality_sum,
    poly_char_sum,
    winterhof_sum,
)
from .curve import HyperellipticCurve, NotSquarefreeError
from .extractors import ExtractorKind, outcome_count
from .field import FiniteField, field_modulus, finite_field
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


# -- options -------------------------------------------------------------------


def int_list(text: str) -> list[int]:
    """The argparse type of a comma list of integers; empty items are skipped."""
    return [int(s, 10) for s in text.split(",") if s.strip()]


def extractor(name: str) -> ExtractorKind:
    """The argparse type of --extractor."""
    try:
        return ExtractorKind.from_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def extractor_list(text: str) -> list[ExtractorKind]:
    """The argparse type of sweep's comma list of extractors."""
    return [extractor(s) for s in text.split(",") if s.strip()]


_LIST_TYPES = (int_list, extractor_list)


def _config_flags(path: str, options: dict) -> list[str]:
    """The --flag=value items the JSON object in a config file stands for.

    options maps each option dest a config file may set to its flag and
    argparse type, as build_parser keeps them.  A null counts as not
    given; besides a string, a JSON number is taken only by an int option
    and a JSON list, joined with commas, only by a list option."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    flags = []
    for key, val in data.items():
        if key not in options:
            raise ValueError(f"config file key {key!r} is not a known option")
        if val is None:
            continue
        flag, kind = options[key]
        if isinstance(val, list) and kind in _LIST_TYPES:
            val = ",".join(map(str, val))
        elif type(val) is int and kind is int:
            val = str(val)
        if not isinstance(val, str):
            want = "an integer" if kind is int else (
                "a comma list" if kind in _LIST_TYPES else "a string"
            )
            raise ValueError(f"option {key!r} must be {want}, got {val!r}")
        flags.append(f"{flag}={val}")
    return flags


def _require(args: argparse.Namespace, key: str):
    val = getattr(args, key)
    if val is None:
        raise ValueError(f"missing required option --{key}")
    return val


def build_field(args: argparse.Namespace) -> FiniteField:
    return finite_field(_require(args, "p"), args.n, args.modulus)


class BudgetExceededError(Exception):
    """A command's work estimate exceeds its --budget; not a ValueError."""


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


# rows rendered and written at a time: a report never holds all its rows
# or all its text at once
CHUNK_ROWS = 512


def _chunks(rows: Iterable[dict]) -> Iterator[list[dict]]:
    """rows in lists of CHUNK_ROWS, the last one shorter; none when empty."""
    it = iter(rows)
    while chunk := list(islice(it, CHUNK_ROWS)):
        yield chunk


def _csv_chunks(columns: list[str], rows: Iterable[dict]) -> Iterator[str]:
    """The CSV report in pieces, the header with the first chunk of rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    texts: dict = {}
    for chunk in _chunks(rows):
        writer.writerows(
            [
                _float_text(v, texts, _csv_cell) if type(v) is float else _csv_cell(v)
                for v in map(row.get, columns)
            ]
            for row in chunk
        )
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    if buf.tell():  # no rows: the header alone
        yield buf.getvalue()


def render_csv(columns: list[str], rows: Iterable[dict]) -> str:
    return "".join(_csv_chunks(columns, rows))


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


def _json_chunks(command: str, columns: list[str], rows: Iterable[dict]) -> Iterator[str]:
    """json.dumps({"schema", "command", "rows"}, sort_keys=True, indent=2)
    plus a newline, byte for byte, in pieces, the head with the first
    chunk of rows; columns is non-empty and every cell a JSON scalar.
    indent=2 makes json.dumps fall back to the pure-Python encoder, so the
    layout is written here, each key encoded once per report and each
    distinct float formatted once."""
    heads = [
        (("{" if i == 0 else ",") + "\n      " + _encode_str(col) + ": ", col)
        for i, col in enumerate(sorted(set(columns)))
    ]
    texts: dict = {}
    head = f'{{\n  "command": {json.dumps(command)},\n  "rows": ['
    sep = "\n    "
    for chunk in _chunks(rows):
        yield head + sep + ",\n    ".join(_json_row(heads, row, texts) for row in chunk)
        head, sep = "", ",\n    "
    # head is still unwritten only when there were no rows: "rows": []
    end = "]" if head else "\n  ]"
    yield f'{head}{end},\n  "schema": {json.dumps(SCHEMA_VERSION)}\n}}\n'


def render_json(command: str, columns: list[str], rows: Iterable[dict]) -> str:
    return "".join(_json_chunks(command, columns, rows))


def _stand_in(path: str, tmp: str) -> int | None:
    """A descriptor of tmp, a new file beside path that os.replace can move
    onto path changing nothing but its bytes: path is missing, or a plain
    file (not a symlink, no other hard link) this process may write, whose
    mode and owner the new file takes.  None for anything else (a device
    such as /dev/null, a symlink, a directory that takes no new file),
    which is then written in place."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(path, os.W_OK)
    ):
        return None
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return None
    if st is not None:
        try:
            made = os.fstat(fd)
            if (made.st_uid, made.st_gid) != (st.st_uid, st.st_gid):
                os.fchown(fd, st.st_uid, st.st_gid)
            os.fchmod(fd, stat.S_IMODE(st.st_mode))
        except OSError:
            os.close(fd)
            os.remove(tmp)
            return None
    return fd


def emit_report(
    args: argparse.Namespace, command: str, columns: list[str], rows: Iterable[dict]
) -> None:
    """Renders and writes rows, any iterable, CHUNK_ROWS at a time.  An
    --out file that _stand_in can stand in for is written under a
    temporary name in its directory and moved into place once complete;
    on any exception the temporary file is removed and --out is left as
    it was."""
    chunks = (
        _json_chunks(command, columns, rows)
        if args.format == "json"
        else _csv_chunks(columns, rows)
    )
    if not args.out:
        for text in chunks:
            sys.stdout.write(text)
        return
    tmp = f"{args.out}.{os.getpid()}.tmp"
    fd = _stand_in(args.out, tmp)
    if fd is None:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.writelines(chunks)
        return
    try:
        with open(fd, "w", encoding="ascii", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, args.out)
    except BaseException:
        os.remove(tmp)
        raise


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
    field = build_field(args)
    curve = HyperellipticCurve(field, _require(args, "f"))
    lo, hi = curve.weil_interval()
    _require_budget(_CLASSES, hi, args.budget)  # before the cache: warmth cannot pass it

    t0 = time.perf_counter()
    divisors, source = cache.ensure_jacobian(curve, args.cache_dir)
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
    emit_report(args, "jacobian", JACOBIAN_COLUMNS, [row])
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
        | rep._asdict()
        | {"status": "ok"}
    )


def cmd_extract_sd(args: argparse.Namespace) -> int:
    field = build_field(args)
    curve = HyperellipticCurve(field, _require(args, "f"))
    kind = _require(args, "extractor")
    k = _require(args, "k")
    outcome_count(kind, field, k)  # raises when (kind, k) does not fit the field
    mode, samples, seed = args.mode, args.samples, args.seed
    if mode == "montecarlo" and (samples is None or seed is None):
        raise ValueError("montecarlo mode requires --samples and --seed")
    if mode == "exact":
        samples = seed = None
    _require_budget(_CLASSES, curve.weil_interval()[1], args.budget)
    if mode == "montecarlo":
        # one Python int per draw is held until the tally
        _require_budget("montecarlo mode draws {} samples", samples, args.budget)

    t0 = time.perf_counter()
    how = "tally = counted" if mode == "exact" else "tally = sampled"
    row = _extract_row(curve, kind, k, mode, samples, seed, "extract-sd")
    emit_report(args, "extract-sd", EXTRACT_COLUMNS, [row])
    ms = (time.perf_counter() - t0) * 1000.0
    _note(f"extract-sd: sd = {row['sd']:.6g}, {how}, runtime_ms = {ms:.1f}")
    return 0


def cmd_charsum(args: argparse.Namespace) -> int:
    """Checks every option and judges the budget on p, n and the basis
    size before the field, tables included, is built.  The rows are then
    yielded to emit_report, which writes them a chunk at a time, and
    counted as they are made."""
    mode = _require(args, "mode")
    evals = f"charsum mode {mode} needs about {{}} character evaluations"
    p, n = _require(args, "p"), args.n
    if mode == "interval" and n != 1:
        raise ValueError("interval sums are defined over prime fields (n = 1)")
    field_modulus(p, n, args.modulus)  # the field's own checks
    q = p**n
    if mode == "interval":
        L_single = args.L
        if L_single is not None and not 1 <= L_single <= p:
            raise ValueError(f"L must be in [1, {p}], got {L_single}")
        # the running sums cost p terms per L up to the largest L
        est = p * (L_single or p)
    elif mode == "orthogonality":
        est = q * q
    elif mode == "mordell":
        est = q**3 * (q - 1)
    elif args.basis is not None:  # winterhof over one basis, checked first
        bases = [basis_indices(n, sorted(args.basis))]
        est = q * p ** len(bases[0])
    else:  # winterhof over every subset b of 0..n-1, made one at a time
        bases = (tuple(i for i in range(n) if mask >> i & 1) for mask in range(2**n))
        # the sum of q * p^|b| over those b, by the binomial theorem
        est = q * (p + 1) ** n
    _require_budget(evals, est, args.budget)

    base = {"schema": SCHEMA_VERSION, "command": "charsum", "mode": mode,
            "p": p, "n": n, "q": q}

    total = fails = 0

    def rows() -> Iterator[dict]:
        nonlocal total, fails
        if mode == "interval":
            for L in range(1, p + 1) if L_single is None else (L_single,):
                rep = interval_char_sum(p, L)
                ok = rep.magnitude <= rep.bound + 1e-9
                total += 1
                fails += not ok
                yield base | rep._asdict() | {
                    "experiment_id": f"charsum-interval-p{p}-L{L}",
                    "L": L,
                    "status": "pass" if ok else "fail",
                }
            return
        field = build_field(args)
        if mode == "orthogonality":
            tol = 1e-9 * q
            for a in range(q):
                mag = abs(orthogonality_sum(field, a))
                expected = float(q) if a == 0 else 0.0
                dev = abs(mag - expected)
                ok = dev <= tol
                total += 1
                fails += not ok
                yield base | {
                    "experiment_id": f"charsum-orthogonality-p{p}-n{n}-a{a}",
                    "a": a,
                    "magnitude": mag,
                    "expected": expected,
                    "bound": tol,
                    "ratio": dev / tol,
                    "status": "pass" if ok else "fail",
                }
        elif mode == "mordell":
            root_q = math.sqrt(q)
            for c0 in range(q):
                for c1 in range(q):
                    # everything but a and the sum is fixed per P
                    P = Poly(field, (c0, c1, 1))
                    pstr = P.to_string()
                    prefix = f"charsum-mordell-p{p}-n{n}-u{pstr.replace(',', '.')}-a"
                    fixed = base | {"poly": pstr, "expected": root_q}
                    for a in range(1, q):
                        mag, bound, ratio = poly_char_sum(field, P, a)
                        ok = abs(mag - root_q) <= 1e-6 * root_q and mag <= bound
                        total += 1
                        fails += not ok
                        yield {
                            **fixed,
                            "magnitude": mag,
                            "bound": bound,
                            "ratio": ratio,
                            "experiment_id": f"{prefix}{a}",
                            "a": a,
                            "status": "pass" if ok else "fail",
                        }
        else:  # winterhof
            for basis in bases:
                rep = winterhof_sum(field, AdditiveSubgroup(field, basis))
                ok = abs(rep.magnitude - q) <= 1e-6 * q
                bstr = ";".join(map(str, basis))
                total += 1
                fails += not ok
                yield base | rep._asdict() | {
                    "experiment_id": f"charsum-winterhof-p{p}-n{n}-basis{bstr or 'none'}",
                    "basis": bstr,
                    "expected": float(q),
                    "status": "pass" if ok else "fail",
                }

    t0 = time.perf_counter()
    emit_report(args, "charsum", CHARSUM_COLUMNS, rows())
    ms = (time.perf_counter() - t0) * 1000.0
    _note(f"charsum: {total} rows, {fails} failures, runtime_ms = {ms:.1f}")
    return 1 if fails else 0


def _resolve_template(field: FiniteField, template: str, c: int | None) -> HyperellipticCurve:
    """Instantiate an f template over the field; a bare `c` token is the
    swept coefficient, advanced to the next value that gives a squarefree f.

    disc(f_c) has degree <= 8 in c (the discriminant of a monic quintic
    is a polynomial of degree 8 in its coefficients), so unless it
    vanishes for every c, one of any 9 distinct c is squarefree: the
    first min(q, 9) tries find the c a scan of all q values finds."""
    if c is None:
        return HyperellipticCurve(field, template)
    tokens = [t.strip() for t in template.split(",")]
    for i in range(min(field.q, 9)):
        cur = (c + i) % field.q
        fstr = ",".join(str(cur) if t == "c" else t for t in tokens)
        try:
            return HyperellipticCurve(field, fstr)
        except NotSquarefreeError:
            pass
    raise ValueError(
        f"no squarefree instance of template {template!r} over F_{field.q}"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    ps = _require(args, "p")
    template = _require(args, "f")
    kinds = _require(args, "extractor")
    ks, cs = args.k, args.c
    swept = "c" in [t.strip() for t in template.split(",")]
    if swept != (cs is not None):
        raise ValueError(
            "f template uses 'c' but no --c values were given" if swept
            else "--c values were given but the f template has no 'c' token"
        )
    if cs is None:
        cs = [None] * len(ps)
    elif len(cs) != len(ps):
        raise ValueError(
            f"--c needs one value per p: got {len(cs)} for {len(ps)} primes"
        )
    if not ps or not kinds or not ks:
        raise ValueError("sweep grid is empty")

    # validate the whole grid before doing any work
    fields = [finite_field(p, args.n) for p in ps]
    for field, c in zip(fields, cs):
        if c is not None:
            field._check(c)
        for kind in kinds:
            for k in ks:
                outcome_count(kind, field, k)

    t0 = time.perf_counter()
    rows: list[dict] = []
    for field, c in zip(fields, cs):
        curve = _resolve_template(field, template, c)
        # the class count jacobian and extract-sd judge; a curve over
        # budget marks its cells instead of ending the sweep
        over = curve.weil_interval()[1] > args.budget
        rows += [
            _extract_cell("sweep", curve, kind, k) | {"status": "budget_exceeded"}
            if over
            else _extract_row(curve, kind, k, "exact", None, None, "sweep")
            for kind in kinds
            for k in ks
        ]

    ok_rows = [r for r in rows if r["status"] == "ok"]
    warnings = len(rows) - len(ok_rows)

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
    emit_report(args, "sweep", EXTRACT_COLUMNS, rows)
    ms = (time.perf_counter() - t0) * 1000.0
    _note(
        f"sweep: {len(rows) - 1} cells, {warnings} budget warning(s), "
        f"runtime_ms = {ms:.1f}"
    )
    return 0


# -- argument parsing ------------------------------------------------------------


_N = ("--n", dict(type=int, default=1, help="extension degree (default 1)"))
_FIELD = (
    ("--p", dict(type=int, help="field characteristic (prime)")),
    _N,
    ("--modulus", dict(type=int_list, help="extension modulus c0,c1,...,1 over F_p")),
)
_F = ("--f", dict(help="curve polynomial c0,...,c5 (monic quintic)"))
_CACHE = ("--cache-dir", dict(help="Jacobian cache directory; only jacobian uses it "
                                   "(default none)"))
_COMMON = (
    ("--out", dict(help="write the report here instead of stdout")),
    ("--format", dict(choices=["csv", "json"], default="csv",
                      help="report format (default csv)")),
    ("--budget", dict(type=int, default=DEFAULT_BUDGET,
                      help="work cap before BudgetExceeded (default 10^6)")),
)


def build_parser() -> argparse.ArgumentParser:
    """The one parser of every option.  Its config_options attribute maps each
    subcommand to {dest: (flag, type)} for the options a --config file
    may set."""
    parser = argparse.ArgumentParser(
        prog="xjac",
        description="Genus-2 Jacobian arithmetic, extractors and character-sum checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.config_options = {}

    def command(name, help, *options):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="JSON file of option values; flags win")
        kept = parser.config_options[name] = {}
        for flag, kw in (*options, *_COMMON):
            kept[sp.add_argument(flag, **kw).dest] = (flag, kw.get("type"))

    command("jacobian", "enumerate a Jacobian and check its size",
            *_FIELD, _F, _CACHE)
    command("extract-sd", "extractor output distribution and SD",
            *_FIELD, _F,
            ("--extractor", dict(type=extractor, help="sum, prod, sk or pk")),
            ("--k", dict(type=int, help="output length")),
            ("--mode", dict(choices=["exact", "montecarlo"], default="exact")),
            ("--samples", dict(type=int, help="montecarlo sample count")),
            ("--seed", dict(type=int, help="montecarlo RNG seed")), _CACHE)
    command("charsum", "character-sum law checks",
            *_FIELD,
            ("--mode", dict(choices=CHARSUM_MODES)),
            ("--basis", dict(type=int_list,
                             help="winterhof: basis indices i,j,... (default all)")),
            ("--L", dict(type=int, help="interval: single length (default all)")))
    command("sweep", "extract-sd over a (p, extractor, k) grid",
            ("--p", dict(type=int_list, help="comma list of primes")),
            _N,
            ("--f", dict(help="curve template; a bare c token is swept per prime")),
            ("--extractor", dict(type=extractor_list, help="comma list of extractors")),
            ("--k", dict(type=int_list, default=[1],
                         help="comma list of output lengths (default 1)")),
            ("--c", dict(type=int_list, help="template coefficient per prime, comma list")),
            _CACHE)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call of the process; parsing
    leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go first, so the command line's own win
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, parser.config_options[args.command])
            args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
        if args.out and os.path.isdir(args.out):
            raise ValueError(f"--out {args.out}: is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"--out {args.out}: no such directory")
        # looked up by name when it runs, so a cmd_* replaced after import runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:  # argparse: --help or a bad option
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

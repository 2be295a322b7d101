"""xjac benchmark: runs the workloads and reports their metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all          # every workload, both modes

Run from the repository root.  Each repetition is a fresh single-threaded
`python3 benchmarks/rep.py` process that imports xjac from `src/`, so every
repetition starts cold, as a CLI user does.  Repetitions run one after the
other until the next one would end after --seconds (at least one runs).

--trace 0 reports the end-to-end metrics, medians over repetitions.
Times are scaled to a reference host speed, since a shared host's speed
drifts by tens of percent: each repetition runs a fixed pure-Python
calibration loop (no xjac code) between its ops and scales each op by the
speed measured on either side of it (see rep.Rep.normalised).  The raw
wall times and the resulting factors are printed too.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (medians over traced repetitions) and the tracing
overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give run
metadata, report digests and every metric with its unit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
GOLDEN = os.path.join(HERE, "golden.json")
REP_TIMEOUT_S = 150
TIME_UNITS = ("s", "ms", "us", "ns")

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms.p50", "ms"),
    ("op_ms.p99", "ms"),
]

# (name, unit, better, source).  The source is the span, kernel group or
# layer the figure comes from; a workload that lists the source in
# EXPECTED must produce the figure, else it is reported missing.  A figure
# whose source the workload does not exercise reads 0.
PER_LAYER = [
    ("curve.enumerate_jacobian.s", "s", "lower", "curve.enumerate_jacobian"),
    ("curve.enumerate_jacobian.classes", "count", "lower", "curve.enumerate_jacobian"),
    ("curve.enumerate_jacobian.us_per_class", "us", "lower", "enumeration"),
    ("curve.is_valid_divisor.calls", "count", "lower", "curve.is_valid_divisor"),
    ("curve.is_valid_divisor.s", "s", "lower", "curve.is_valid_divisor"),
    ("curve.is_valid_divisor.calls_per_class", "calls/class", "lower", "curve.is_valid_divisor"),
    ("extractors.extract.calls", "count", "lower", "extractors.extract"),
    ("extractors.extract.s", "s", "lower", "extractors.extract"),
    ("stats.exact_output_distribution.s", "s", "lower", "stats.exact_output_distribution"),
    ("stats.monte_carlo_distribution.s", "s", "lower", "stats.monte_carlo_distribution"),
    ("stats.us_per_sample", "us", "lower", "stats.monte_carlo_distribution"),
    ("stats.sd_report.s", "s", "lower", "stats.sd_report"),
    ("cache.save.s", "s", "lower", "cache.save"),
    ("cache.save.calls", "count", "lower", "cache.save"),
    ("cache.save.bytes", "B", "lower", "cache.save"),
    ("cache.load.s", "s", "lower", "cache.load"),
    ("cache.load.calls", "count", "lower", "cache.load"),
    ("cache.hit_ratio", "ratio", "higher", "cache.load"),
    ("curve.scalar_mul.s", "s", "lower", "curve.scalar_mul"),
    ("curve.scalar_mul.calls", "count", "lower", "curve.scalar_mul"),
    ("curve.cantor_add.s", "s", "lower", "curve.cantor_add"),
    ("curve.cantor_add.calls", "count", "lower", "curve.cantor_add"),
    ("curve.cantor_add_us.add", "us", "lower", "kernel.dh"),
    ("curve.cantor_add_us.double", "us", "lower", "kernel.dh"),
    ("poly.raw_mul_us", "us", "lower", "kernel.dh"),
    ("poly.raw_divmod_us", "us", "lower", "kernel.dh"),
    ("poly.raw_xgcd_us", "us", "lower", "kernel.dh"),
    ("field.FiniteField.s", "s", "lower", "field.FiniteField"),
    ("field.FiniteField.calls", "count", "lower", "field.FiniteField"),
    ("field.mul_us.prime", "us", "lower", "kernel.dh"),
    ("field.mul_us.table", "us", "lower", "kernel.field"),
    ("field.mul_us.vector", "us", "lower", "kernel.field"),
    ("field.inv_us.vector", "us", "lower", "kernel.field"),
    ("field.trace_first_s.vector", "s", "lower", "kernel.field"),
    ("field.trace_us.vector", "us", "lower", "kernel.field"),
    ("charsum.interval_char_sum.s", "s", "lower", "charsum.interval_char_sum"),
    ("charsum.poly_char_sum.s", "s", "lower", "charsum.poly_char_sum"),
    ("charsum.orthogonality_sum.s", "s", "lower", "charsum.orthogonality_sum"),
    ("charsum.winterhof_sum.s", "s", "lower", "charsum.winterhof_sum"),
    ("charsum.char_evals", "count", "lower", "charsum"),
    ("charsum.ns_per_eval", "ns", "lower", "charsum"),
    ("cli.cmd_jacobian.s", "s", "lower", "cli.cmd_jacobian"),
    ("cli.cmd_extract_sd.s", "s", "lower", "cli.cmd_extract_sd"),
    ("cli.cmd_charsum.s", "s", "lower", "cli.cmd_charsum"),
    ("cli.cmd_sweep.s", "s", "lower", "cli.cmd_sweep"),
    ("cli.emit_report.s", "s", "lower", "cli.emit_report"),
    ("cli.self_s", "s", "lower", "layer.cli"),
    ("cache.self_s", "s", "lower", "layer.cache"),
    ("curve.self_s", "s", "lower", "layer.curve"),
    ("extractors.self_s", "s", "lower", "layer.extractors"),
    ("stats.self_s", "s", "lower", "layer.stats"),
    ("charsum.self_s", "s", "lower", "layer.charsum"),
    ("field.self_s", "s", "lower", "layer.field"),
    ("trace.wall_s", "s", "lower", "trace"),
    ("trace.overhead_ratio", "ratio", "lower", "trace"),
]

_COMMON = {"trace", "curve.is_valid_divisor", "extractors.extract", "curve.cantor_add",
           "field.FiniteField", "layer.curve", "layer.extractors"}
_CLI = {"cli.emit_report", "layer.cli"}
EXPECTED = {
    "exact-sweep": _COMMON | _CLI | {
        "cli.cmd_sweep", "cli.cmd_extract_sd", "cli.cmd_jacobian", "cache.save",
        "cache.load", "curve.enumerate_jacobian", "enumeration",
        "stats.exact_output_distribution", "stats.sd_report", "layer.cache",
        "layer.stats", "layer.field",
    },
    "mc-warm": _COMMON | _CLI | {
        "cli.cmd_jacobian", "cli.cmd_extract_sd", "cache.save", "cache.load",
        "curve.enumerate_jacobian", "enumeration", "stats.monte_carlo_distribution",
        "stats.sd_report", "layer.cache", "layer.stats",
    },
    "dh-extract": _COMMON | {"curve.scalar_mul", "kernel.dh"},
    "charsum": {"trace", "field.FiniteField", "layer.field"} | _CLI | {
        "cli.cmd_charsum", "charsum.interval_char_sum", "charsum.poly_char_sum",
        "charsum.orthogonality_sum", "charsum.winterhof_sum", "charsum",
        "layer.charsum", "kernel.field",
    },
}


class RepFailed(RuntimeError):
    pass


def src_ready() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "xjac", "cli.py"))


def spawn(workload: str, seed: int, trace: int, small: bool = False, golden: str | None = None) -> dict:
    """Run one repetition in a fresh process and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "XJAC_CACHE_DIR"}
    extra = (["--small"] if small else []) + (["--golden", golden] if golden else [])
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), *extra, "--spawned-at"]
    cmd.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} repetition exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: of 1000 values, p99 leaves 10 above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def speed(rep: dict) -> float:
    """Factor that took a repetition's wall time to the reference speed;
    applied to its per-layer times, which are not timed op by op."""
    return rep["wall_s"] / rep["raw_wall_s"]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "op_ms.p50": med(med(r["op_ms"]) for r in reps),
        "op_ms.p99": med(percentile(r["op_ms"], 99) for r in reps),
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics, the names reported missing, and the names the
    workload does not exercise (reported as 0)."""
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    figures: dict[str, float] = {}
    for key in set.intersection(*(set(r["layers"]) for r in traced)):
        timed = units.get(key) in TIME_UNITS
        figures[key] = statistics.median(
            r["layers"][key] * (speed(r) if timed else 1) for r in traced
        )
    figures["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
    )
    expected = EXPECTED[workload]
    values, missing, unused = {}, [], []
    for name, _, _, source in PER_LAYER:
        if name in figures:
            values[name] = figures[name]
        elif source in expected:
            missing.append(name)
        else:
            values[name] = 0
            unused.append(name)
    return values, missing, unused


def self_time_errors(traced: list[dict]) -> list[str]:
    errors = []
    for r in traced:
        layers = r["layers"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        if total > layers["trace.wall_s"]:
            errors.append(f"layer self times sum to {total:.6f} s > traced wall {layers['trace.wall_s']:.6f} s")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: int, small: bool = False) -> dict:
    """Run repetitions for about `seconds` and reduce them to one result."""
    golden = GOLDEN if (seed == DEFAULT_SEED and not small and os.path.exists(GOLDEN)) else None
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain.append(spawn(workload, seed, 0, small, golden))
        if trace:
            traced.append(spawn(workload, seed, 1, small, golden))
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break

    reps = plain + traced
    problems = [msg for r in reps for msg in r["failures"]]
    digests = [r["digests"] for r in reps]
    if any(d != digests[0] for d in digests):
        problems.append("report digests differ between repetitions (traced and untraced included)")
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reps": len(plain),
        "rep_wall_s": [r["raw_wall_s"] for r in plain],
        "rep_speed": [speed(r) for r in plain],
        "ops_per_rep": plain[0]["attempted"],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "digests": digests[0],
        "golden": golden is not None,
    }
    if trace:
        problems += self_time_errors(traced)
        result["metrics"], result["missing"], result["unused"] = per_layer(workload, plain, traced)
        result["units"] = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        result["metrics"] = end_to_end(plain)
        result["units"] = dict(END_TO_END)
    result["problems"] = problems
    result["correct"] = not problems and result["failed"] == 0
    return result


def metadata() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "xjac", "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_xjac_lines": lines,
    }


def report(result: dict) -> None:
    """Human-readable lines: digests, correctness and every metric."""
    w = result["workload"]
    print(f"workload {w} seed {result['seed']} trace {result['trace']}: "
          f"{result['reps']} repetition(s), {result['ops_per_rep']} ops each, "
          f"raw wall_s {[round(x, 3) for x in result['rep_wall_s']]}, "
          f"host speed factor {[round(x, 3) for x in result['rep_speed']]}")
    for label, digest in result["digests"].items():
        print(f"  digest {label} {digest}")
    ratio = result["failed"] / result["attempted"]
    print(f"  correct {str(result['correct']).lower()} (golden digests "
          f"{'checked' if result['golden'] else 'not checked for this seed'}); attempted "
          f"{result['attempted']} failed {result['failed']} failed_ratio {ratio:.6g}")
    for msg in result["problems"][:20]:
        print(f"  problem: {msg}")
    if result["trace"]:
        m = result["metrics"]
        total = sum(v for k, v in m.items() if k.endswith(".self_s"))
        print(f"  layer self times sum to {total:.6g} s of traced wall_s {m['trace.wall_s']:.6g} s")
    else:
        print(f"  op_ms samples per repetition: {result['ops_per_rep']}")
    for name, value in result["metrics"].items():
        note = "  (not exercised by this workload)" if name in result.get("unused", ()) else ""
        print(f"  {name} = {value:.6g} {result['units'][name]}{note}")
    for name in result.get("missing", ()):
        print(f"  {name} = MISSING (its span or kernel never fired)")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="xjac benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # on SIGTERM, raise SystemExit here, so subprocess.run kills and
    # reaps the running repetition instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not src_ready():
        print(f"error: no xjac sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    meta = metadata()
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = []
    try:
        for name in names:
            for trace in modes:
                results.append(measure(name, args.seed, args.seconds, trace))
                report(results[-1])
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(result_line(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}/{name}": {"value": value, "unit": r["units"][name]}
                for r in results for name, value in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one workload, in a fresh single-threaded process.

    python3 benchmarks/rep.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T [--golden FILE] [--small]

Builds the inputs from the seed, runs set-up, times the workload's ops and
prints one JSON object on stdout: set-up time, wall time, peak RSS, op
latencies, report digests, failures and, with --trace 1, the raw per-layer
figures.  `run.py` starts this process once per repetition so that field
tables, square-root tables and enumerations always start cold.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Times are reported at the host speed at which calibration_sample takes
# this long; see Rep.normalised.
REFERENCE_CALIBRATION_S = 0.01


def calibration_sample() -> float:
    """Seconds for a fixed pure-Python loop of calls, modular arithmetic,
    list indexing and small allocations, the instruction mix of xjac's
    inner loops.  It runs no xjac code, so a change to xjac cannot move it;
    only the speed of the host can."""
    tab = list(range(97))
    out: list[tuple[int, int]] = []

    def mulmod(a, b):
        return a * b % 1000003

    t = time.perf_counter()
    for i in range(36000):
        out.append((mulmod(i, tab[i % 97]), i))
        if len(out) > 64:
            out = []
    return time.perf_counter() - t


def check_report(text: str, samples: int | None) -> list[str]:
    """Invariants every report must satisfy, whatever the seed."""
    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable report: {exc}"]
    if not rows:
        return ["report has no rows"]
    errors = []
    for row in rows:
        rid = row.get("experiment_id")
        if row.get("status") not in ("ok", "pass"):
            errors.append(f"{rid}: status {row.get('status')!r}")
        if row.get("command") == "jacobian" and row.get("weil_ok") is not True:
            errors.append(f"{rid}: weil_ok is {row.get('weil_ok')!r}")
        if samples is not None and row.get("samples") != samples:
            errors.append(f"{rid}: samples {row.get('samples')!r} != {samples}")
    return errors


class Rep:
    """Records the ops of one repetition: latency, digests and failures.

    Between ops it samples the host's speed with calibration_sample, so that
    each op's time can be scaled by the speed measured on either side of it:
    a shared host's speed drifts by tens of percent within seconds, and the
    samples next to an op track that drift."""

    def __init__(self, tracer, golden: dict[str, str]):
        self.tracer = tracer
        self.golden = golden
        self.op_ms: list[float] = []
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.points: list[list[float]] = []  # calibration samples, per point between ops
        self.op_points: list[int] = []  # for each op, the number of points before it
        self.calibration_time = 0.0

    def calibrate(self, samples: int = 2) -> None:
        """Sample the host's speed, outside the ops' timing."""
        t = time.perf_counter()
        self.points.append([calibration_sample() for _ in range(samples)])
        self.calibration_time += time.perf_counter() - t

    def _time_op(self, t: float) -> None:
        self.op_ms.append((time.perf_counter() - t) * 1e3)
        self.op_points.append(len(self.points))
        self.attempted += 1

    def normalised(self, wall_s: float, setup_s: float) -> dict:
        """Times at the reference host speed.

        An op is scaled by REFERENCE_CALIBRATION_S over the mean of the
        calibration samples taken just before and just after it; set-up by
        the first samples; the little wall time outside the ops by the ops'
        mean factor.  Call after a final calibrate()."""
        factors = [
            REFERENCE_CALIBRATION_S / statistics.mean(self.points[k - 1] + self.points[k])
            for k in self.op_points
        ]
        op_ms = [ms * f for ms, f in zip(self.op_ms, factors)]
        glue_s = wall_s - sum(self.op_ms) / 1e3
        return {
            "wall_s": sum(op_ms) / 1e3 + glue_s * statistics.mean(factors),
            "setup_s": setup_s * REFERENCE_CALIBRATION_S / statistics.mean(self.points[0]),
            "op_ms": op_ms,
        }

    def span(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        from xjac import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.span("cli.main", cli.main, argv)
        return rc, out.getvalue(), err.getvalue()

    def setup_cli(self, argv: list[str]) -> None:
        rc, _, err = self._cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up call {argv} exited {rc}: {err.strip()}")

    def cli_op(self, label: str, argv: list[str], samples: int | None = None) -> None:
        self.calibrate()
        t = time.perf_counter()
        rc, out, err = self._cli(argv)
        self._time_op(t)
        if rc != 0:
            errors = [f"exit {rc}: {err.strip()}"]
        else:
            errors = check_report(out, samples)
        digest = hashlib.sha256(out.encode()).hexdigest()
        self.digests[label] = digest
        if label in self.golden and self.golden[label] != digest:
            errors.append("report digest differs from the golden one")
        if errors:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(errors))

    def dh_op(self, fn, *args):
        """One op outside the CLI; None when it raised."""
        if self.attempted % 25 == 0:
            self.calibrate(1)
        t = time.perf_counter()
        try:
            result = self.span("bench.dh_op", fn, *args)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            result = None
            self.failed += 1
            self.failures.append(f"op {self.attempted}: {exc!r}")
        self._time_op(t)
        return result

    def fail_ops(self, count: int, why: str) -> None:
        self.failed += count
        self.failures.append(why)

    def group_digest(self, label: str, digest: str) -> None:
        """A digest over all ops; a golden mismatch fails every op."""
        self.digests[label] = digest
        if label in self.golden and self.golden[label] != digest:
            self.failed = self.attempted
            self.failures.append(f"{label}: digest differs from the golden one")


def layer_figures(tracer, wall: float) -> dict[str, float]:
    """Per-layer figures from the spans and counters of a traced rep.

    Times and counts cover set-up and the timed part; `<layer>.self_s`
    covers only the timed part, so that the layers' self times add up to
    no more than the traced wall time."""
    secs, calls, _ = tracer.totals()
    _, _, selfs = tracer.totals(root="bench.run")
    c = tracer.counts
    m: dict[str, float] = {}
    for name, n in calls.items():
        m[f"{name}.s"] = secs[name]
        m[f"{name}.calls"] = n
    if "curve.enumerate_jacobian" in calls:
        classes = c["curve.enumerate_jacobian.classes"]
        m["curve.enumerate_jacobian.classes"] = classes
        if classes:
            m["curve.enumerate_jacobian.us_per_class"] = (
                secs["curve.enumerate_jacobian"] / classes * 1e6
            )
    handled = c["cache.load.classes"] + calls.get("extractors.extract", 0)
    if "curve.is_valid_divisor" in calls and handled:
        m["curve.is_valid_divisor.calls_per_class"] = calls["curve.is_valid_divisor"] / handled
    if "cache.save" in calls:
        m["cache.save.bytes"] = c["cache.save.bytes"]
    if "cache.load" in calls:
        m["cache.hit_ratio"] = c["cache.load.hits"] / calls["cache.load"]
    if c["stats.samples"]:
        m["stats.us_per_sample"] = secs["stats.monte_carlo_distribution"] / c["stats.samples"] * 1e6
    if c["charsum.char_evals"]:
        charsum_s = sum(s for name, s in secs.items() if name.startswith("charsum."))
        m["charsum.char_evals"] = c["charsum.char_evals"]
        m["charsum.ns_per_eval"] = charsum_s / c["charsum.char_evals"] * 1e9
    layer_self: dict[str, float] = {}
    for name, s in selfs.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    for layer, s in layer_self.items():
        if layer != "bench":  # the benchmark's own spans belong to no layer
            m[f"{layer}.self_s"] = s
    m["trace.wall_s"] = wall
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--golden", help="JSON file of expected digests per workload")
    ap.add_argument("--small", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import xjac.cli  # noqa: F401 - imports belong to set-up, not to the first op
    from tracer import Tracer, install
    from workloads import WORKLOADS

    golden = {}
    if args.golden:
        with open(args.golden, encoding="ascii") as fh:
            golden = json.load(fh)["digests"].get(args.workload, {})

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.small, workdir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            install(tracer)
        rep = Rep(tracer, golden)
        rep.span("bench.setup", wl.prepare, rep)
        setup_s = time.monotonic() - args.spawned_at
        t0 = time.perf_counter()
        rep.span("bench.run", wl.run, rep)
        rep.calibrate()
        wall_s = time.perf_counter() - t0 - rep.calibration_time
        result = {
            **rep.normalised(wall_s, setup_s),
            "raw_wall_s": wall_s,
            "raw_setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": rep.attempted,
            "failed": rep.failed,
            "failures": rep.failures[:20],
            "digests": rep.digests,
        }
        if tracer is not None:
            tracer.uninstall()
            figures = layer_figures(tracer, wall_s)
            figures.update(wl.kernels())
            result["layers"] = figures
            tracer.write_jsonl(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
    except Exception:  # noqa: BLE001 - report, then exit non-zero
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracer: spans around xjac's public functions, patched where
callers look them up.

`cli` imports the `stats` and `charsum` entry points by name and `stats`
imports `extract` by name, so those functions are patched in the importing
module's namespace; methods are patched on their class.  Nothing under
`src/` changes.  Spans (id, parent, name, start, end) live in flat arrays
while the workload runs and are written as JSON lines only at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import defaultdict

class Tracer:
    """Records nested spans and counters for one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        sid = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def wrap(self, fn, name: str, pre=None, post=None):
        """A span-recording stand-in for fn.

        pre(args, kwargs) runs before fn and its value reaches
        post(args, kwargs, result, pre_value), which runs after the span
        closes so that counting is not charged to the layer."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if post is not None:
                post(args, kwargs, result, token)
            return result

        return functools.update_wrapper(traced, fn)

    def patch(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace owner.attr (a module global or class attribute).

        An attribute that no longer exists is left alone: its span never
        fires and the metrics built on it are reported missing."""
        orig = owner.__dict__.get(attr)
        if orig is None:
            return
        setattr(owner, attr, self.wrap(orig, name, pre, post))
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading the spans -----------------------------------------------------

    def totals(self, root: str | None = None):
        """Per span name: summed duration, call count and self time.

        With `root`, only spans in trees whose top span has that name
        count.  Self time is a span's duration minus its children's; the
        program is single-threaded, so children never overlap."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = [0] * n
        for i in range(n):  # spans are stored in start order: parents first
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
                top[i] = top[par]
            else:
                top[i] = i
        secs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        selfs: dict[str, float] = defaultdict(float)
        for i in range(n):
            if root is not None and names[self.name[top[i]]] != root:
                continue
            nm = names[self.name[i]]
            secs[nm] += dur[i]
            calls[nm] += 1
            selfs[nm] += dur[i] - child[i]
        return dict(secs), dict(calls), dict(selfs)

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names, t0 = self.names, self.t0
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parent[i],
                            "name": names[self.name[i]],
                            "start": round(self.start[i] - t0, 9),
                            "end": round(self.end[i] - t0, 9),
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Patch every traced xjac entry point; counters land in tracer.counts."""
    from xjac import cache, cli, curve, extractors, field, stats

    counts = tracer.counts

    for cmd in ("cmd_jacobian", "cmd_extract_sd", "cmd_charsum", "cmd_sweep", "emit_report"):
        tracer.patch(cli, cmd, f"cli.{cmd}")

    def loaded(args, kwargs, result, _):
        if result is not None:
            counts["cache.load.hits"] += 1
            counts["cache.load.classes"] += len(result)

    def saved(args, kwargs, path, _):
        counts["cache.save.bytes"] += os.path.getsize(path)

    tracer.patch(cache, "load", "cache.load", post=loaded)
    tracer.patch(cache, "save", "cache.save", post=saved)

    # A call enumerates only when the curve holds no enumeration yet;
    # otherwise it returns the memo (filled by an earlier call or a cache load).
    def fresh(args, kwargs):
        return getattr(args[0], "_jacobian", None) is None

    def enumerated(args, kwargs, result, was_fresh):
        if was_fresh:
            counts["curve.enumerate_jacobian.classes"] += len(result)

    HC = curve.HyperellipticCurve
    tracer.patch(HC, "enumerate_jacobian", "curve.enumerate_jacobian", pre=fresh, post=enumerated)
    tracer.patch(HC, "is_valid_divisor", "curve.is_valid_divisor")
    tracer.patch(HC, "scalar_mul", "curve.scalar_mul")
    # Every Cantor composition, from cantor_add or from inside scalar_mul,
    # goes through this step; its span is reported as curve.cantor_add.
    tracer.patch(HC, "_cantor_raw", "curve.cantor_add")

    tracer.patch(extractors, "extract", "extractors.extract")
    tracer.patch(stats, "extract", "extractors.extract")

    def sampled(args, kwargs, result, _):
        counts["stats.samples"] += result.total

    tracer.patch(cli, "exact_output_distribution", "stats.exact_output_distribution")
    tracer.patch(cli, "monte_carlo_distribution", "stats.monte_carlo_distribution", post=sampled)
    tracer.patch(cli, "sd_report", "stats.sd_report")

    def evals(per_call):
        def post(args, kwargs, result, _):
            counts["charsum.char_evals"] += per_call(*args, **kwargs)

        return post

    def winterhof_evals(fld, subgroup, budget=None):
        dim = subgroup.dim if hasattr(subgroup, "dim") else len(list(subgroup))
        return fld.q * fld.p**dim

    tracer.patch(cli, "interval_char_sum", "charsum.interval_char_sum", post=evals(lambda p, L: p * L))
    tracer.patch(cli, "poly_char_sum", "charsum.poly_char_sum", post=evals(lambda fld, P, a=1: fld.q))
    tracer.patch(cli, "orthogonality_sum", "charsum.orthogonality_sum", post=evals(lambda fld, a: fld.q))
    tracer.patch(cli, "winterhof_sum", "charsum.winterhof_sum", post=evals(winterhof_evals))

    tracer.patch(field.FiniteField, "__init__", "field.FiniteField")

"""Self-test of the benchmark at reduced size.

    python3 benchmarks/selftest.py

Runs every workload end to end with small inputs, untraced and traced, and
checks that:

- no op fails, and traced and untraced runs print byte-identical reports;
- every per-layer metric a workload should produce is produced, and the
  layers' self times add up to no more than the traced wall time;
- a corrupted golden digest is counted as a failed op;
- BENCHMARK.json names the workloads and metrics run.py produces;
- run.py refuses to run, without printing a result, where there are no
  xjac sources.

Exits 0 when every check holds and prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import DEFAULT_SEED

ROOT, HERE = run.ROOT, run.HERE
OUT_DIR = os.path.join(HERE, "out")


def check_spec(errors: list[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]:
        errors.append("BENCHMARK.json per_layer differs from run.PER_LAYER")


def check_workload(name: str, errors: list[str]) -> None:
    plain = run.measure(name, DEFAULT_SEED, 0, 0, small=True)
    traced = run.measure(name, DEFAULT_SEED, 0, 1, small=True)
    for res in (plain, traced):
        if not res["correct"]:
            errors.append(f"{name} trace={res['trace']}: not correct: {res['problems']}")
    if plain["digests"] != traced["digests"]:
        errors.append(f"{name}: traced and untraced reports differ")
    if traced["missing"]:
        errors.append(f"{name}: per-layer metrics missing: {traced['missing']}")
    if set(plain["metrics"]) != {m for m, _ in run.END_TO_END}:
        errors.append(f"{name}: end-to-end metrics are {sorted(plain['metrics'])}")
    if any(v <= 0 for v in plain["metrics"].values()):
        errors.append(f"{name}: an end-to-end metric is not positive: {plain['metrics']}")

    digests = dict(plain["digests"])
    label = next(iter(digests))
    digests[label] = "0" * 64
    fd, path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": {name: digests}}, fh)
    try:
        rep = run.spawn(name, DEFAULT_SEED, 0, small=True, golden=path)
    finally:
        os.remove(path)
    # dh-extract's one digest covers all its ops; a report digest covers one op
    want = rep["attempted"] if name == "dh-extract" else 1
    if rep["failed"] != want:
        errors.append(f"{name}: corrupted golden digest gave {rep['failed']} failed ops, want {want}")


def check_refuses_without_sources(errors: list[str]) -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "charsum", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            errors.append("run.py ran without xjac sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    errors: list[str] = []
    check_spec(errors)
    for name in run.WORKLOADS:
        check_workload(name, errors)
    check_refuses_without_sources(errors)
    for msg in errors:
        print(f"FAIL {msg}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite golden.json: the report digests of every workload at the
default seed, from one untraced repetition each.

    python3 benchmarks/golden.py

run.py compares against these digests whenever it runs the default seed.
Rewrite them only for a change that is meant to alter report bytes.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED


def main() -> int:
    digests = {}
    for name in run.WORKLOADS:
        rep = run.spawn(name, DEFAULT_SEED, 0)
        if rep["failed"]:
            print(f"{name}: {rep['failures']}", file=sys.stderr)
            return 1
        digests[name] = rep["digests"]
    with open(run.GOLDEN, "w", encoding="ascii") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Re-record the reference values every benchmark run is checked against.

    python3 perfbench/record.py [workload ...]

Runs each workload's grid once on the ``reference`` engine (the
executable specification every faster engine must match bit for bit)
and writes ``perfbench/expected/<workload>.json``.  Seed-driven
workloads are recorded for the default and the held-out seed; the
search workload records the exhaustive 8-thread grid of all nine
Table-2 workloads at every fidelity rung, which covers any triple a seed
picks and gives ε-coverage its golden frontier.  Re-record only when a
change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import EXPECTED_DIR  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    SearchQueue,
)


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name in names:
        wl = WORKLOADS[name]
        t0 = time.perf_counter()
        if isinstance(wl, SearchQueue):
            data = {"engine": "reference", "cells": wl.record()}
        else:
            data = {"engine": "reference",
                    "seeds": {str(seed): wl.record(seed)
                              for seed in (DEFAULT_SEED, HELD_OUT_SEED)}}
        path = os.path.join(EXPECTED_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{name}: {path} ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

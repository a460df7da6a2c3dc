"""One benchmark round in a fresh process: set up, signal, run, check.

    python3 perfbench/round.py --workload NAME --seed N --work DIR
        [--trace] [--setup-only]
    python3 perfbench/round.py --prepare

Prints ``READY`` once set-up is done (``run.py`` times process start to
that line as ``setup_s``), then runs the workload's timed call, checks
its outputs and prints one JSON line.  With ``--trace`` the layer
wrappers of ``tracing.py`` are installed before set-up and the JSON
carries the per-layer metrics; the spans are written to
``DIR/spans.json``.  ``--prepare`` only imports the program and loads
the native batch kernels (compiling them on a fresh checkout), so no
timed round pays for that; without a C compiler the batch engine runs
its numpy paths.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--work")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--prepare", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    if args.prepare:
        workloads.get_native()  # None without a C compiler: numpy paths
        print("READY", flush=True)
        return 0
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, wl)
    st = wl.setup(args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        wl.close(st)
        return 0
    if tracer is not None:
        loops = tracing.loop_counts()
    out = wl.run(st)
    result = {"campaign_s": out["campaign_s"], "cells": out["cells"],
              "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.remove()
        spans = tracer.collect()
        with open(os.path.join(args.work, "spans.json"), "w", encoding="utf-8") as f:
            json.dump(spans, f)
        result["layers"] = tracing.layer_metrics(
            spans, tracing.delta(tracing.loop_counts(), loops))
    result.update(wl.check(st, out))
    wl.close(st)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

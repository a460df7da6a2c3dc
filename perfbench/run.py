"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every round is a fresh process (``round.py``) with empty program and
loop caches and a fresh store, driven as one closed-loop client.  With
``--trace 0`` rounds follow each other for ``--seconds`` of wall time:
another round starts while it is expected to end no later than half a
round past that, and the run reports the median campaign of its rounds.
Set-up is sampled in every round, plus set-up-only rounds up to
:data:`MIN_SETUPS` samples, and reported as the median.  With
``--trace 1`` one untraced and one traced round run, and the traced
round's spans give the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, including the workload-specific ones
(Table 1 error, search coverage and cost) that are not part of the
JSON.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: set-up samples per untraced run.
MIN_SETUPS = 5
#: wall-clock limit of one run; a round still going then is killed.
RUN_LIMIT_S = 170.0
#: simulated results carried into the traced run's per-layer metrics.
SIM_METRICS = ("table1_ipc_err", "search_eps_coverage", "search_cost_frac")


class RoundError(RuntimeError):
    pass


def _kill_group(proc) -> None:
    """Kill a round and any pool worker it forked (its process group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(argv, env, deadline: float):
    """Run one round; returns ``(setup_s, result dict or None)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "round.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0),
                               _kill_group, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        _kill_group(proc)
        proc.wait()
    if code != 0 or ready.strip() != "READY":
        raise RoundError(f"round {' '.join(argv)} exited with code {code}")
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    return setup_s, (json.loads(lines[-1]) if lines else None)


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program under {os.path.join(ROOT, 'src')}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    state = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(os.path.join(state, "runs"), exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CACHE_DIR", "REPRO_NO_NATIVE", "PYTHONPATH")}
    env["TMPDIR"] = tmp  # the native kernel build stays host-warm here
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(state, "runs"))
    rounds = itertools.count(1)

    def spawn(*, trace=False, setup_only=False):
        work = os.path.join(run_dir, f"round{next(rounds)}")
        os.makedirs(work)
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--work", work]
        argv += ["--trace"] * trace + ["--setup-only"] * setup_only
        out = _spawn(argv, env, deadline)
        if trace:  # keep the spans past the run directory's removal
            shutil.copy(os.path.join(work, "spans.json"),
                        os.path.join(state, f"spans-{args.workload}.json"))
        return out

    try:
        _spawn(["--prepare"], env, deadline)
        if args.trace:
            metrics, runs = _traced(spawn, spec)
        else:
            metrics, runs = _untraced(spawn, args.seconds, spec)
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"][:20]:
            print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _report(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def _sim_lines(runs) -> None:
    """Simulated results, printed beside every host-time figure."""
    for name in SIM_METRICS:
        values = [r["sim"][name] for r in runs if name in r["sim"]]
        if values:
            print(f"{name} = {values[0]:.6g} ratio (simulated)")


def _untraced(spawn, seconds: float, spec):
    runs, setups, walls = [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + max(walls) / 2 <= seconds:
        t0 = time.perf_counter()
        setup_s, result = spawn()
        walls.append(time.perf_counter() - t0)
        runs.append(result)
        setups.append(setup_s)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(setup_only=True)[0])
    campaigns = [r["campaign_s"] for r in runs]
    rates = [r["cells"] / r["campaign_s"] for r in runs]
    values = {"setup_s": statistics.median(setups),
              "campaign_s": statistics.median(campaigns),
              "cells_per_s": statistics.median(rates),
              "peak_rss_mb": max(r["rss_mb"] for r in runs)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    print(f"rounds = {len(runs)} ({len(campaigns)} campaign samples "
          f"{min(campaigns):.4g}-{max(campaigns):.4g} s, {len(setups)} set-up "
          f"samples {min(setups):.4g}-{max(setups):.4g} s)")
    _report(metrics)
    _sim_lines(runs)
    return metrics, runs


def _traced(spawn, spec):
    _, plain = spawn()
    _, traced = spawn(trace=True)
    values = dict(traced["layers"])
    for name in SIM_METRICS:
        values[name] = traced["sim"].get(name, 0.0)
    values["trace.campaign_s"] = traced["campaign_s"]
    values["trace.untraced_campaign_s"] = plain["campaign_s"]
    values["trace.overhead_frac"] = (values["trace.campaign_s"]
                                     / values["trace.untraced_campaign_s"] - 1.0)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    _report(metrics)
    return metrics, [plain, traced]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

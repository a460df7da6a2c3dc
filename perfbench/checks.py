"""Pure helpers the benchmark's metrics and output checks are built from.

Nothing here imports the simulator, so the rules can be unit-tested on
hand-built inputs (``perfbench/tests``).
"""

from __future__ import annotations

import json
import math
import os

#: a percentile is reported only when at least this many samples lie
#: beyond it (p90 therefore needs 100 samples, p50 needs 20).
MIN_BEYOND = 10

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")


def percentile(samples, q: float):
    """Nearest-rank ``q``-quantile of ``samples``, or ``None`` when fewer
    than :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0 or n * (1.0 - q) < MIN_BEYOND - 1e-9:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1]


def covered_time(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover.

    Children that ran in parallel (pool workers under one runner span)
    are merged first, so overlapping children are not subtracted twice.
    """
    children: dict = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(
                (sp["t0"], sp["t1"]))
    return {sp["id"]: (sp["t1"] - sp["t0"])
            - covered_time(sp["t0"], sp["t1"], children.get(sp["id"], ()))
            for sp in spans}


def eps_coverage(golden, found, eps: float = 0.05) -> float:
    """Share of ``golden`` frontier points some ``found`` point ε-covers.

    A point ``q`` covers ``p`` when it is no more expensive on both cost
    axes and within ``eps`` of its IPC (the ε-approximate Pareto set
    criterion of docs/SEARCH_REPORT.md).
    """
    if not golden:
        raise ValueError("empty golden frontier")
    hit = 0
    for p in golden:
        if any(q["transistors"] <= p["transistors"]
               and q["gate_delays"] <= p["gate_delays"]
               and q["ipc"] >= (1.0 - eps) * p["ipc"] for q in found):
            hit += 1
    return hit / len(golden)


def compare_values(actual: dict, expected: dict, label: str = ""):
    """Compare simulated values key by key; returns ``(failed, problems)``.

    Every expected key must be present with a bit-identical value;
    unexpected extra keys count as failures too.
    """
    failed = 0
    problems = []
    for key, want in expected.items():
        got = actual.get(key)
        if got is None:
            failed += 1
            problems.append(f"{label}{key}: missing")
        elif got != want:
            failed += 1
            problems.append(f"{label}{key}: {got!r} != expected {want!r}")
    for key in actual.keys() - expected.keys():
        failed += 1
        problems.append(f"{label}{key}: not in the expected grid")
    return failed, problems


def table1_ipc_err(rows) -> float:
    """Mean relative error of simulated IPCr and IPCp against Table 1.

    ``rows`` are the ``table1`` artifact rows
    ``(benchmark, ILP, IPCr, IPCp, paper IPCr, paper IPCp)``.
    """
    errs = []
    for _name, _ilp, ipcr, ipcp, paper_r, paper_p in rows:
        errs.append(abs(ipcr - paper_r) / paper_r)
        errs.append(abs(ipcp - paper_p) / paper_p)
    return sum(errs) / len(errs)


def load_expected(workload: str):
    """The recorded reference values of one workload, or ``None``."""
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return None

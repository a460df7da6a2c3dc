"""Design-space sweep: enumeration cost and a print-scale campaign.

The enumerator + dedup is pure CPU (no simulation) and must stay cheap
even where the grammar explodes (610 names at 8 threads); the timed
simulation body is one canonical candidate on one workload, the unit a
sweep's grid fans out.
"""

import pytest

from benchmarks.conftest import BENCH_CONFIG, PRINT_CONFIG, show
from repro.eval import Session
from repro.eval.sweep import enumerate_candidates, enumerate_names
from repro.sim import run_workload
from repro.workloads import workload_programs


@pytest.fixture(scope="module")
def sweep3(machine):
    return Session(machine, config=PRINT_CONFIG).sweep(
        3, ["LLLL", "LLHH", "HHHH"])


def test_sweep3_regenerate(sweep3):
    show(sweep3)
    rows = {row[0]: row for row in sweep3.rows}
    # the 3-thread space: SMT-heavier cascades win IPC, pure CSMT wins cost
    assert rows["2SS@3"][1] >= rows["2CC@3"][1]
    assert rows["C3"][2] < rows["2SS@3"][2]
    # dedup is exact: C3 and its serial cascade share one simulated IPC
    assert rows["C3"][1] == rows["2CC@3"][1]
    frontier = {p["scheme"] for p in sweep3.meta["frontier"]}
    assert "C3" in frontier or "2CC@3" in frontier


def test_bench_enumerate_8_threads(benchmark):
    def enumerate_wide():
        enumerate_names.cache_clear()
        enumerate_candidates.cache_clear()
        return enumerate_candidates(8)

    groups = benchmark(enumerate_wide)
    assert sum(len(g.members) for g in groups) == 610


def test_bench_sweep_cell(benchmark, machine):
    """One grid cell: a 3-thread canonical scheme on a mixed workload."""
    programs = workload_programs("LLMH", machine)
    ipc = benchmark(lambda: run_workload(programs, "2SC@3",
                                         BENCH_CONFIG).ipc)
    assert ipc > 0
